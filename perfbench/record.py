"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout whose answers are trusted.  Writes
perfbench/expected.json: the canonical-form digest of every subspace of
closure-growth and closed-forms, and, for `verify-all`, the anchor sequence,
the digest of each report check (`ms` stripped) for seeds 0..VERIFY_SEEDS-1,
and, keyed by check index, the digests that are the same for every one of
those seeds, outside the seeded Cartan batteries, which every seed is
checked against.
cartan-battery needs no recording: its check is criterion == direct test.
"""

from __future__ import annotations

import json

from run import run_instance
from workloads import EXPECTED

VERIFY_SEEDS = 10
# the Cartan batteries count verdicts over the seed's own diagonals, so their
# digests depend on the seed even where the recorded seeds happen to agree
SEEDED_ANCHORS = ("cartan.",)


def main():
    expected = {}
    for workload in ("closure-growth", "closed-forms"):
        expected[workload] = run_instance(workload, 0)["outputs"]
    outs = [run_instance("verify-all", seed)["outputs"] for seed in range(VERIFY_SEEDS)]
    anchors = outs[0]["anchors"]
    if any(out["anchors"] != anchors for out in outs):
        raise SystemExit("verify-all reports different checks for different seeds")
    expected["verify-all"] = {
        "anchors": anchors,
        "common": {str(i): d for i, d in enumerate(outs[0]["checks"])
                   if not anchors[i].startswith(SEEDED_ANCHORS)
                   and all(out["checks"][i] == d for out in outs)},
        "seeds": {str(seed): {"config": out["config"], "checks": out["checks"]}
                  for seed, out in enumerate(outs)},
    }
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":
    main()
