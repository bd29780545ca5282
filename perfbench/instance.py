"""One cold instance of one workload, in a process of its own.

    python3 perfbench/instance.py --workload NAME --seed N --draw K --launched T [--trace] [--probe]

`--launched` is the monotonic clock reading of the parent just before it
started this process, so set-up time includes interpreter start and
imports.  `--draw` numbers the instance within its run, for the workloads
that draw fresh seeded inputs per instance.  `--probe` stops after set-up.  `--trace` wraps the nclie modules
and writes the spans of the latest traced instance of each workload to
.perfbench_out/spans-<workload>.txt.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import types
from pathlib import Path

import layers
import workloads
from tracer import Patch, Tracer

ROOT = Path(__file__).resolve().parent.parent


def import_nclie():
    """Import nclie from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "nclie" / "__init__.py").is_file():
        raise SystemExit(f"no nclie sources under {src}")
    if any(name == "nclie" or name.startswith("nclie.") for name in sys.modules):
        raise SystemExit("nclie was imported before the instance started")
    sys.path.insert(0, str(src))
    import nclie
    from nclie import cli, coeffalg, commfilt, current, groups, pairs, subspace

    if Path(nclie.__file__).resolve().parent != (src / "nclie").resolve():
        raise SystemExit(f"imported nclie from {nclie.__file__}, not from {src}")
    return types.SimpleNamespace(cli=cli, coeffalg=coeffalg, commfilt=commfilt, current=current,
                                 groups=groups, pairs=pairs, subspace=subspace)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--draw", type=int, default=0)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    work = workloads.WORKLOADS[args.workload]
    nc = import_nclie()
    workloads.require_cold(nc.current)
    tracer = patch = None
    if args.trace:
        tracer = Tracer()
        tracer.begin_run(layers.SETUP_RUN)
        patch = Patch(tracer, layers.targets(), layers.namespaces())
    with patch if patch is not None else contextlib.nullcontext():
        state = work.setup(nc, args.seed, args.draw)
        setup_s = time.monotonic() - args.launched
        result = {"workload": args.workload, "seed": args.seed, "draw": args.draw,
                  "traced": args.trace,
                  "setup_s": setup_s}
        if not args.probe:
            t0 = time.perf_counter()
            raw = work.run(nc, state, tracer)
            result["wall_s"] = time.perf_counter() - t0
    # high-water mark of the work itself, before the checks build their digests
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.probe:
        outcome = work.check(nc, state, raw, workloads.load_expected().get(args.workload, {}))
        result.update(attempted=len(outcome.ops), failed=outcome.failed, extra=outcome.extra,
                      outputs=outcome.outputs,
                      failures=[(n, d) for n, ok, d in outcome.ops if not ok][:20])
    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
        result["spans"] = len(tracer)
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"spans-{args.workload}.txt")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
