#!/usr/bin/env python3
"""Rows of the scaling table: the closure and both bounds of a pair as the
generator count m and the truncation degree D grow.

Each row is one cold process with BLAS pinned to one thread.  It builds
lie_closure, then tilde_bound, then overline_bound, so the filtration memo
is shared, and reports:
  - the CPU seconds of each stage;
  - w = m^D * n^2, the width of the widest block of F (x) M_n;
  - the dimension of each result;
  - the peak RSS of the whole process, in MB of 2^20 bytes;
  - the sha256 of each result's to_jsonable() (the table prints the first
    16 hex digits, and `same` when the three agree).

Usage: python scripts/scaling_table.py sl:3,2,6 sp:4,2,8 [--json]
Each row is PAIR,M,D.  With --json, one JSON object per row in place of
the markdown table.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

STAGES = ("closure", "tilde", "overline")
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def measure(spec: str) -> dict:
    """One row, in this process: it must be a fresh one."""
    from nclie.coeffalg import FreeContext
    from nclie.current import lie_closure, overline_bound, tilde_bound
    from nclie.pairs import pair_by_name

    name, m, d = spec.split(",")
    m, d = int(m), int(d)
    pair, fctx = pair_by_name(name), FreeContext(m, d)
    row = {"pair": name, "m": m, "D": d, "w": m**d * pair.n**2}
    for stage, build in zip(STAGES, (lie_closure, tilde_bound, overline_bound)):
        t0 = time.process_time()
        sub = build(pair, fctx)
        row[f"{stage}_s"] = round(time.process_time() - t0, 3)
        row[f"{stage}_dim"] = sub.dim
        text = json.dumps(sub.to_jsonable(), separators=(",", ":"))
        row[f"{stage}_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return row


def run_row(spec: str) -> dict:
    """One row in a cold subprocess with BLAS pinned to one thread."""
    proc = subprocess.run([sys.executable, __file__, "--row", spec], capture_output=True,
                          text=True, env={**os.environ, **PINNED})
    if proc.returncode:
        raise SystemExit(f"row {spec} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def markdown(row: dict) -> str:
    dims = {row[f"{s}_dim"] for s in STAGES}
    digests = {row[f"{s}_sha256"][:16] for s in STAGES}
    cells = [f"{row['pair']}, {row['m']}, {row['D']}", f"{row['w']:,}",
             "/".join(f"{d:,}" for d in sorted(dims)),
             *(f"{row[f'{s}_s']:.2f}" for s in STAGES),
             f"{row['peak_rss_mb']:,} MB",
             f"same {digests.pop()}" if len(digests) == 1 else " ".join(sorted(digests))]
    return "| " + " | ".join(cells) + " |"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rows", nargs="*", help="PAIR,M,D, for example sp:4,2,8")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--row", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.row:
        print(json.dumps(measure(args.row)))
        return
    if not args.json:
        print("| pair, m, D | w | dim | closure | tilde | overline | peak RSS | sha256 |")
        print("|---|---|---|---|---|---|---|---|")
    for spec in args.rows:
        row = run_row(spec)
        print(json.dumps(row) if args.json else markdown(row), flush=True)


if __name__ == "__main__":
    main()
