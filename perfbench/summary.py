"""Print every benchmark metric per workload, from repeated runs.

    python3 perfbench/summary.py [--first-seed 0] [--trace] [WORKLOAD ...]

Run from the root of a checkout.  Makes RUNS runs of run.py per workload,
each with its own seed, one after another (never two at once), then prints:

- per end-to-end metric: the median of the run values, their quartiles and
  the spread (q3 - q1) / median next to the metric's bound;
- per workload-specific timing, pooled over every instance (or diagonal) of
  every run: the median, the highest percentile that has at least ten
  samples beyond it, and the sample count; and fail_frac with the number of
  ops attempted.

With --trace it adds one traced run per workload and prints its per-layer
metrics, trace.overhead_frac included.  The instance records of every run
go to .perfbench_out/summary-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import percentile, spec
from workloads import OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    raw = json.loads((OUT_DIR / f"last-{workload}-{trace}.json").read_text())
    return result, raw


def tail(samples):
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}={percentile(samples, p):.6g}"
    return "p-: fewer than 20 samples"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", help=f"any of {', '.join(WORKLOADS)}; "
                   "default: the workloads BENCHMARK.json lists")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if set(args.workloads) - set(WORKLOADS):
        p.error(f"unknown workload in {args.workloads}")
    cfg = spec()
    seconds = cfg["run_seconds"]
    for workload in args.workloads or [w["name"] for w in cfg["workloads"]]:
        results, instances, raws = [], [], []
        for i in range(RUNS):
            result, raw = bench(workload, args.first_seed + i, seconds, 0)
            results.append(result)
            instances.extend(raw["plain"])
            raws.append(raw)
        (OUT_DIR / f"summary-{workload}.json").write_text(json.dumps(raws))
        print(f"== {workload}: {RUNS} runs of {seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + RUNS - 1}, "
              f"{len(instances)} instances")
        for m in cfg["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            samples = [r[m["name"]] for r in instances if m["name"] in r]
            print(f"  {m['name']:<22} {med:>12.6g} {m['unit']:<6} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {(q3 - q1) / med:.3f} (bound {m['bound']}, aim < {m['bound'] / 3:.3f})  "
                  f"instances: {tail(samples)} n={len(samples)}")
            print(f"  {'':<22} runs: {' '.join(f'{v:.4g}' for v in vals)}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  {'fail_frac':<22} {failed / attempted:>12.6g} fraction  "
              f"ops_attempted={attempted} failed={failed}")
        extras = sorted({k for r in instances for k in r["extra"]} - {"diag_ms"})
        for key in extras:
            samples = [r["extra"][key] for r in instances if key in r["extra"]]
            print(f"  {key:<22} {statistics.median(samples):>12.6g}  {tail(samples)} "
                  f"n={len(samples)}")
        diag = [ms for r in instances for ms in r["extra"].get("diag_ms", [])]
        if diag:
            rates = [len(r["extra"]["diag_ms"]) / r["wall_s"] for r in instances]
            print(f"  {'diagonals_per_s':<22} {statistics.median(rates):>12.6g} 1/s  "
                  f"{tail(rates)} n={len(rates)}")
            print(f"  {'diag_ms':<22} {percentile(diag, 50):>12.6g} ms  "
                  f"p90={percentile(diag, 90):.6g} {tail(diag)} n={len(diag)} (pooled)")
        if args.trace:
            result, _ = bench(workload, args.first_seed, seconds, 1)
            print(f"  -- traced run, seed {args.first_seed}: correct={result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    main()
