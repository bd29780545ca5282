"""nclie benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load is a closed loop with one caller:
each instance is a fresh single-threaded process (see instance.py) started
only after the previous one has exited, for about S seconds.

Before the loop an untimed child imports nclie once, so that every
instance loads bytecode from .perfbench_out/pyc.  --trace 0 times instances
untraced, then starts set-up-only probes until there are SETUP_SAMPLES
set-up times, and reports the end-to-end metrics as medians (wall_s of a
workload that splits one input over its instances as their mean).  --trace 1
alternates an untraced and a traced instance and reports the per-layer
metrics: span metrics from the traced instances, the workload-specific
timings from the untraced ones, and the tracing overhead as traced over
untraced wall time, minus 1.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Every instance's own record goes to .perfbench_out/last-<workload>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUT_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 3
DEADLINE_S = 170
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class RunError(RuntimeError):
    pass


def child_env():
    # every child reads and writes bytecode in the benchmark's own cache, so
    # set-up time does not depend on the checkout's __pycache__ directories
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(OUT_DIR / "pyc"), **PINNED)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def prime_bytecode():
    """Compile everything an instance imports into the bytecode cache, untimed."""
    try:
        proc = subprocess.run([sys.executable, "-c", "import instance; instance.import_nclie()"],
                              cwd=HERE, env=child_env(), stdout=subprocess.DEVNULL, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise RunError("importing nclie took more than 60 s") from exc
    if proc.returncode != 0:
        raise RunError(f"importing nclie exited with {proc.returncode}")


def run_instance(workload, seed, draw=0, trace=False, probe=False, deadline=None) -> dict:
    """Start one instance process, wait for it, and return its record."""
    cmd = [sys.executable, str(HERE / "instance.py"), "--workload", workload, "--seed", str(seed),
           "--draw", str(draw), "--launched", repr(time.monotonic())]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise RunError(f"{workload} instance exceeded the {DEADLINE_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} instance exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, p):
    """Linear interpolation between closest ranks, p in [0, 100]."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def collect(workload, seed, seconds, trace, deadline=None):
    """The closed loop: instances one after another, and another only while
    it is projected, at the mean cycle time so far, to end within `seconds`,
    or while an untraced run has fewer instances than the workload's `split`."""
    least = getattr(WORKLOADS[workload], "split", 1)
    t0 = time.monotonic()
    plain, traced = [], []
    while True:
        draw = len(plain)
        plain.append(run_instance(workload, seed, draw, deadline=deadline))
        if trace:  # the traced twin gets the same inputs
            traced.append(run_instance(workload, seed, draw, trace=True, deadline=deadline))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(plain) > seconds and (trace or len(plain) >= least):
            break
    probes = []
    if not trace:
        while len(plain) + len(probes) < SETUP_SAMPLES:
            probes.append(run_instance(workload, seed, len(plain) + len(probes), probe=True,
                                       deadline=deadline))
    return plain, traced, probes


def end_to_end(workload, plain, probes) -> dict:
    split = getattr(WORKLOADS[workload], "split", 1) > 1
    return {
        "wall_s": (statistics.mean if split else statistics.median)(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain + probes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(plain, traced, names) -> dict:
    """Span metrics from the traced instances; workload-specific timings,
    present only on the workloads that make them, from the untraced ones."""
    out = {key: _median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    for key in names:
        if key.startswith("closure_s."):
            out[key] = _median(r["extra"][key] for r in plain if key in r["extra"])
    batteries = [r for r in plain if "diag_ms" in r["extra"]]
    diag = [ms for r in batteries for ms in r["extra"]["diag_ms"]]
    out["diagonals_per_s"] = _median(len(r["extra"]["diag_ms"]) / r["wall_s"] for r in batteries)
    out["diag_ms.p50"] = percentile(diag, 50) if diag else 0.0
    out["diag_ms.p90"] = percentile(diag, 90) if diag else 0.0
    out["cli.reported_ms_frac"] = _median(r["extra"]["reported_ms_frac"] for r in plain
                                          if "reported_ms_frac" in r["extra"])
    runs = plain + traced
    out["fail_frac"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    out["trace.overhead_frac"] = _median(r["wall_s"] for r in traced) / _median(
        r["wall_s"] for r in plain) - 1
    return out


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nclie" / "__init__.py").is_file():
        print(f"error: no nclie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = spec()["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    try:
        prime_bytecode()
        plain, traced, probes = collect(args.workload, args.seed, args.seconds, args.trace, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = [m["name"] for m in metrics]
    if args.trace:
        values = per_layer(plain, traced, names)
    else:
        values = end_to_end(args.workload, plain, probes)
    if sorted(values) != sorted(names):
        missing, extra = set(names) - set(values), set(values) - set(names)
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
              f"unexpected {sorted(extra)}", file=sys.stderr)
        return 1
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"last-{args.workload}-{args.trace}.json").write_text(
        json.dumps({"plain": plain, "traced": traced, "probes": probes}))
    for r in runs:
        for name, detail in r.get("failures", []):
            print(f"failed: {r['workload']} {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
