"""The workloads: set-up, the timed part, and the output checks.

Every workload runs in a fresh process, so the process-wide memos
(`current._closure_memo`, the `filtration()` caches, the per-pair power
caches) start empty, as they do for every CLI invocation.  `setup` builds
what the workload is handed; `run` is the timed part and only computes;
`check` compares the outputs with the digests in expected.json after the
clock has stopped.  An op is one checked output: a subspace, a diagonal
verdict, a coverage count, the command's exit code or a report check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE.parent / ".perfbench_out"

CARTAN_COUNT = 40
CARTAN_MIN_EACH = 5


class WarmStateError(RuntimeError):
    """The process already holds memoized results, so a run would be warm."""


def require_cold(current):
    if current._closure_memo:
        raise WarmStateError(
            f"current._closure_memo holds {len(current._closure_memo)} entries before set-up"
        )


def digest(sub) -> dict:
    """The canonical form of a subspace, as its dimension profile and the
    sha256 of its to_jsonable() rows (bit-identical across correct runs)."""
    text = json.dumps(sub.to_jsonable(), separators=(",", ":"))
    return {"profile": [d for _, d in sub.dim_profile()],
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def text_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text())


@dataclass
class Outcome:
    ops: list = field(default_factory=list)        # (op name, ok, detail)
    outputs: dict = field(default_factory=dict)    # what record.py stores
    extra: dict = field(default_factory=dict)      # workload-specific timings

    def op(self, name, ok, detail=""):
        self.ops.append((name, bool(ok), detail))

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.ops if not ok)


def run_ops(calls, tracer=None):
    """Run (name, thunk) pairs in order; keep each result, or the exception it
    raised, with its duration.  Traced, each op gets a run id of its own."""
    out = []
    for name, thunk in calls:
        if tracer is not None:
            tracer.begin_run(name)
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            result = exc
        out.append((name, result, time.perf_counter() - t0))
    return out


def _check_subspaces(results, expected: dict, outcome: Outcome):
    for name, result, _ in results:
        if isinstance(result, Exception):
            outcome.op(name, False, f"raised {result!r}")
            continue
        got = digest(result)
        outcome.outputs[name] = got
        want = expected.get(name)
        if want is None:
            outcome.op(name, False, "no recorded digest")
        elif got != want:
            outcome.op(name, False, f"profile {got['profile']} vs recorded {want['profile']}")
        else:
            outcome.op(name, True)


# -- closure-growth --------------------------------------------------------------


class ClosureGrowth:
    """Bracket saturation along both growth axes: D at m=2, m at D=4."""

    points = (("sp4_m2_D6", "sp:4", 2, 6), ("sl3_m3_D4", "sl:3", 3, 4))

    def setup(self, nc, seed, draw):
        return [(key, nc.pairs.pair_by_name(p), nc.coeffalg.FreeContext(m, d))
                for key, p, m, d in self.points]

    def run(self, nc, state, tracer):
        calls = [(key, lambda p=pair, f=fctx: nc.current.lie_closure(p, f))
                 for key, pair, fctx in state]
        return run_ops(calls, tracer)

    def check(self, nc, state, results, expected):
        outcome = Outcome()
        _check_subspaces(results, expected, outcome)
        outcome.extra = {f"closure_s.{name}": dt for name, _, dt in results}
        return outcome


# -- closed-forms ----------------------------------------------------------------


class ClosedForms:
    """Closed-form bounds and power spaces, built without the oracle."""

    def setup(self, nc, seed, draw):
        fctx = nc.coeffalg.FreeContext(2, 5)
        return fctx, nc.pairs.pair_by_name("sp:4"), nc.pairs.pair_by_name("sl:3")

    def run(self, nc, state, tracer):
        fctx, sp, sl = state
        cur = nc.current
        calls = [
            ("sp4.tilde_bound", lambda: cur.tilde_bound(sp, fctx)),
            ("sp4.overline_bound", lambda: cur.overline_bound(sp, fctx)),
            ("sp4.type2_formula", lambda: cur.type2_formula(sp, fctx)),
            ("sp4.semisimple_closed_form", lambda: cur.semisimple_closed_form(sp, fctx)),
        ]
        for m in (2, 3, 4):
            calls.append((f"sl3.tilde_bound.m{m}", lambda m=m: cur.tilde_bound(sl, fctx, m_cap=m)))
            calls.append((f"sl3.overline_bound.m{m}",
                          lambda m=m: cur.overline_bound(sl, fctx, m_cap=m)))
        for m in (2, 3, 4):
            calls.append((f"sl3.f_langle_g_filtered.m{m}",
                          lambda m=m: cur.f_langle_g_filtered(sl, fctx, m)))
        calls.append(("sl3.tilde_power.4", lambda: sl.tilde_power(4)))
        calls.append(("sp4.tilde_power.3", lambda: sp.tilde_power(3)))
        return run_ops(calls, tracer)

    def check(self, nc, state, results, expected):
        outcome = Outcome()
        _check_subspaces(results, expected, outcome)
        return outcome


# -- cartan-battery --------------------------------------------------------------


class CartanBattery:
    """Seeded diagonals tested by criterion and by the direct normalizer test
    against a closure fixed in set-up: the read side of the engine."""

    pairs = (("sp:4", "cartan_criterion_classical"), ("sl2irrep:4", "cartan_criterion_sl2"))
    # a run is one battery split over at least this many cold instances,
    # each with diagonals of its own draw, and wall_s is their mean: host
    # speed and the cost of one draw of 80 diagonals each vary by about 10 %
    split = 3

    def setup(self, nc, seed, draw):
        fctx = nc.coeffalg.FreeContext(2, 5)
        cache = nc.current.filtration(fctx)
        out = []
        for name, crit in self.pairs:
            pair = nc.pairs.pair_by_name(name)
            closure = nc.current.lie_closure(pair, fctx)
            rng = random.Random(f"{seed}/{draw}")
            diags = nc.cli.battery_diagonals(pair, fctx, cache, rng, CARTAN_COUNT)
            out.append((name, getattr(nc.groups, crit), pair, closure, diags))
        return fctx, cache, out

    def run(self, nc, state, tracer):
        fctx, cache, per_pair = state
        calls = []
        for name, crit, pair, closure, diags in per_pair:
            for i, (kind, diag) in enumerate(diags):
                calls.append((f"{name}#{i}:{kind}", lambda c=crit, d=diag, p=pair, L=closure: (
                    c(d, cache)[0], nc.groups.in_group_direct(d, p, fctx, L).verdict)))
        return run_ops(calls, tracer)

    def check(self, nc, state, results, expected):
        outcome = Outcome()
        tally: dict[str, list[int]] = {}
        for name, result, _ in results:
            pair = name.partition("#")[0]
            if isinstance(result, Exception):
                outcome.op(name, False, f"raised {result!r}")
                continue
            crit, direct = result
            outcome.op(name, crit == direct, f"criterion {crit}, direct {direct}")
            counts = tally.setdefault(pair, [0, 0])
            counts[0 if crit else 1] += 1
        for pair, _ in self.pairs:
            pos, neg = tally.get(pair, [0, 0])
            outcome.op(f"{pair}:coverage", min(pos, neg) >= CARTAN_MIN_EACH,
                       f"{pos} in the group, {neg} outside, need {CARTAN_MIN_EACH} of each")
            outcome.outputs[pair] = [pos, neg]
        diag_ms = sorted(dt * 1000 for _, _, dt in results)
        outcome.extra = {"diag_ms": diag_ms}
        return outcome


# -- verify-all ------------------------------------------------------------------


class VerifyAll:
    """The user's command: every suite on one pair, JSON report to a file."""

    def setup(self, nc, seed, draw):
        OUT_DIR.mkdir(exist_ok=True)
        return seed, OUT_DIR / f"verify-{os.getpid()}.json"

    def argv(self, seed, path):
        return ["verify", "--suite", "all", "--pair", "sp:4", "--gens", "2", "--deg", "4",
                "--seed", str(seed), "--json", "--out", str(path)]

    def run(self, nc, state, tracer):
        seed, path = state
        return run_ops([("verify", lambda: nc.cli.main(self.argv(seed, path)))], tracer)

    def check(self, nc, state, results, expected):
        seed, path = state
        outcome = Outcome()
        (_, code, wall), = results
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            outcome.op("report", False, f"exit {code!r}, no report: {exc}")
            return outcome
        finally:
            path.unlink(missing_ok=True)
        checks = report["checks"]
        config = dict(report["config"])
        config.pop("out")
        got = {"config": text_digest(config),
               "checks": [text_digest({k: v for k, v in c.items() if k != "ms"}) for c in checks],
               "anchors": [c["anchor"] for c in checks]}
        outcome.outputs = got
        outcome.extra = {"reported_ms_frac": sum(c["ms"] for c in checks) / 1000 / wall}
        # a recorded seed must reproduce its report; any other seed, its
        # anchors and the checks that come out the same for every recorded seed
        want = expected.get("seeds", {}).get(str(seed))
        common = expected.get("common", {})
        same_checks = got["anchors"] == expected.get("anchors")
        outcome.op("command", code == 0 and same_checks
                   and (want is None or want["config"] == got["config"]), f"exit {code}")
        for i, c in enumerate(checks):
            ok = (same_checks and c["verdict"] != "fail"
                  and common.get(str(i), got["checks"][i]) == got["checks"][i]
                  and (want is None or want["checks"][i] == got["checks"][i]))
            outcome.op(c["anchor"], ok, f"verdict {c['verdict']}, {c['detail']}")
        return outcome


WORKLOADS = {
    "closure-growth": ClosureGrowth(),
    "closed-forms": ClosedForms(),
    "cartan-battery": CartanBattery(),
    "verify-all": VerifyAll(),
}

