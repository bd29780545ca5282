"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Patch, Target, Tracer  # noqa: E402

from nclie import FreeContext, current, pair_by_name  # noqa: E402
from nclie.subspace import GradedSubspace  # noqa: E402


def small_closure():
    return current.bracket_saturate(
        current.TensorContext(FreeContext(2, 3), 2),
        current.fg_generator_vectors(pair_by_name("sl:2"), current.TensorContext(FreeContext(2, 3), 2)),
    )


def drop_last_row(sub):
    """A copy of `sub` with the last row of its largest block removed."""
    rows, pivots = list(sub._rows), list(sub._pivots)
    bi = max(range(len(rows)), key=lambda i: 0 if rows[i] is None else rows[i].shape[0])
    rows[bi], pivots[bi] = rows[bi][:-1], pivots[bi][:-1]
    return GradedSubspace(sub.ambient, tuple(rows), tuple(pivots))


def test_digest_check_flags_a_dropped_row():
    sub = small_closure()
    expected = {"closure": workloads.digest(sub)}
    good = workloads.Outcome()
    workloads._check_subspaces([("closure", sub, 0.0)], expected, good)
    assert good.failed == 0
    bad = workloads.Outcome()
    workloads._check_subspaces([("closure", drop_last_row(sub), 0.0)], expected, bad)
    assert bad.failed == 1
    crashed = workloads.Outcome()
    workloads._check_subspaces([("closure", ValueError("boom"), 0.0)], expected, crashed)
    assert crashed.failed == 1


def test_self_time_on_a_synthetic_nested_call():
    clock = types.SimpleNamespace(now=0.0)

    def tick(dt):
        clock.now += dt

    mod = types.ModuleType("synthetic")

    def inner():
        tick(5)

    def outer(depth=0):
        tick(1)
        mod.inner()
        tick(2)
        if depth == 0:
            mod.outer(1)   # nested call of the same group: one outermost span
        mod.inner()
        tick(3)

    mod.inner, mod.outer = inner, outer
    tracer = Tracer(clock=lambda: clock.now)
    with Patch(tracer, [Target(mod, "outer", "a"), Target(mod, "inner", "b")], [mod]):
        mod.outer()
    assert mod.outer is outer and mod.inner is inner
    totals = tracer.group_totals()
    # the nested outer lasts 1+5+2+5+3 = 16, 6 of it its own
    assert totals["a"] == {"calls": 1, "self_s": 12.0, "incl_s": 32.0}
    assert totals["b"] == {"calls": 4, "self_s": 20.0, "incl_s": 20.0}
    assert len(tracer) == 6


def bindings():
    out = {}
    for ns in layers.namespaces():
        for name, value in vars(ns).items():
            out[(ns.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("nclie"):
                for attr, member in vars(value).items():
                    out[(ns.__name__, name, attr)] = member
    return out


def test_tracer_patches_every_binding_and_restores_all():
    from nclie import coeffalg, groups

    targets = layers.targets()   # imports every traced module first
    before = bindings()
    originals = {id(vars(t.owner)[t.attr] if isinstance(t.owner, type) else getattr(t.owner, t.attr))
                 for t in targets}
    tracer = Tracer()
    with Patch(tracer, targets, layers.namespaces()):
        during = bindings()
        assert not [key for key, value in during.items() if id(value) in originals]
        assert groups.mul is not coeffalg.mul.__traced__
        fctx = FreeContext(2, 2)
        x, y = fctx.generators()
        groups.mul(x, y)
        x * y
    assert tracer.group_totals()["coeffalg.mul"]["calls"] == 2
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_refuses_a_double_wrap():
    mod = types.ModuleType("synthetic")
    mod.f = lambda: None
    tracer = Tracer()
    original = mod.f
    with Patch(tracer, [Target(mod, "f", "a")], [mod]):
        with pytest.raises(RuntimeError):
            with Patch(tracer, [Target(mod, "f", "a")], [mod]):
                pass
    assert mod.f is original


def test_a_warm_memo_is_refused():
    workloads.require_cold(current)
    current._closure_memo[("warm",)] = object()
    try:
        with pytest.raises(workloads.WarmStateError):
            workloads.require_cold(current)
    finally:
        del current._closure_memo[("warm",)]


def test_an_unrecorded_seed_is_checked_against_the_common_digests(tmp_path):
    def check(detail):
        checks = [{"anchor": "a", "verdict": "pass", "detail": detail, "ms": 1.0},
                  {"anchor": "b", "verdict": "pass", "detail": "seeded", "ms": 2.0}]
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"config": {"seed": 1234, "out": str(path)}, "checks": checks}))
        return workloads.VerifyAll().check(None, (1234, path), [("verify", 0, 1.0)], expected)

    same = workloads.text_digest({"anchor": "a", "verdict": "pass", "detail": "dims 1,2"})
    expected = {"anchors": ["a", "b"], "common": {"0": same}, "seeds": {}}
    assert check("dims 1,2").failed == 0
    assert check("dims 1,3").failed == 1


def test_wall_s_is_a_median_unless_the_instances_split_one_input():
    import run

    plain = [{"wall_s": w, "setup_s": 1.0, "peak_rss_mb": 50.0} for w in (6.0, 7.0, 11.0)]
    assert run.end_to_end("verify-all", plain, [])["wall_s"] == 7.0
    assert run.end_to_end("cartan-battery", plain, [])["wall_s"] == 8.0
