"""Acceptance suite: every criterion at its stated size and tolerance.

All checks are exact (rational arithmetic, subspace equalities); the stated
runtime ceilings are asserted.  One pass/fail line is printed per criterion
(visible with pytest -s).
"""

import inspect
import random
import time
from fractions import Fraction

import conftest

import nclie.current as cur
from nclie.cli import RunConfig, orthogonal_form, run_suite, sl_trace_form
from nclie.coeffalg import AlgElement, FreeContext, StructureContext, commutator, mul
from nclie.commfilt import FiltrationCache, _next_ideal, _next_sums
from nclie.current import (
    abelian_closure_form,
    filtration,
    lie_closure,
    overline_bound,
    semisimple_closed_form,
    simple_coefficients_form,
    sl2_closed_form,
    sl2_module_span,
    tilde_bound,
    type2_formula,
)
from nclie.pairs import (
    make_gl,
    make_orthogonal,
    make_sl,
    make_symplectic,
    sl2_irrep_matrices,
)
CHAIN_PAIRS = ("sl:2", "sl:3", "so:3", "sp:4", "sl2irrep:3", "jordan:3")
PERFECT_PAIRS = ("sl:2", "sl:3", "so:3", "sp:4", "sl2irrep:2", "sl2irrep:3", "sl2irrep:4")


def report_line(num, ok, label, elapsed):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {label} ({elapsed:.1f}s)"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, label


def run_clean(name, cfg):
    report = run_suite(name, cfg)
    return not report.failed, report


def test_criterion_1_filtration_identities():
    t0 = time.monotonic()
    cfg = RunConfig(gens="2", deg=5)
    ok, report = run_clean("filtration-identities", cfg)
    elapsed = time.monotonic() - t0
    report_line(1, ok and elapsed < 10.0, "filtration identities, two generators at degree five", elapsed)


def test_criterion_2_jacobi_leibniz():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for ctx in (FreeContext(2, 4), StructureContext.matrix_algebra(2)):
        for _ in range(100):
            a, b, c = (
                AlgElement(
                    ctx,
                    {rng.randrange(ctx.ambient.dim): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(3)},
                )
                for _ in range(3)
            )
            residue = (
                commutator(mul(a, b), c)
                + commutator(mul(b, c), a)
                + commutator(mul(c, a), b)
            )
            ok = ok and residue.is_zero()
    report_line(2, ok, "cyclic product-commutator identity, 100 triples per backend", time.monotonic() - t0)


def test_criterion_3_bounds_chain():
    t0 = time.monotonic()
    ok = True
    for pair in CHAIN_PAIRS:
        cfg = RunConfig(pair=pair, gens="2", deg=4)
        good, _ = run_clean("bounds-chain", cfg)
        ok = ok and good
    elapsed = time.monotonic() - t0
    report_line(3, ok and elapsed < 60.0, "bound chain, closedness and filtered chain on six pairs", elapsed)


def test_criterion_4_perfect_equality():
    t0 = time.monotonic()
    ok = True
    for pair in PERFECT_PAIRS:
        cfg = RunConfig(pair=pair, gens="2", deg=4)
        good, _ = run_clean("perfect-equality", cfg)
        ok = ok and good
    report_line(4, ok, "closure equals the plain bound on every perfect pair", time.monotonic() - t0)


def test_criterion_5_closed_forms():
    t0 = time.monotonic()
    ok = True
    for pair in ("sl:2", "sl:3", "so:3", "sp:4", "sl2irrep:2", "sl2irrep:3",
                 "sl2irrep:4", "jordan:3"):
        cfg = RunConfig(pair=pair, gens="2", deg=4)
        good, _ = run_clean("closed-forms", cfg)
        ok = ok and good
    # matrix-coefficient backend: simple coefficients collapse the ideals
    m2 = StructureContext.matrix_algebra(2)
    sl2 = make_sl(2)
    ok = ok and lie_closure(sl2, m2) == simple_coefficients_form(sl2, m2)
    ok = ok and filtration(m2).ideal_Ik(1) == m2.full_subspace()
    report_line(5, ok, "every closed form coincides with the saturation oracle", time.monotonic() - t0)


def test_criterion_6_structural_constants():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        ok = ok and make_gl(n).pair_type() == 1
    for n in (2, 3, 4, 5):
        ok = ok and make_sl(n).pair_type() == 2
    ok = ok and make_orthogonal(3).pair_type() == 2
    ok = ok and make_orthogonal(4).pair_type() == 2
    ok = ok and make_symplectic(4).pair_type() == 2
    for n in (2, 3, 4, 5):
        total = 1 + sum(sl2_module_span(n, k).dim for k in range(1, n))
        ok = ok and total == n * n
        e, f, h = sl2_irrep_matrices(n)
        cas = e * f * 2 + f * e * 2 + h * h
        ok = ok and cas == e.ctx.one() * (n * n - 1)
    report_line(6, ok, "pair types, module dimensions and the quadratic invariant", time.monotonic() - t0)


def test_criterion_7_cartan_battery():
    t0 = time.monotonic()
    ok = True
    for pair in ("so:3", "so:4", "sp:4"):
        cfg = RunConfig(pair=pair, gens="2", deg=4, seed=7, count=20)
        good, _ = run_clean("cartan-classical", cfg)
        ok = ok and good
    for pair in ("sl2irrep:2", "sl2irrep:3", "sl2irrep:4"):
        cfg = RunConfig(pair=pair, gens="2", deg=4, seed=7, count=20)
        good, _ = run_clean("cartan-sl2", cfg)
        ok = ok and good
    elapsed = time.monotonic() - t0
    report_line(7, ok and elapsed < 120.0, "diagonal criteria match the direct test on seeded batteries", elapsed)


def test_criterion_8_difference_calculus():
    t0 = time.monotonic()
    cfg = RunConfig(gens="2", deg=4, seed=0)
    ok, _ = run_clean("difference-calculus", cfg)
    report_line(8, ok, "difference-derivative calculus, homogeneity and pinned reading", time.monotonic() - t0)


def test_criterion_9_oracle_independence(monkeypatch):
    t0 = time.monotonic()
    # structural half: the closed forms and the helpers they call never call
    # the saturation engine, and the engine never reads the power spaces the
    # closed forms are built from; the whole filtration cache is scanned,
    # the steps of its chains included
    closed_forms = (
        tilde_bound, overline_bound, type2_formula, semisimple_closed_form,
        sl2_closed_form, abelian_closure_form, simple_coefficients_form,
        sl_trace_form, orthogonal_form, cur.f_langle_g_filtered, cur.kron_sum,
        cur._undominated, cur._ideal_step, cur._series, cur.filtration,
        cur.tensor_product_span, cur.identity_span, sl2_module_span,
        FiltrationCache, _next_ideal, _next_sums,
    )
    ok = True
    for fn in closed_forms:
        src = inspect.getsource(fn)
        ok = ok and "bracket_saturate" not in src and "lie_closure" not in src
    for fn in (cur.lie_closure, cur.fg_generator_vectors):
        src = inspect.getsource(fn)
        ok = ok and "g_power" not in src and "bracket_power" not in src

    # mutation half: shifting one ideal subscript in the bound must flip the
    # perfect-equality verdict
    fctx = FreeContext(2, 3)
    sl2 = make_sl(2)
    baseline = tilde_bound(sl2, fctx) == lie_closure(sl2, fctx)
    ideal = FiltrationCache.ideal_Ik
    monkeypatch.setattr(FiltrationCache, "ideal_Ik", lambda cache, k: ideal(cache, k + 1))
    mutated = tilde_bound(sl2, fctx) == lie_closure(sl2, fctx)
    monkeypatch.undo()
    restored = tilde_bound(sl2, fctx) == lie_closure(sl2, fctx)
    ok = ok and baseline and not mutated and restored
    report_line(9, ok, "closed forms are independent of the oracle and mutation-sensitive", time.monotonic() - t0)
