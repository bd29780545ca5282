"""Command-line front end: verification suites, object dumps, Cartan tests.

Every check record carries a stable anchor string naming the fact it tests,
a verdict in {pass, fail, vacuous, unsupported}, and per-degree dimension
data for equality/inclusion checks.  Reports are deterministic for a fixed
(config, seed); only the timing fields vary between runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field, asdict
from fractions import Fraction

from .coeffalg import AlgElement, FreeContext, NonUnitError, ParseError, StructureContext, parse
from .commfilt import FiltrationCache
from . import current as cur
from . import groups as gr
from .pairs import UnsupportedError, make_orthogonal, make_sl, pair_by_name
from .subspace import GradedSubspace, bracket_closed, op_bracket, op_product, subspace_sum

# suite name -> runner(cfg, report); each runner looks its suite function up
# when called, so a wrapped or patched module function is the one that runs
SUITE_RUNNERS = {
    "filtration-identities": lambda cfg, report: suite_filtration_identities(cfg, report),
    "bounds-chain": lambda cfg, report: suite_bounds_chain(cfg, report),
    "perfect-equality": lambda cfg, report: suite_perfect_equality(cfg, report),
    "closed-forms": lambda cfg, report: suite_closed_forms(cfg, report),
    "cartan-classical": lambda cfg, report: suite_cartan(cfg, report, "classical"),
    "cartan-sl2": lambda cfg, report: suite_cartan(cfg, report, "sl2"),
    "difference-calculus": lambda cfg, report: suite_difference_calculus(cfg, report),
}
SUITES = tuple(SUITE_RUNNERS)


@dataclass
class RunConfig:
    command: str = "verify"
    pair: str = "sl:2"
    gens: str = "2"
    deg: int = 4
    backend: str = "free"
    suite: str = "perfect-equality"
    obj: str = "closure"
    k: int = 1
    m_cap: int | None = None
    diag: str = ""
    seed: int = 0
    count: int = 20
    dump_basis: bool = False
    as_json: bool = False
    out: str | None = None

    def coefficient_context(self):
        if self.backend == "free":
            names = None
            try:
                m = int(self.gens)
            except ValueError:
                names = [s.strip() for s in self.gens.split(",") if s.strip()]
                m = len(names)
            return FreeContext(names if names else m, self.deg)
        kind, sep, arg = self.backend.partition(":")
        if kind == "matrix" and sep:
            return StructureContext.matrix_algebra(int(arg))
        raise ValueError(f"unknown backend {self.backend!r}")

    def jsonable(self):
        d = asdict(self)
        return d


@dataclass
class CheckRecord:
    name: str
    anchor: str
    verdict: str  # pass | fail | vacuous | unsupported
    degrees: list = field(default_factory=list)
    budget: int | None = None
    ms: int = 0
    detail: str = ""

    def jsonable(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "degrees": self.degrees,
            "budget": self.budget,
            "ms": self.ms,
            "detail": self.detail,
        }


@dataclass
class Report:
    config: RunConfig
    checks: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord):
        self.checks.append(record)

    @property
    def failed(self):
        return [c for c in self.checks if c.verdict == "fail"]

    @property
    def unsupported(self):
        return [c for c in self.checks if c.verdict == "unsupported"]

    def exit_code(self) -> int:
        if self.failed:
            return 1
        if self.unsupported:
            return 3
        return 0

    def jsonable(self):
        return {
            "version": 1,
            "config": self.config.jsonable(),
            "checks": [c.jsonable() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = {"pass": "ok", "fail": "FAIL", "vacuous": "vac", "unsupported": "UNSUP"}[c.verdict]
            line = f"[{mark:5s}] {c.name}  ({c.anchor})  {c.ms}ms"
            if c.detail:
                line += f"  {c.detail}"
            lines.append(line)
            for d in c.degrees:
                lines.append(
                    f"         degree {d['d']}: {d['dimLhs']} vs {d['dimRhs']}"
                    + ("" if d["equal"] else "  <- differs")
                )
        lines.append(
            f"{len(self.checks)} checks, {len(self.failed)} failed, "
            f"{len(self.unsupported)} unsupported"
        )
        return "\n".join(lines)


def _timed(report, name, anchor, fn, degrees_of=None):
    t0 = time.monotonic()
    try:
        result = fn()
        verdict = "pass" if result else "fail"
    except UnsupportedError as exc:
        report.add(CheckRecord(name, anchor, "unsupported", ms=_ms(t0), detail=str(exc)))
        return False
    rec = CheckRecord(name, anchor, verdict, ms=_ms(t0))
    if degrees_of is not None:
        rec.degrees = degrees_of()
    report.add(rec)
    return verdict == "pass"


def _ms(t0):
    return int((time.monotonic() - t0) * 1000)


def degree_table(lhs: GradedSubspace, rhs: GradedSubspace):
    out = []
    for (d, a), (_, b) in zip(lhs.dim_profile(), rhs.dim_profile()):
        out.append({"d": d, "dimLhs": a, "dimRhs": b, "equal": a == b})
    return out


# -- randomized instances ------------------------------------------------------


def random_word_element(fctx: FreeContext, rng: random.Random, max_degree=2, terms=2):
    out = fctx.zero()
    for _ in range(terms):
        length = rng.randint(1, max(1, max_degree))
        word = tuple(rng.randrange(fctx.m) for _ in range(length))
        coeff = rng.choice((-2, -1, 1, 2))
        out = out + AlgElement(fctx, {fctx.word_index[word]: Fraction(coeff)})
    return out


def random_element(fctx: FreeContext, rng: random.Random, max_degree=2, terms=3):
    e = random_word_element(fctx, rng, max_degree, terms)
    if rng.random() < 0.5:
        e = e + fctx.one() * rng.choice((-2, -1, 1, 2))
    return e


def random_unit(fctx: FreeContext, rng: random.Random, max_degree=2, terms=2):
    return fctx.one() + random_word_element(fctx, rng, max_degree, terms)


def random_bracket_element(fctx: FreeContext, rng: random.Random, terms=1):
    out = fctx.zero()
    gens = fctx.generators()
    for _ in range(terms):
        a = gens[rng.randrange(fctx.m)]
        b = random_word_element(fctx, rng, 1, 1)
        out = out + (a * b - b * a) * rng.choice((-1, 1))
    return out


def random_ideal_element(cache: FiltrationCache, k: int, rng: random.Random, terms=2):
    rows = list(cache.ideal_Ik(k).vectors())
    out = cache.ctx.zero()
    if not rows:
        return out
    for _ in range(terms):
        row = rows[rng.randrange(len(rows))]
        out = out + cache.ctx.element_from_vector(row) * rng.choice((-2, -1, 1, 2))
    return out


def battery_diagonals(pair, fctx, cache, rng: random.Random, count: int):
    """Seeded diagonals of the five construction kinds for the Cartan battery."""
    n = pair.n
    one = fctx.one()
    out = []
    kinds = itertools.cycle(("constant", "geometric", "bracket", "word", "solved", "word"))
    while len(out) < count:
        kind = next(kinds)
        if kind == "constant":
            f = random_unit(fctx, rng)
            fs = [f] * n
        elif kind == "geometric":
            q = Fraction(rng.choice((2, 3, -2, 5)), rng.choice((1, 1, 3)))
            fs = [one * q**i for i in range(n)]
        elif kind == "bracket":
            fs = [one + random_bracket_element(fctx, rng, terms=rng.randint(1, 2)) for _ in range(n)]
        elif kind == "word":
            # lone word perturbations: these fall outside the ideals and give
            # the battery its negative instances
            fs = [one] * n
            for pos in {rng.randrange(n) for _ in range(rng.randint(1, 2))}:
                fs[pos] = one + random_word_element(fctx, rng, max_degree=2, terms=1)
        else:  # solved: built to satisfy the respective criterion
            if pair.name.startswith("sl2irrep"):
                m1 = one + random_bracket_element(fctx, rng)
                hs = [random_ideal_element(cache, k, rng, terms=1) for k in range(1, n - 1)]
                ms = gr.solve_m_from_h(m1, hs)
                fs = [one] * n
                for i in range(n - 2, -1, -1):
                    fs[i] = ms[i] * fs[i + 1]
            else:
                fs = [one] * n
                for i in range(n // 2):
                    fi = random_unit(fctx, rng)
                    z = random_ideal_element(cache, 1, rng, terms=1)
                    fs[i] = fi
                    fs[n - 1 - i] = fi.inverse() * (one + z)
                if n % 2:
                    fs[n // 2] = one + random_ideal_element(cache, 1, rng, terms=1)
        try:
            out.append((kind, gr.DiagonalUnit(fs)))
        except NonUnitError:
            continue
    return out


# -- suites ---------------------------------------------------------------------


def suite_filtration_identities(cfg: RunConfig, report: Report, kmax=4, lmax=4):
    fctx = cfg.coefficient_context()
    cache = cur.filtration(fctx)
    C = cache.commutator_space
    _timed(report, "ideal embedding, one more commutator", "filtration.embedding", lambda: all(
        cache.ideal_Ikl(k, l).issubset(cache.ideal_Ikl(k - 1, l))
        and cache.ideal_Ik_le(k, l).issubset(cache.ideal_Ik_le(k - 1, l))
        for k in range(1, kmax + 1)
        for l in range(1, lmax + 1)
    ))
    _timed(report, "bracketing raises the ideal index", "filtration.bracket-raises", lambda: all(
        op_bracket(fctx, cache.base, cache.ideal_Ikl(k - 1, l)).issubset(cache.ideal_Ikl(k, l))
        and op_bracket(fctx, cache.base, cache.ideal_Ik_le(k - 1, l)).issubset(
            cache.ideal_Ik_le(k, l)
        )
        for k in range(1, kmax + 1)
        for l in range(1, lmax + 1)
    ))

    def embed_c():
        for k in range(1, kmax + 1):
            for l in range(1, lmax):
                lhs = cache.ideal_Ik_le(k, l + 1)
                rhs = op_product(
                    fctx, cache.base, op_bracket(fctx, cache.base, cache.ideal_Ik_le(k - 1, l))
                ).sum(op_bracket(fctx, cache.base, cache.ideal_Ik_le(k - 1, l + 1)))
                if lhs != rhs:
                    return False
        return True

    _timed(report, "partial-sum ideal recursion", "filtration.recursion-le", embed_c)

    def simple_a():
        for k in range(kmax + 1):
            for kp in range(kmax + 1 - k):
                for l in range(1, lmax):
                    for lp in range(1, lmax + 1 - l):
                        prod = op_product(fctx, cache.ideal_Ikl(k, l), cache.ideal_Ikl(kp, lp))
                        if not prod.issubset(cache.ideal_Ikl(k + kp, l + lp)):
                            return False
                        prod_le = op_product(
                            fctx, cache.ideal_Ik_le(k, l), cache.ideal_Ik_le(kp, lp)
                        )
                        if not prod_le.issubset(cache.ideal_Ik_le(k + kp, l + lp)):
                            return False
        return True

    _timed(report, "ideal products add indices", "filtration.product-additivity", simple_a)

    def simple_b():
        for k in range(kmax + 1):
            for kp in range(kmax + 1 - k):
                for l in range(1, lmax):
                    for lp in range(1, lmax + 1 - l):
                        br = op_bracket(fctx, cache.ideal_Ikl(k, l), cache.ideal_Ikl(kp, lp))
                        if not br.issubset(
                            op_bracket(fctx, cache.base, cache.ideal_Ikl(k + kp, l + lp - 1))
                        ):
                            return False
                        br_le = op_bracket(
                            fctx, cache.ideal_Ik_le(k, l), cache.ideal_Ik_le(kp, lp)
                        )
                        if not br_le.issubset(
                            op_bracket(fctx, cache.base, cache.ideal_Ik_le(k + kp, l + lp - 1))
                        ):
                            return False
        return True

    _timed(report, "ideal brackets collapse one factor", "filtration.bracket-additivity", simple_b)

    def recursion_exact():
        for k in range(kmax + 1):
            for l in range(2, lmax + 1):
                rhs = subspace_sum(
                    fctx.ambient,
                    [
                        op_product(fctx, C(i), cache.ideal_Ikl(k - i, l - 1))
                        for i in range(k + 1)
                    ],
                )
                if cache.ideal_Ikl(k, l) != rhs:
                    return False
        return True

    _timed(report, "factor-count recursion", "filtration.recursion", recursion_exact)

    def two_sided():
        for k in range(1, kmax + 1):
            ik = cache.ideal_Ik(k)
            grown = subspace_sum(
                fctx.ambient,
                [ik, op_product(fctx, cache.base, ik), op_product(fctx, ik, cache.base)],
            )
            if grown != ik:
                return False
        return True

    _timed(report, "full ideals are two-sided", "filtration.two-sided", two_sided)
    return report


def suite_bounds_chain(cfg: RunConfig, report: Report, m_caps=(2, 3, 4)):
    fctx = cfg.coefficient_context()
    pair = pair_by_name(cfg.pair)
    tctx = cur.TensorContext(fctx, pair.n)
    # built by the first check that uses them, so its ms includes the build
    L = functools.cache(lambda: cur.lie_closure(pair, fctx))
    O = functools.cache(lambda: cur.overline_bound(pair, fctx))
    T = functools.cache(lambda: cur.tilde_bound(pair, fctx))
    _timed(report, f"{pair.name}: closure inside refined bound", "bounds.chain-lower",
           lambda: L().issubset(O()), degrees_of=lambda: degree_table(L(), O()))
    _timed(report, f"{pair.name}: refined inside plain bound", "bounds.chain-upper",
           lambda: O().issubset(T()), degrees_of=lambda: degree_table(O(), T()))
    _timed(report, f"{pair.name}: plain bound bracket-closed", "bounds.tilde-closed",
           lambda: bracket_closed(tctx, T()))
    _timed(report, f"{pair.name}: refined bound bracket-closed", "bounds.overline-closed",
           lambda: bracket_closed(tctx, O()))
    _timed(report, f"{pair.name}: closure bracket-closed", "bounds.closure-closed",
           lambda: bracket_closed(tctx, L()))

    def filtered_chain(m):
        Lm = cur.lie_closure(pair, fctx, m_cap=m)
        Om = cur.overline_bound(pair, fctx, m_cap=m)
        Tm = cur.tilde_bound(pair, fctx, m_cap=m)
        Gm = cur.f_langle_g_filtered(pair, fctx, m)
        return Lm.issubset(Om) and Om.issubset(Tm) and Tm.issubset(Gm)

    for m in m_caps:
        _timed(report, f"{pair.name}: filtered chain at depth {m}", "bounds.filtered-chain",
               lambda m=m: filtered_chain(m))
    return report


def suite_perfect_equality(cfg: RunConfig, report: Report):
    fctx = cfg.coefficient_context()
    pair = pair_by_name(cfg.pair)
    _timed(report, f"{pair.name}: power recursion is perfect", "pairs.perfect",
           lambda: pair.is_perfect()[0])
    if pair.witness_candidate is not None:
        # the witness is a sufficient condition only, so a negative outcome is
        # recorded as vacuous rather than as a failure
        t0 = time.monotonic()
        try:
            witnessed = pair.strongly_graded_witness(pair.witness_candidate)
            verdict = "pass" if witnessed else "vacuous"
            detail = "" if witnessed else "candidate does not witness a strong grading"
        except UnsupportedError as exc:
            verdict, detail = "unsupported", str(exc)
        report.add(CheckRecord(
            f"{pair.name}: split strong-grading witness", "pairs.strongly-graded",
            verdict, ms=_ms(t0), detail=detail,
        ))
    L = functools.cache(lambda: cur.lie_closure(pair, fctx))
    T = functools.cache(lambda: cur.tilde_bound(pair, fctx))
    _timed(report, f"{pair.name}: closure equals plain bound", "perfect.equality",
           lambda: L() == T(), degrees_of=lambda: degree_table(L(), T()))
    return report


def suite_closed_forms(cfg: RunConfig, report: Report):
    fctx = cfg.coefficient_context()
    pair = pair_by_name(cfg.pair)
    L = functools.cache(lambda: cur.lie_closure(pair, fctx))
    recorded = len(report.checks)

    def equals_closure(name, anchor, build):
        # the check's ms includes building the form (and the closure, the first time)
        S = functools.cache(build)
        _timed(report, f"{pair.name}: {name}", anchor,
               lambda: S() == L(), degrees_of=lambda: degree_table(S(), L()))

    if pair.pair_type() == 2:
        equals_closure("type-2 span formula", "closed.type2",
                       lambda: cur.type2_formula(pair, fctx))
    if pair.name.startswith("sl:"):
        equals_closure("trace-in-commutators form", "closed.sl-trace",
                       lambda: sl_trace_form(pair, fctx))
    if pair.name.startswith(("so:", "sp:")):
        equals_closure("orthogonal/symplectic form", "closed.orthogonal",
                       lambda: orthogonal_form(pair, fctx))
    if pair.bracket_power(1).is_zero():
        equals_closure("abelian graded form", "closed.abelian",
                       lambda: cur.abelian_closure_form(pair, fctx))
    if pair.semisimple:
        equals_closure("enveloping-center form", "closed.semisimple-center",
                       lambda: cur.semisimple_closed_form(pair, fctx))
    if pair.name.startswith("sl2irrep:"):
        equals_closure("weight-module form", "closed.sl2-module",
                       lambda: cur.sl2_closed_form(pair.n, fctx))
    if len(report.checks) == recorded:
        report.add(CheckRecord(f"{pair.name}: no closed form applies", "closed.none",
                               "unsupported", detail=f"no closed form of the closure covers {pair.name}"))
    return report


def sl_trace_form(pair, fctx):
    """F' (x) 1 + F (x) sl, the trace-characterized span."""
    from .pairs import mat_identity, span_of_matrices

    tctx = cur.TensorContext(fctx, pair.n)
    cache = cur.filtration(fctx)
    one_span = span_of_matrices(pair.n, [mat_identity(pair.n)])
    return cur.f_dot_g(pair, fctx).sum(
        cur.tensor_product_span(tctx, cache.commutator_space(1), one_span)
    )


def orthogonal_form(pair, fctx):
    """F (x) g + F' (x) 1 + (FF' + F') (x) sl for a nondegenerate form."""
    from .pairs import mat_identity, make_sl, span_of_matrices

    tctx = cur.TensorContext(fctx, pair.n)
    cache = cur.filtration(fctx)
    fprime = cache.commutator_space(1)
    ffp = op_product(fctx, fctx.full_subspace(), fprime).sum(fprime)
    one_span = span_of_matrices(pair.n, [mat_identity(pair.n)])
    sl_span = make_sl(pair.n).g
    return subspace_sum(
        tctx.ambient,
        [
            cur.f_dot_g(pair, fctx),
            cur.tensor_product_span(tctx, fprime, one_span),
            cur.tensor_product_span(tctx, ffp, sl_span),
        ],
    )


def _free_only(report: Report, fctx, suite: str, anchor: str) -> bool:
    """Record the suite as unsupported unless the coefficients are a truncated
    free algebra, whose words and degrees its seeded instances are drawn from."""
    if fctx.is_free:
        return False
    report.add(CheckRecord(f"{suite} needs a free coefficient context", anchor, "unsupported",
                           detail=f"{fctx!r} is not a truncated free algebra"))
    return True


def suite_cartan(cfg: RunConfig, report: Report, flavor: str):
    fctx = cfg.coefficient_context()
    if _free_only(report, fctx, f"cartan-{flavor}", f"cartan.{flavor}"):
        return report
    pair = pair_by_name(cfg.pair)
    # each criterion is a statement about its own family of pairs
    if flavor == "classical" and not pair.name.startswith(("so:", "sp:")):
        pair = make_orthogonal(3)
    if flavor == "sl2" and not pair.name.startswith("sl2irrep:"):
        pair = pair_by_name(f"sl2irrep:{min(pair.n, 4)}" if pair.n >= 2 else "sl2irrep:3")
    t0 = time.monotonic()  # the equivalence check's ms includes the closure and the battery
    cache = cur.filtration(fctx)
    rng = random.Random(cfg.seed)
    L = cur.lie_closure(pair, fctx)
    diagonals = battery_diagonals(pair, fctx, cache, rng, cfg.count)
    positives = negatives = 0
    agree = True
    mismatch = None
    for kind, diag in diagonals:
        if flavor == "classical":
            crit, _ = gr.cartan_criterion_classical(diag, cache)
        else:
            crit, _ = gr.cartan_criterion_sl2(diag, cache)
        direct = gr.in_group_direct(diag, pair, fctx, L)
        if crit:
            positives += 1
        else:
            negatives += 1
        if crit != direct.verdict:
            agree = False
            mismatch = (kind, crit, direct.verdict)
            break
    rec = CheckRecord(
        f"{pair.name}: criterion matches direct test on {len(diagonals)} diagonals",
        f"cartan.{flavor}.equivalence",
        "pass" if agree else "fail",
        ms=_ms(t0),
        budget=fctx.D,
        detail=f"{positives} positive, {negatives} negative"
        + (f", mismatch {mismatch}" if mismatch else ""),
    )
    report.add(rec)
    vacuous = flavor == "sl2" and pair.n == 2
    if not vacuous:
        # five of each verdict at the stock battery size, proportionally
        # fewer when the caller asks for a smaller battery
        need = min(5, max(1, cfg.count // 4))
        report.add(
            CheckRecord(
                f"{pair.name}: battery hits both verdicts",
                f"cartan.{flavor}.coverage",
                "pass" if (positives >= need and negatives >= need) else "fail",
                detail=f"{positives}/{negatives}, need {need} of each",
            )
        )
    else:
        report.add(
            CheckRecord(
                f"{pair.name}: criterion range empty, every diagonal belongs",
                f"cartan.{flavor}.coverage",
                "vacuous" if negatives == 0 else "fail",
            )
        )
    return report


def suite_difference_calculus(cfg: RunConfig, report: Report, ell_max=4, k_max=2):
    fctx = cfg.coefficient_context()
    if _free_only(report, fctx, "difference-calculus", "diffcalc"):
        return report
    cache = cur.filtration(fctx)
    rng = random.Random(cfg.seed)
    one = fctx.one()

    def build_instance(ell):
        m1 = one + random_bracket_element(fctx, rng)
        hs = [random_ideal_element(cache, k, rng, terms=1) for k in range(1, ell)]
        return gr.solve_m_from_h(m1, hs)

    # built by the first check, so its ms includes them; they draw from rng
    # before any later check does
    instances = functools.cache(
        lambda: {ell: build_instance(ell) for ell in range(2, ell_max + 1)}
    )

    _timed(report, "difference tables satisfy the two-term recursion",
           "diffcalc.table-recursion",
           lambda: all(gr.DifferenceTable(ms).verify_recursion() for ms in instances().values()))
    _timed(report, "solved instances have fully member tables",
           "diffcalc.table-membership",
           lambda: all(gr.DifferenceTable(ms).all_member(cache) for ms in instances().values()))
    _timed(report, "inverted sequences keep the memberships",
           "diffcalc.inverse-table",
           lambda: all(
               gr.inverse_table_check(ms, cache)["equivalent"] for ms in instances().values()
           ))

    def homogeneity():
        for ell, ms in instances().items():
            for k in range(0, k_max + 1):
                a, b = gr.homogeneity_check_dij(ms, 1, ell, k, cache)
                if not (a and b):
                    return False
        return True

    _timed(report, "difference operators are homogeneous", "diffcalc.operator-degrees",
           homogeneity)

    def expansion():
        for n in (3, 4):
            fs = [random_unit(fctx, rng, max_degree=1, terms=1) for _ in range(n)]
            diag = gr.DiagonalUnit(fs)
            u = random_element(fctx, rng, max_degree=1, terms=1)
            if gr.conjugation_expansion(diag, u) != gr.expected_expansion(diag, u):
                return False
            if gr.conjugation_expansion(diag, u, lowering=True) != gr.expected_expansion(
                diag, u, lowering=True
            ):
                return False
        return True

    _timed(report, "diagonal conjugation matches its signed expansion",
           "diffcalc.conjugation-expansion", expansion)

    def reading():
        # the identity itself, on random instances and spans
        for _ in range(4):
            fs = [random_unit(fctx, rng, max_degree=1, terms=1) for _ in range(4)]
            u = random_element(fctx, rng, max_degree=1, terms=1)
            i = rng.randint(1, 3)
            j = rng.randint(i, 3)
            if not gr.from_delta_to_d_check(fs, u, i, j)["proof_reading"]:
                return False
        # a decisive witness separating the two candidate twists
        x, y = fctx.generators()[:2]
        witness = gr.from_delta_to_d_check([one + x, one, one + y, one + x + y], x, 1, 2)
        return witness["proof_reading"] and not witness["statement_reading"]

    _timed(report, "staircase identity pins the shifted twist", "diffcalc.reading-pin",
           reading)
    return report


def run_suite(name: str, cfg: RunConfig, report: Report | None = None) -> Report:
    if name not in SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}")
    return SUITE_RUNNERS[name](cfg, report or Report(cfg))


# -- commands --------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> Report:
    report = Report(cfg)
    names = SUITES if cfg.suite == "all" else tuple(s.strip() for s in cfg.suite.split(","))
    for name in names:
        run_suite(name, cfg, report)
    return report


def cmd_compute(cfg: RunConfig) -> Report:
    report = Report(cfg)
    fctx = cfg.coefficient_context()
    t0 = time.monotonic()
    if cfg.obj in ("ideal", "commutator-space"):
        cache = cur.filtration(fctx)
        space = (
            cache.ideal_Ik(cfg.k) if cfg.obj == "ideal" else cache.commutator_space(cfg.k)
        )
        pairname = "-"
    else:
        pair = pair_by_name(cfg.pair)
        pairname = pair.name
        builders = {
            "closure": lambda: cur.lie_closure(pair, fctx, m_cap=cfg.m_cap),
            "tilde": lambda: cur.tilde_bound(pair, fctx, m_cap=cfg.m_cap),
            "overline": lambda: cur.overline_bound(pair, fctx, m_cap=cfg.m_cap),
            "sl2form": lambda: cur.sl2_closed_form(pair.n, fctx),
            "type2": lambda: cur.type2_formula(pair, fctx),
            "semisimple": lambda: cur.semisimple_closed_form(pair, fctx),
        }
        if cfg.obj not in builders:
            raise ValueError(f"unknown object {cfg.obj!r}")
        space = builders[cfg.obj]()
    rec = CheckRecord(
        f"{cfg.obj} for {pairname}",
        f"compute.{cfg.obj}",
        "pass",
        ms=_ms(t0),
        degrees=[{"d": d, "dimLhs": dim, "dimRhs": dim, "equal": True}
                 for d, dim in space.dim_profile()],
        detail=f"total dim {space.dim}",
    )
    if cfg.dump_basis:
        rec.detail += " " + json.dumps(space.to_jsonable())
    report.add(rec)
    return report


def cmd_cartan(cfg: RunConfig) -> Report:
    report = Report(cfg)
    fctx = cfg.coefficient_context()
    if not fctx.is_free:
        raise UnsupportedError(f"the diagonal criteria need a truncated free algebra, not {fctx!r}")
    pair = pair_by_name(cfg.pair)
    cache = cur.filtration(fctx)
    entries = [s.strip() for s in cfg.diag.split(";")]
    if len(entries) != pair.n:
        raise ValueError(f"need {pair.n} diagonal entries, got {len(entries)}")
    fs = [parse(s, fctx, allow_brackets=True) for s in entries]
    diag = gr.DiagonalUnit(fs)
    t0 = time.monotonic()
    if pair.name.startswith("sl2irrep:"):
        crit, details = gr.cartan_criterion_sl2(diag, cache)
        anchor = "cartan.sl2"
    elif pair.name.startswith(("so:", "sp:")):
        crit, details = gr.cartan_criterion_classical(diag, cache)
        anchor = "cartan.classical"
    else:
        raise ValueError(
            f"no diagonal criterion for {pair.name}; use so:n, sp:2m or sl2irrep:n"
        )
    direct = gr.in_group_direct(diag, pair, fctx)
    report.add(
        CheckRecord(
            f"{pair.name}: diagonal criterion",
            anchor,
            "pass" if crit else "fail",
            ms=_ms(t0),
            budget=direct.budget,
            detail=f"criterion={crit} direct={direct.verdict} conditions={details}",
        )
    )
    report.add(
        CheckRecord(
            f"{pair.name}: criterion agrees with direct test",
            anchor + ".equivalence",
            "pass" if crit == direct.verdict else "fail",
            budget=direct.budget,
        )
    )
    return report


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nclie",
        description="Exact computations with current Lie algebras over "
        "noncommutative coefficient rings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--pair", default="sl:2", help="pair name, e.g. sl:3 so:3 sp:4 sl2irrep:3 jordan:3")
        sp.add_argument("--gens", default="2", help="generator count or comma-separated names")
        sp.add_argument("--deg", type=int, default=4, help="truncation degree of the free backend")
        sp.add_argument("--backend", default="free", help="free | matrix:n")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true", dest="as_json")
        sp.add_argument("--out", default=None, help="write the report to a file")

    v = sub.add_parser("verify", help="run verification suites")
    common(v)
    v.add_argument("--suite", default="all", help=f"comma list from {', '.join(SUITES)} or 'all'")
    v.add_argument("--count", type=int, default=20, help="battery size for the cartan suites")

    c = sub.add_parser("compute", help="dump dimension data for one object")
    common(c)
    c.add_argument("--object", dest="obj", default="closure",
                   help="closure | tilde | overline | sl2form | type2 | semisimple | ideal | commutator-space")
    c.add_argument("--k", type=int, default=1, help="index for ideal/commutator-space")
    c.add_argument("--m-cap", type=int, default=None, dest="m_cap")
    c.add_argument("--dump-basis", action="store_true", dest="dump_basis")

    g = sub.add_parser("cartan", help="evaluate one diagonal against the criteria")
    common(g)
    g.add_argument("--diag", required=True, help="semicolon-separated unit entries, [a,b] allowed")
    return p


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("pair", "gens", "deg", "backend", "seed", "as_json", "out",
                 "suite", "count", "obj", "k", "m_cap", "dump_basis", "diag"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if cfg.command == "verify":
            report = cmd_verify(cfg)
        elif cfg.command == "compute":
            report = cmd_compute(cfg)
        else:
            report = cmd_cartan(cfg)
    except UnsupportedError as exc:  # a ValueError, so it is caught first
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ParseError, NonUnitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(report.jsonable(), indent=2) if cfg.as_json else report.to_text()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
