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

from .coeffalg import FreeContext, NonUnitError, ParseError, StructureContext, parse
from . import current as cur
from .current import orthogonal_form, sl_trace_form
from . import groups as gr
# the seeded instances live in groups and are bound here for callers of cli
from .groups import (battery_diagonals, random_bracket_element, random_element,
                     random_ideal_element, random_unit, random_word_element)
from .pairs import UnsupportedError, make_orthogonal, pair_by_name
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

# the most rounds of --count diagonals a Cartan battery draws while it is
# short of either verdict
BATTERY_ROUNDS = 4


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


@dataclass
class CheckRecord:
    name: str
    anchor: str
    verdict: str  # pass | fail | vacuous | unsupported
    degrees: list = field(default_factory=list)
    budget: int | None = None
    ms: int = 0
    detail: str = ""


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
            "config": asdict(self.config),
            "checks": [asdict(c) for c in self.checks],
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
    """Record fn() as a check: a bool is pass or fail, and a (verdict,
    detail) pair is recorded as it is."""
    t0 = time.monotonic()
    try:
        result = fn()
    except UnsupportedError as exc:
        report.add(CheckRecord(name, anchor, "unsupported", ms=_ms(t0), detail=str(exc)))
        return False
    verdict, detail = result if isinstance(result, tuple) else ("pass" if result else "fail", "")
    rec = CheckRecord(name, anchor, verdict, ms=_ms(t0), detail=detail)
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


# -- suites ---------------------------------------------------------------------


def suite_filtration_identities(cfg: RunConfig, report: Report):
    kmax = lmax = 4
    fctx = cfg.coefficient_context()
    cache = cur.filtration(fctx)
    C = cache.commutator_space
    # the product ideals and their partial sums obey the same four identities
    ideals = (cache.ideal_Ikl, cache.ideal_Ik_le)
    kls = [(k, l) for k in range(1, kmax + 1) for l in range(1, lmax + 1)]
    sums = [(k, kp, l, lp) for k in range(kmax + 1) for kp in range(kmax + 1 - k)
            for l in range(1, lmax) for lp in range(1, lmax + 1 - l)]
    _timed(report, "ideal embedding, one more commutator", "filtration.embedding", lambda: all(
        I(k, l).issubset(I(k - 1, l)) for k, l in kls for I in ideals))
    _timed(report, "bracketing raises the ideal index", "filtration.bracket-raises", lambda: all(
        op_bracket(fctx, cache.base, I(k - 1, l)).issubset(I(k, l)) for k, l in kls for I in ideals))
    # the partial sums are built by their recursion: check their definition
    _timed(report, "partial-sum ideal recursion", "filtration.recursion-le", lambda: all(
        cache.ideal_Ik_le(k, l) == subspace_sum(
            fctx.ambient, [cache.ideal_Ikl(k, j) for j in range(1, l + 1)])
        for k, l in kls))
    _timed(report, "ideal products add indices", "filtration.product-additivity", lambda: all(
        op_product(fctx, I(k, l), I(kp, lp)).issubset(I(k + kp, l + lp))
        for k, kp, l, lp in sums for I in ideals))
    _timed(report, "ideal brackets collapse one factor", "filtration.bracket-additivity",
           lambda: all(op_bracket(fctx, I(k, l), I(kp, lp)).issubset(
               op_bracket(fctx, cache.base, I(k + kp, l + lp - 1)))
               for k, kp, l, lp in sums for I in ideals))
    _timed(report, "factor-count recursion", "filtration.recursion", lambda: all(
        subspace_sum(fctx.ambient, [op_product(fctx, C(i), cache.ideal_Ikl(k - i, l - 1))
                                    for i in range(k + 1)]) == cache.ideal_Ikl(k, l)
        for k in range(kmax + 1) for l in range(2, lmax + 1)))
    _timed(report, "full ideals are two-sided", "filtration.two-sided", lambda: all(
        subspace_sum(fctx.ambient, [ik, op_product(fctx, cache.base, ik),
                                    op_product(fctx, ik, cache.base)]) == ik
        for ik in map(cache.ideal_Ik, range(1, kmax + 1))))
    return report


def suite_bounds_chain(cfg: RunConfig, report: Report):
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

    for m in (2, 3, 4):
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
        _timed(report, f"{pair.name}: split strong-grading witness", "pairs.strongly-graded",
               lambda: ("pass", "") if pair.strongly_graded_witness(pair.witness_candidate)
               else ("vacuous", "candidate does not witness a strong grading"))
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
    if pair.name.startswith(("so:", "sp:")) and pair.semisimple:
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
    try:
        family = gr.diagonal_criterion(pair)[0]
    except ValueError:
        family = None
    if family != flavor:
        pair = make_orthogonal(3) if flavor == "classical" else pair_by_name(
            f"sl2irrep:{min(pair.n, 4)}" if pair.n >= 2 else "sl2irrep:3")
    vacuous = pair.n == 2
    # five of each verdict at the stock battery size, proportionally fewer
    # when the caller asks for a smaller battery
    need = min(5, max(1, cfg.count // 4))
    t0 = time.monotonic()  # the equivalence check's ms includes the closure and the battery
    cache = cur.filtration(fctx)
    rng = random.Random(cfg.seed)
    L = cur.lie_closure(pair, fctx)
    drawn = positives = negatives = 0
    mismatch = None
    # a battery short of either verdict draws further rounds from the same
    # generator, which carries on its cycle of kinds
    diagonals = gr.diagonals(pair, fctx, cache, rng)
    for _ in range(BATTERY_ROUNDS):
        battery = list(itertools.islice(diagonals, cfg.count))
        drawn += len(battery)
        for kind, crit, direct in gr.battery_verdicts(pair, fctx, cache, L, battery):
            if crit:
                positives += 1
            else:
                negatives += 1
            if crit != direct:
                mismatch = (kind, crit, direct)
                break
        if mismatch or vacuous or (positives >= need and negatives >= need):
            break
    report.add(CheckRecord(
        f"{pair.name}: criterion matches direct test on {drawn} diagonals",
        f"cartan.{flavor}.equivalence",
        "fail" if mismatch else "pass",
        ms=_ms(t0),
        budget=fctx.D,
        detail=f"{positives} positive, {negatives} negative"
        + (f", mismatch {mismatch}" if mismatch else ""),
    ))
    if not vacuous:
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


def suite_difference_calculus(cfg: RunConfig, report: Report):
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
        lambda: {ell: build_instance(ell) for ell in range(2, 5)}
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
            for k in range(3):
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
            for lowering in (False, True):
                if gr.conjugation_expansion(diag, u, lowering) != gr.expected_expansion(
                        diag, u, lowering):
                    return False
        return True

    _timed(report, "diagonal conjugation matches its signed expansion",
           "diffcalc.conjugation-expansion", expansion)

    def reading():
        if fctx.m < 2:
            raise UnsupportedError("the witness separating the two readings needs two generators")
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
        if witness["proof_reading"] and witness["statement_reading"]:
            return "vacuous", (f"both readings hold at degree {fctx.D}: the truncation drops "
                               "the degree-3 terms that separate them")
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
    if cfg.count < 1:
        raise ValueError(f"--count must be at least 1, got {cfg.count}")
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
        if cfg.m_cap is not None and cfg.m_cap < 1:
            raise ValueError(f"--m-cap must be at least 1, got {cfg.m_cap}")
        pair = pair_by_name(cfg.pair)
        pairname = pair.name
        if cfg.obj == "sl2form" and pair.key() != ("sl2irrep", pair.n):
            raise cur.TypeMismatchError(f"the sl2 module form is for sl2irrep:n, not {pair.name}")
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
    flavor, criterion = gr.diagonal_criterion(pair)
    crit, details = criterion(diag, cache)
    anchor = f"cartan.{flavor}"
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


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = RunConfig(**vars(args))  # every subparser dest is a RunConfig field
    commands = {"verify": cmd_verify, "compute": cmd_compute, "cartan": cmd_cartan}
    try:
        report = commands[cfg.command](cfg)
    except UnsupportedError as exc:  # a ValueError, so it is caught first
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ParseError, NonUnitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(report.jsonable(), indent=2) if cfg.as_json else report.to_text()
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        print(payload)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
