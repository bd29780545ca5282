"""Membership machinery for the groups acting on current Lie algebras.

Covers conjugation by units of F (x) M_n, the direct normalizer test on a
generating battery, the diagonal (Cartan) membership criteria for the
classical and sl2-irrep pairs, the noncommutative difference-derivative
calculus behind the sl2 criterion, elementary unipotent generators, and a
probe for the conjectural characterization by conjugated generators.

The Cartan battery lives here too: seeded diagonals of five construction
kinds (`diagonals`), the criterion of each pair family
(`diagonal_criterion`) and the criterion-against-direct verdicts
(`battery_verdicts`) that `nclie verify` and scripts/cartan_battery.py
compare.

The direct test (`in_group_direct`) reads conjugation as a linear map: the
conjugates g (w (x) s) g^(-1) of every word w and every s in the g basis are
tested at once, per degree block of the closure, by integer matrix products
of the left and right multiplication matrices of the entries of g and
g^(-1) (coeffalg.multiplication_matrix) with the block's nullspace, in
subspace.exact_product (float64 BLAS when exact, then int64, then big
integers); no element is built per conjugate.

All verdicts are exact statements about the truncated coefficient algebra,
which is itself a unital associative algebra, so the criteria apply to it
verbatim and the full word range up to the truncation degree is decidable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffalg import (
    AlgElement,
    ContextMismatchError,
    FreeContext,
    NonUnitError,
    StructureContext,
    inverse,
    mul,
    multiplication_matrix,
)
from .commfilt import FiltrationCache
from .current import TensorContext, lie_closure, tensor_mul
from .pairs import CompatiblePair, sl2_irrep_matrices
from .subspace import (Chain, GradedSubspace, abs_max, clear_denominators, exact_product,
                       int_matrix, op_product)


class BudgetExhaustedError(ValueError):
    pass


class PremiseViolatedError(ValueError):
    def __init__(self, failures):
        super().__init__(f"difference-table memberships fail at {failures}")
        self.failures = failures


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


def difference_derivative(ms) -> AlgElement:
    """Alternating binomial combination of a sequence of l+1 elements."""
    ms = list(ms)
    if not ms:
        raise ValueError("need at least one element")
    ell = len(ms) - 1
    out = ms[0].ctx.zero()
    for k, m in enumerate(ms):
        out = out + m * ((-1) ** k * binomial(ell, k))
    return out


def in_ideal(elem: AlgElement, cache: FiltrationCache, k: int) -> bool:
    """Membership in the k-th commutator ideal; the zeroth is everything."""
    if k == 0:
        return True
    return cache.ideal_Ik(k).contains_vector(elem.to_vector())


class DifferenceTable:
    """Triangular table of iterated difference derivatives of a sequence.

    entry(i, j) with 1 <= i <= j is built by the two-term recursion from the
    previous column, so entry(i, i) is the i-th element itself.
    """

    def __init__(self, ms):
        self.ms = list(ms)
        self.ell = len(self.ms)
        self._table: dict[tuple[int, int], AlgElement] = {}
        for i, m in enumerate(self.ms, start=1):
            self._table[(i, i)] = m
        for j in range(2, self.ell + 1):
            for i in range(j - 1, 0, -1):
                self._table[(i, j)] = self._table[(i, j - 1)] - self._table[(i + 1, j)]

    def entry(self, i: int, j: int) -> AlgElement:
        return self._table[(i, j)]

    def verify_recursion(self) -> bool:
        """Cross-check the table against the direct binomial formula."""
        for (i, j), val in self._table.items():
            if val != difference_derivative(self.ms[i - 1 : j]):
                return False
        return True

    def memberships(self, cache: FiltrationCache) -> dict[tuple[int, int], bool]:
        return {
            (i, j): in_ideal(self.entry(i, j), cache, j - i)
            for j in range(1, self.ell + 1)
            for i in range(1, j)
        }

    def all_member(self, cache: FiltrationCache) -> bool:
        return all(self.memberships(cache).values())

    @staticmethod
    def starred(ms) -> "DifferenceTable":
        return DifferenceTable([inverse(m) for m in ms])


class DiagonalUnit:
    """diag(f_1, ..., f_n) with every entry a unit of the coefficient algebra."""

    def __init__(self, fs):
        self.fs = list(fs)
        if not self.fs:
            raise ValueError("empty diagonal")
        self.ctx = self.fs[0].ctx
        self.inv = [inverse(f) for f in self.fs]  # raises NonUnitError if not units
        self.n = len(self.fs)

    def to_tensor(self, tctx: TensorContext) -> AlgElement:
        out = tctx.zero()
        for i, f in enumerate(self.fs):
            out = out + tctx.pure(f, tctx.mctx.basis_element(i * (self.n + 1)))
        return out

    def conjugate(self, x: AlgElement) -> AlgElement:
        """Entrywise f_i x_ij f_j^(-1), exact and cheap for diagonals."""
        n, nn = x.ctx.n, x.ctx.nn
        if n != self.n:
            raise ValueError("size mismatch")
        out: dict[int, Fraction] = {}
        entries = x.ctx.to_matrix(x)
        for i in range(n):
            for j in range(n):
                if entries[i][j].is_zero():
                    continue
                conj = mul(mul(self.fs[i], entries[i][j]), self.inv[j])
                for fi, c in conj.coeffs.items():
                    k = x.ctx.flat(fi, i * n + j)
                    out[k] = out.get(k, Fraction(0)) + c
        return AlgElement(x.ctx, out)

    def cartan_ratios(self) -> list[AlgElement]:
        """The successive ratios f_i f_(i+1)^(-1) feeding the sl2 criterion."""
        return [mul(self.fs[i], self.inv[i + 1]) for i in range(self.n - 1)]


def conjugate(g, x: AlgElement) -> AlgElement:
    """g x g^(-1), exact in the truncated algebra."""
    if isinstance(g, DiagonalUnit):
        return g.conjugate(x)
    ginv = g.inverse()
    return tensor_mul(tensor_mul(g, x), ginv)


@dataclass
class MembershipReport:
    verdict: bool
    budget: int
    checked: int
    failure: tuple[str, int] | None = None


def in_group_direct(g, pair: CompatiblePair, fctx, L: GradedSubspace | None = None,
                    max_word_degree: int | None = None) -> MembershipReport:
    """Normalizer test: conjugates of w (x) s must stay inside the closure
    for every basis word w up to the budget and every s in the g basis.

    The truncated coefficient algebra is an honest unital algebra, so with
    the default budget (every word of the context) the verdict is the exact
    group-membership statement for it.  A caller-supplied smaller budget
    restricts the words tested; a negative budget leaves nothing testable.

    Conjugation is linear, so every conjugate is tested at once, per degree
    block of the closure, with integer matrix products.  With g = sum g_ik
    (x) E_ik and g^(-1) = sum h_lj (x) E_lj,

        g (w (x) s) g^(-1) = sum_ij (sum_kl s_kl g_ik w h_lj) (x) E_ij,

    and g_ik w h_lj is row w of Lmat(g_ik) @ Rmat(h_lj), the matrices of left
    and right multiplication on F.  The conjugate lies in block b of the
    closure iff its block-b part is killed by the nullspace N of that block;
    the rows of N for the unit E_ij are N_ij = N[i*n + j :: n^2].  So with

        Q_il = sum_j Rmat(h_lj)[:, block b] @ N_ij,
        U_kl = sum_i Lmat(g_ik)[words] @ Q_il,

    the (w, s) conjugate fails on block b iff sum_kl s_kl U_kl[w] != 0.  All
    entries of g share one denominator, all of g^(-1) another and each s its
    own, so every (w, s) row is scaled by one nonzero number and its
    membership is unchanged.  The products run in exact_product; for a
    diagonal g only g_kk and h_ll are nonzero, so each sum has one term.
    """
    tctx = TensorContext(fctx, pair.n)
    if L is None:
        L = lie_closure(pair, fctx)
    if L.ambient != tctx.ambient:
        raise ValueError("the closure lives in another ambient")
    budget = fctx.ambient.max_degree if max_word_degree is None else max_word_degree
    if budget < 0:
        raise BudgetExhaustedError("degree budget exhausted, nothing to test")
    n, nn = pair.n, pair.n * pair.n
    if isinstance(g, DiagonalUnit):
        if g.n != n:
            raise ValueError("size mismatch")
        if g.ctx != fctx:
            raise ContextMismatchError("diagonal from a different context")
        zero = fctx.zero()
        gmat = [[g.fs[i] if i == k else zero for k in range(n)] for i in range(n)]
        hmat = [[g.inv[i] if i == k else zero for k in range(n)] for i in range(n)]
    else:
        if g.ctx != tctx:
            raise ContextMismatchError("unit from a different context")
        gmat, hmat = tctx.to_matrix(g), tctx.to_matrix(inverse(g))  # NonUnitError if no unit
    words = [f for f in range(fctx.ambient.dim) if fctx.degree_of_basis(f) <= budget]
    gint = _common_denominator([e for row in gmat for e in row])   # index i*n + k
    hint = _common_denominator([e for row in hmat for e in row])   # index l*n + j
    left = {ik: multiplication_matrix(fctx, c)[words] for ik, c in enumerate(gint) if c}
    right = {lj: multiplication_matrix(fctx, c, right=True) for lj, c in enumerate(hint) if c}
    lmax, rmax = max(map(abs_max, left.values())), max(map(abs_max, right.values()))
    smat = int_matrix([s.coeffs for s in pair.g_basis], nn)
    used = [kl for kl in range(nn) if smat[:, kl].any()]
    fail = np.zeros((len(pair.g_basis), len(words)), dtype=bool)
    for b, (start, (_, size)) in enumerate(zip(fctx.ambient.starts, fctx.ambient.blocks)):
        null = L.nullspace_matrix(b)
        if null.shape[1] == 0:
            continue
        cols = slice(start, start + size)
        q = {}  # Q_il and its largest entry, built when first needed
        units = []
        for kl in used:
            k, l = divmod(kl, n)
            ids = [i for i in range(n) if i * n + k in left]
            for i in ids:
                if (i, l) not in q:
                    js = [j for j in range(n) if l * n + j in right]
                    qil = exact_product(np.hstack([right[l * n + j][:, cols] for j in js]),
                                        np.vstack([null[i * n + j::nn] for j in js]),
                                        rmax, L.null_max(b))
                    q[i, l] = qil, abs_max(qil)
            units.append(exact_product(np.hstack([left[i * n + k] for i in ids]),
                                       np.vstack([q[i, l][0] for i in ids]),
                                       lmax, max(q[i, l][1] for i in ids)).reshape(-1))
        residues = exact_product(smat[:, used], np.vstack(units))
        fail |= residues.reshape(len(pair.g_basis), len(words), -1).any(axis=2)
    checked = len(words) * len(pair.g_basis)
    hits = np.flatnonzero(fail.T)  # (w, s) in the order of fg_generator_vectors
    if not len(hits):
        return MembershipReport(True, budget, checked)
    w, s = divmod(int(hits[0]), len(pair.g_basis))
    return MembershipReport(False, budget, checked, failure=(fctx.basis_label(words[w]), s))


def _common_denominator(elements) -> list[dict[int, int]]:
    """The coefficients of the elements as integers, all scaled by one common
    denominator (clear_denominators)."""
    vals = iter(clear_denominators([v for e in elements for v in e.coeffs.values()]))
    return [{i: next(vals) for i in e.coeffs} for e in elements]


def cartan_criterion_classical(diag: DiagonalUnit, cache: FiltrationCache):
    """Diagonal membership test for the antidiagonal-form orthogonal and
    symplectic pairs: f_i f_(n+1-i) - f_1 f_n must fall in the first ideal."""
    n = diag.n
    details = []
    for i in range(1, n + 1):
        elem = mul(diag.fs[i - 1], diag.fs[n - i]) - mul(diag.fs[0], diag.fs[n - 1])
        details.append(in_ideal(elem, cache, 1))
    return all(details), details


def cartan_criterion_sl2(diag: DiagonalUnit, cache: FiltrationCache):
    """Diagonal membership test for sl2 acting on its n-dimensional irrep:
    the k-th difference derivative of the ratios must fall in the k-th ideal,
    for k up to n-2 (vacuous at n = 2)."""
    ms = diag.cartan_ratios()
    details = []
    for k in range(1, diag.n - 1):
        delta = difference_derivative(ms[0 : k + 1])
        details.append(in_ideal(delta, cache, k))
    return all(details), details


def _twisted_sequence(diag: DiagonalUnit, u: AlgElement, lowering: bool = False):
    """f_i u f_(i+1)^(-1) for i = 0..n-2; with lowering, the mirror image
    f_(n-1-i) u f_(n-2-i)^(-1)."""
    n = diag.n
    steps = [(n - 1 - i, n - 2 - i) if lowering else (i, i + 1) for i in range(n - 1)]
    return [mul(mul(diag.fs[a], u), diag.inv[b]) for a, b in steps]


def stabilization_conditions(diag: DiagonalUnit, u: AlgElement, cache: FiltrationCache):
    """Memberships of both u-twisted difference derivatives, k = 1..n-2."""
    up, down = _twisted_sequence(diag, u), _twisted_sequence(diag, u, lowering=True)
    return ([in_ideal(difference_derivative(up[:k + 1]), cache, k) for k in range(1, diag.n - 1)],
            [in_ideal(difference_derivative(down[:k + 1]), cache, k) for k in range(1, diag.n - 1)])


# -- the seeded Cartan battery -------------------------------------------------


def diagonal_criterion(pair: CompatiblePair):
    """(flavor, criterion) of the diagonal membership test for the pair's
    family: so:n and sp:2m take the classical one, sl2irrep:n the sl2 one."""
    if pair.name.startswith(("so:", "sp:")):
        return "classical", cartan_criterion_classical
    if pair.name.startswith("sl2irrep:"):
        return "sl2", cartan_criterion_sl2
    raise ValueError(f"no diagonal criterion for {pair.name}; use so:n, sp:2m or sl2irrep:n")


def battery_verdicts(pair: CompatiblePair, fctx, cache: FiltrationCache, L: GradedSubspace,
                     battery):
    """(kind, criterion verdict, direct verdict) for each (kind, diagonal) of
    the battery, the direct test run against the closure L."""
    _, criterion = diagonal_criterion(pair)
    for kind, diag in battery:
        yield kind, criterion(diag, cache)[0], in_group_direct(diag, pair, fctx, L).verdict


def random_word_element(fctx: FreeContext, rng: random.Random, max_degree=2, terms=2):
    """A sum of `terms` words of length at most max_degree, and at most D."""
    out = fctx.zero()
    for _ in range(terms):
        length = rng.randint(1, max(1, min(max_degree, fctx.D)))
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


def diagonals(pair: CompatiblePair, fctx: FreeContext, cache: FiltrationCache,
              rng: random.Random):
    """Endless seeded (kind, diagonal) pairs, cycling through the five
    construction kinds; a draw that is not a unit is skipped."""
    n = pair.n
    one = fctx.one()
    for kind in itertools.cycle(("constant", "geometric", "bracket", "word", "solved", "word")):
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
                ms = solve_m_from_h(m1, hs)
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
            diag = DiagonalUnit(fs)
        except NonUnitError:
            continue
        yield kind, diag


def battery_diagonals(pair: CompatiblePair, fctx: FreeContext, cache: FiltrationCache,
                      rng: random.Random, count: int):
    """The first count seeded diagonals of `diagonals`."""
    return list(itertools.islice(diagonals(pair, fctx, cache, rng), count))


# -- the weight-two basis and diagonal conjugation expansion -------------------


def ek_basis(n: int) -> list[AlgElement]:
    """Superdiagonal matrices: row k collects i*C(i-1, k) E_(i, i+1)."""
    mctx = StructureContext.matrix_algebra(n)
    return [AlgElement(mctx, {(i - 1) * n + i: Fraction(i * binomial(i - 1, k))
                              for i in range(k + 1, n)})
            for k in range(n - 1)]


def fk_basis(n: int) -> list[AlgElement]:
    """Mirror images of ek_basis on the subdiagonal."""
    mctx = StructureContext.matrix_algebra(n)
    return [AlgElement(mctx, {(n - i) * n + n - i - 1: Fraction(i * binomial(i - 1, k))
                              for i in range(k + 1, n)})
            for k in range(n - 1)]


def conjugation_expansion(diag: DiagonalUnit, u: AlgElement, lowering: bool = False):
    """Coefficients of D (u (x) E) D^(-1) in the superdiagonal basis
    (subdiagonal with lowering=True), as a list of coefficient elements."""
    n = diag.n
    e, f, _ = sl2_irrep_matrices(n)
    tctx = TensorContext(u.ctx, n)
    target = diag.conjugate(tctx.pure(u, f if lowering else e))
    entries = tctx.to_matrix(target)
    if lowering:
        coords = [entries[n - i][n - i - 1] for i in range(1, n)]
    else:
        coords = [entries[i - 1][i] for i in range(1, n)]
    # coords[i - 1] = sum_k i*C(i-1, k) out[k], so out = B^(-1) coords
    m = n - 1
    if not m:
        return []
    binv = inverse(AlgElement(StructureContext.matrix_algebra(m),
                              {(i - 1) * m + k: Fraction(i * binomial(i - 1, k))
                               for i in range(1, n) for k in range(m)}))
    zero = u.ctx.zero()
    out = []
    for k in range(m):
        acc = zero
        for i in range(m):
            c = binv.coeffs.get(k * m + i)
            if c:
                acc = acc + coords[i] * c
        out.append(acc)
    return out


def expected_expansion(diag: DiagonalUnit, u: AlgElement, lowering: bool = False):
    """The difference-derivative form of the same coefficients, signed (-1)^k."""
    seq = _twisted_sequence(diag, u, lowering)
    return [difference_derivative(seq[:k + 1]) * ((-1) ** k) for k in range(diag.n - 1)]


# -- homogeneous maps ----------------------------------------------------------


def _ideal_spanning_elements(cache: FiltrationCache, k: int):
    ctx = cache.ctx
    if k == 0:
        space = ctx.full_subspace()
    else:
        space = cache.ideal_Ik(k)
    return [ctx.element_from_vector(v) for v in space.vectors()]


def homogeneity_check_dm(m: AlgElement, k: int, cache: FiltrationCache) -> bool:
    """Does u -> m u m^(-1) - u send the k-th ideal into the (k+1)-st?"""
    minv = inverse(m)
    for u in _ideal_spanning_elements(cache, k):
        image = mul(mul(m, u), minv) - u
        if not in_ideal(image, cache, k + 1):
            return False
    return True


def _check_table_premise(ms, cache: FiltrationCache):
    table = DifferenceTable(ms)
    failures = [pos for pos, ok in table.memberships(cache).items() if not ok]
    if failures:
        raise PremiseViolatedError(failures)
    return table


def _staircase_steps(ms, i: int, j: int):
    """(m_t, c_t, c_t^(-1)) for t = i..j, with c_t = m_(t+1) ... m_j the
    suffix products of the 1-based sequence ms (c_j = 1)."""
    c = ms[0].ctx.one()
    out = []
    for t in range(j, i - 1, -1):
        out.append((ms[t - 1], c, inverse(c)))
        c = mul(ms[t - 1], c)
    return out[::-1]


def _staircase(steps, u: AlgElement) -> AlgElement:
    """The staircase operator on u: the difference derivative of the
    m_t c_t u c_t^(-1) over the steps from _staircase_steps."""
    return difference_derivative([mul(m, mul(mul(c, u), cinv)) for m, c, cinv in steps])


def homogeneity_check_dij(ms, i: int, j: int, k: int, cache: FiltrationCache):
    """Given the table memberships, test the two operator homogeneity claims:

    the difference derivative of the conjugation displacements raises the
    ideal index by j - i + 1, and the staircase operator built from
    m_t d_(t+1) ... d_j raises it by j - i.  Returns (first, second).
    """
    if not (1 <= i <= j <= len(ms)):
        raise ValueError("need 1 <= i <= j <= len(ms)")
    _check_table_premise(ms, cache)
    minv = [inverse(m) for m in ms]

    def partial(t, u):  # conjugation displacement by m_t
        return mul(mul(ms[t - 1], u), minv[t - 1]) - u

    spanning = _ideal_spanning_elements(cache, k)
    first = all(in_ideal(difference_derivative([partial(t, u) for t in range(i, j + 1)]),
                         cache, k + j - i + 1) for u in spanning)
    steps = _staircase_steps(ms, i, j)
    second = all(in_ideal(_staircase(steps, u), cache, k + j - i) for u in spanning)
    return first, second


def solve_m_from_h(m1: AlgElement, hs):
    """Invert the table recursion: build m_2..m_l so the top-row difference
    derivatives equal the prescribed h_k.  Every output shares the constant
    term of m_1, so units stay units."""
    if not m1.is_unit():
        raise NonUnitError("m1 must be a unit")
    table: dict[tuple[int, int], AlgElement] = {(1, 1): m1}
    ms = [m1]
    for k, h in enumerate(hs, start=1):
        table[(1, k + 1)] = h
        for i in range(1, k + 1):
            table[(i + 1, k + 1)] = table[(i, k)] - table[(i, k + 1)]
        ms.append(table[(k + 1, k + 1)])
    return ms


def inverse_table_check(ms, cache: FiltrationCache):
    """Evaluate both directions of the inverse-table equivalence on one
    instance: the plain table memberships against the inverted-sequence ones."""
    plain = DifferenceTable(ms).all_member(cache)
    starred = DifferenceTable.starred(ms).all_member(cache)
    return {
        "plain": plain,
        "starred": starred,
        "equivalent": plain == starred,
    }


def from_delta_to_d_check(fs, u: AlgElement, i: int, j: int):
    """Evaluate the staircase identity symbolically under both candidate
    readings of the twisted argument and report which ones hold."""
    n = len(fs)
    if not (1 <= i <= j <= n - 1):
        raise ValueError("need 1 <= i <= j <= len(fs) - 1")
    finv = [inverse(f) for f in fs]
    ms = [mul(fs[t], finv[t + 1]) for t in range(n - 1)]  # ms[t] = f_(t+1) f_(t+2)^(-1)
    lhs = difference_derivative(
        [mul(mul(fs[t - 1], u), finv[t]) for t in range(i, j + 1)]
    )

    steps = _staircase_steps(ms, i, j)
    stmt = _staircase(steps, mul(mul(fs[j - 1], u), finv[j - 1]))
    proof = _staircase(steps, mul(mul(fs[j], u), finv[j]))
    return {"statement_reading": lhs == stmt, "proof_reading": lhs == proof}


# -- elementary generators and nilpotence --------------------------------------


def nilpotent_basis_elements(pair: CompatiblePair) -> list[AlgElement]:
    return [b for b in pair.g_basis if (b**pair.n).is_zero()]


def elementary_generators(pair: CompatiblePair, fctx, degree_cap: int,
                          require_membership: bool = False):
    """All 1 + w (x) s for basis words w up to the cap and nilpotent basis
    directions s (nilpotency tested exactly on the matrices).

    These candidates need not normalize the current algebra: for the
    irreducibly embedded sl2 in dimension three and up, conjugating by
    1 + 1 (x) E already moves 1 (x) F outside the closure.  Pass
    require_membership=True to keep only the candidates the direct
    normalizer test admits, which is the generating set of the unipotent
    subgroup."""
    tctx = TensorContext(fctx, pair.n)
    one = tctx.one()
    out = []
    for s in nilpotent_basis_elements(pair):
        for f_idx in range(fctx.ambient.dim):
            if fctx.degree_of_basis(f_idx) > degree_cap:
                continue
            w = AlgElement(fctx, {f_idx: Fraction(1)})
            out.append(one + tctx.pure(w, s))
    if require_membership:
        L = lie_closure(pair, fctx)
        out = [g for g in out if in_group_direct(g, pair, fctx, L).verdict]
    return out


def is_stable_nilpotent(e: AlgElement, ctx) -> bool:
    """Is the two-sided ideal generated by e nilpotent?

    Power-iterates the ideal J = F e F: J^(k+1) = J^k J lies in J^k, so the
    chain decreases and stops, at 0 exactly when J is nilpotent.
    """
    if e.is_zero():
        return True
    full = ctx.full_subspace()
    single = GradedSubspace.span(ctx.ambient, [e.to_vector()])
    ideal = op_product(ctx, op_product(ctx, full, single), full)
    return Chain(ideal, lambda _, power: op_product(ctx, power, ideal)).limit().is_zero()


def conjecture_probe(g, pair: CompatiblePair, fctx, L: GradedSubspace | None = None):
    """Compare the conjectural test (conjugated degree-zero generators only)
    with the full direct normalizer test; reports both, asserts nothing."""
    tctx = TensorContext(fctx, pair.n)
    if L is None:
        L = lie_closure(pair, fctx)
    conj_ok = True
    for s in pair.g_basis:
        x = tctx.pure(fctx.one(), s)
        if not L.contains_vector(conjugate(g, x).to_vector()):
            conj_ok = False
            break
    direct = in_group_direct(g, pair, fctx, L)
    return {
        "conjectural": conj_ok,
        "direct": direct.verdict,
        "agree": conj_ok == direct.verdict,
        "budget": direct.budget,
    }
