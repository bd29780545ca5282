"""Membership machinery for the groups acting on current Lie algebras.

Covers conjugation by units of F (x) M_n, the direct normalizer test on a
generating battery, the diagonal (Cartan) membership criteria for the
classical and sl2-irrep pairs, the noncommutative difference-derivative
calculus behind the sl2 criterion, elementary unipotent generators, and a
probe for the conjectural characterization by conjugated generators.

All verdicts are exact statements about the truncated coefficient algebra,
which is itself a unital associative algebra, so the criteria apply to it
verbatim and the full word range up to the truncation degree is decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coeffalg import AlgElement, NonUnitError, inverse, mul
from .commfilt import FiltrationCache
from .current import TensorContext, lie_closure, tensor_mul
from .pairs import (
    CompatiblePair,
    Matrix,
    mat_pow,
    mat_is_zero,
    mat_to_vector,
    sl2_irrep_matrices,
    mat,
    mat_unit,
    mat_zero,
)
from .subspace import GradedSubspace, fraction_solve


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
            out = out + tctx.pure(f, mat_unit(self.n, i, i))
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
    """
    tctx = TensorContext(fctx, pair.n)
    if L is None:
        L = lie_closure(pair, fctx)
    budget = fctx.D if max_word_degree is None else max_word_degree
    if budget < 0:
        raise BudgetExhaustedError("degree budget exhausted, nothing to test")
    if isinstance(g, DiagonalUnit):
        conj = g.conjugate
    else:
        ginv = g.inverse()  # raises NonUnitError when g is not invertible
        conj = lambda x: tensor_mul(tensor_mul(g, x), ginv)
    gvecs = [mat_to_vector(m) for m in pair.g_basis]
    vectors = []
    labels = []
    for f_idx in range(fctx.ambient.dim):
        if fctx.degree_of_basis(f_idx) > budget:
            continue
        for s_idx, gv in enumerate(gvecs):
            x = AlgElement(tctx, {tctx.flat(f_idx, ai): c for ai, c in gv.items()})
            vectors.append(conj(x).to_vector())
            labels.append((fctx.basis_label(f_idx), s_idx))
    if L.contains_vectors(vectors):
        return MembershipReport(True, budget, len(vectors))
    for vec, label in zip(vectors, labels):
        if not L.contains_vector(vec):
            return MembershipReport(False, budget, len(vectors), failure=label)
    raise AssertionError("batched and per-vector membership disagree")


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


def stabilization_conditions(diag: DiagonalUnit, u: AlgElement, cache: FiltrationCache):
    """Memberships of both u-twisted difference derivatives, k = 1..n-2."""
    n = diag.n
    first = []
    second = []
    for k in range(1, n - 1):
        up = [
            mul(mul(diag.fs[i], u), diag.inv[i + 1])
            for i in range(0, k + 1)
        ]
        down = [
            mul(mul(diag.fs[n - 1 - i], u), diag.inv[n - 2 - i])
            for i in range(0, k + 1)
        ]
        first.append(in_ideal(difference_derivative(up), cache, k))
        second.append(in_ideal(difference_derivative(down), cache, k))
    return first, second


# -- the weight-two basis and diagonal conjugation expansion -------------------


def ek_basis(n: int) -> list[Matrix]:
    """Superdiagonal matrices: row k collects i*C(i-1, k) E_(i, i+1)."""
    out = []
    for k in range(n - 1):
        m = [list(r) for r in mat_zero(n)]
        for i in range(k + 1, n):
            m[i - 1][i] = Fraction(i * binomial(i - 1, k))
        out.append(mat(m))
    return out


def fk_basis(n: int) -> list[Matrix]:
    """Mirror images of ek_basis on the subdiagonal."""
    out = []
    for k in range(n - 1):
        m = [list(r) for r in mat_zero(n)]
        for i in range(k + 1, n):
            m[n - i][n - i - 1] = Fraction(i * binomial(i - 1, k))
        out.append(mat(m))
    return out


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
    rows = [
        [Fraction(i * binomial(i - 1, k)) for k in range(n - 1)] for i in range(1, n)
    ]
    inv_cols = []
    for j in range(n - 1):
        rhs = [Fraction(1 if t == j else 0) for t in range(n - 1)]
        inv_cols.append(fraction_solve(rows, rhs))
    zero = u.ctx.zero()
    out = []
    for k in range(n - 1):
        acc = zero
        for i in range(n - 1):
            c = inv_cols[i][k]
            if c:
                acc = acc + coords[i] * c
        out.append(acc)
    return out


def expected_expansion(diag: DiagonalUnit, u: AlgElement, lowering: bool = False):
    """The difference-derivative form of the same coefficients, signed (-1)^k."""
    n = diag.n
    out = []
    for k in range(n - 1):
        if lowering:
            args = [
                mul(mul(diag.fs[n - 1 - i], u), diag.inv[n - 2 - i])
                for i in range(0, k + 1)
            ]
        else:
            args = [mul(mul(diag.fs[i], u), diag.inv[i + 1]) for i in range(0, k + 1)]
        out.append(difference_derivative(args) * ((-1) ** k))
    return out


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
    first = True
    for u in spanning:
        acc = u.ctx.zero()
        for t in range(i, j + 1):
            acc = acc + partial(t, u) * ((-1) ** (t - i) * binomial(j - i, t - i))
        if not in_ideal(acc, cache, k + j - i + 1):
            first = False
            break
    # staircase operator: argument t acts by m_t conj(m_(t+1) ... m_j)
    suffix: dict[int, AlgElement] = {j + 1: ms[0].ctx.one()}
    for t in range(j, i - 1, -1):
        suffix[t] = mul(ms[t - 1], suffix[t + 1])
    suffix_inv = {t: inverse(c) for t, c in suffix.items()}
    second = True
    for u in spanning:
        acc = u.ctx.zero()
        for t in range(i, j + 1):
            cu = mul(ms[t - 1], mul(mul(suffix[t + 1], u), suffix_inv[t + 1]))
            acc = acc + cu * ((-1) ** (t - i) * binomial(j - i, t - i))
        if not in_ideal(acc, cache, k + j - i):
            second = False
            break
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

    def staircase(uprime):
        acc = u.ctx.zero()
        suffix: dict[int, AlgElement] = {j + 1: u.ctx.one()}
        for t in range(j, i - 1, -1):
            suffix[t] = mul(ms[t - 1], suffix[t + 1])
        for t in range(i, j + 1):
            c = suffix[t + 1]
            val = mul(ms[t - 1], mul(mul(c, uprime), inverse(c)))
            acc = acc + val * ((-1) ** (t - i) * binomial(j - i, t - i))
        return acc

    stmt = staircase(mul(mul(fs[j - 1], u), finv[j - 1]))
    proof = staircase(mul(mul(fs[j], u), finv[j]))
    return {"statement_reading": lhs == stmt, "proof_reading": lhs == proof}


# -- elementary generators and nilpotence --------------------------------------


def nilpotent_basis_elements(pair: CompatiblePair) -> list[Matrix]:
    return [b for b in pair.g_basis if mat_is_zero(mat_pow(b, pair.n))]


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

    Power-iterates the subspace F e F; under nilpotency the chain strictly
    decreases, so stabilizing nonzero within dim steps refutes it.
    """
    from .subspace import op_product, GradedSubspace as GS

    if e.is_zero():
        return True
    full = ctx.full_subspace()
    single = GS.span(ctx.ambient, [e.to_vector()])
    ideal = op_product(ctx, op_product(ctx, full, single), full)
    current = ideal
    for _ in range(ctx.ambient.dim + 1):
        if current.is_zero():
            return True
        nxt = op_product(ctx, current, ideal)
        if nxt == current:
            return False
        current = nxt
    return current.is_zero()


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
