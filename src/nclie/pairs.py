"""Compatible pairs: a matrix Lie algebra g inside an associative algebra A.

A is either all n x n rational matrices or a declared subalgebra given by a
basis; g is given by a matrix basis with [g, g] inside g checked exactly on
construction.  Every matrix is an element of the M_n context
StructureContext.matrix_algebra(n) (pair.mctx), so matrix products,
commutators, powers and inverses are those of coeffalg; rows of rationals
from outside (a JSON pair file, a caller's basis) become elements through
`matrix`.  Powers of g, the pair type, perfectness, enveloping-center data,
and the split strong-grading witness all reduce to exact subspace
computations in the matrix-unit coordinates of M_n.  The powers of g and
their partial sums are `Chain`s that stop at their first repeat.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .coeffalg import AlgElement, StructureContext, commutator, mul
from .commfilt import FiltrationCache
from .subspace import (
    Ambient,
    Chain,
    GradedSubspace,
    SpanBuilder,
    bracket_closed,
    clear_denominators,
    fraction_left_kernel,
    fraction_nullspace,
    fraction_solve,
    op_product,
)

INFINITE = math.inf


class UnsupportedError(ValueError):
    """Raised when a computation needs structure outside the rational-split scope."""


def matrix(n: int, rows) -> AlgElement:
    """The element of M_n with the given n x n rows of rationals; an element
    of M_n is returned as it is."""
    mctx = StructureContext.matrix_algebra(n)
    if isinstance(rows, AlgElement):
        if rows.ctx != mctx:
            raise ValueError(f"basis matrices must be {n} x {n}")
        return rows
    rows = [list(row) for row in rows]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"basis matrices must be {n} x {n}")
    return AlgElement(mctx, {i * n + j: Fraction(v)
                             for i, row in enumerate(rows) for j, v in enumerate(row)})


def _combination(ctx, coeffs, elements) -> AlgElement:
    return sum((e * c for c, e in zip(coeffs, elements) if c), ctx.zero())


def span_of_matrices(n: int, mats) -> GradedSubspace:
    return GradedSubspace.span(Ambient([(0, n * n)]), [m.coeffs for m in mats])


# -- compatible pairs ----------------------------------------------------------


class CompatiblePair:
    """Lie subalgebra g of a matrix algebra A, with [g, g] in g verified."""

    def __init__(self, n: int, g_basis, algebra_basis=None, name="custom",
                 semisimple=False, key=None, witness_candidate=None):
        if n < 1:
            raise ValueError(f"matrix size must be at least 1, got {n}")
        self.n = n
        self.name = name
        self.mctx = StructureContext.matrix_algebra(n)
        self.witness_candidate = None if witness_candidate is None else matrix(n, witness_candidate)
        self.g_basis = tuple(matrix(n, m) for m in g_basis)
        self.algebra_basis = None if algebra_basis is None else tuple(matrix(n, m) for m in algebra_basis)
        self.semisimple = semisimple
        self.g = span_of_matrices(n, self.g_basis)
        if self.g.dim != len(self.g_basis):
            raise ValueError("g basis matrices are linearly dependent")
        if self.algebra_basis is None:
            self.algebra = self.mctx.full_subspace()
        else:
            self.algebra = span_of_matrices(n, self.algebra_basis)
            if self.algebra.dim != len(self.algebra_basis):
                raise ValueError("algebra basis matrices are linearly dependent")
            if not op_product(self.mctx, self.algebra, self.algebra).issubset(self.algebra):
                raise ValueError("declared algebra is not closed under products")
            if not self.algebra.contains_vector(self.mctx.one().coeffs):
                raise ValueError("declared algebra must contain the identity")
        if not bracket_closed(self.mctx, self.g):
            raise ValueError("g is not closed under the commutator")
        if not self.g.issubset(self.algebra):
            raise ValueError("g does not lie inside the declared algebra")
        self._key = key or ("custom", n, self.g_basis, self.algebra_basis)
        mctx, g = self.mctx, self.g   # the chains' steps hold no reference to the pair
        self._powers = powers = Chain(g, lambda _, p: op_product(mctx, p, g))   # g^(k+1) at k
        self.filtration = FiltrationCache(mctx, generating=g)   # J(k, l) and the spans in M_n
        self._sums = Chain(g, lambda k, s: s.sum(powers.term(k + 1)))   # g + ... + g^(k+1)
        self._center: GradedSubspace | None = None

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, CompatiblePair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"CompatiblePair({self.name}, n={self.n}, dim g={self.g.dim})"

    # -- power spaces ---------------------------------------------------------

    def g_power(self, k: int) -> GradedSubspace:
        """Span of k-fold products of elements of g inside A.

        The chain stops at the first repeat of g^K among the two powers
        before: g^(k+1) = g^k g depends on g^k alone, so g^K = g^(K+p)
        repeats every later power with period p (1 or 2; so:2 has g = g^3 =
        span J and g^2 = span 1).  For some g no such repeat comes.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._powers.term(k - 1)

    def bracket_power(self, k: int) -> GradedSubspace:
        """[g, g^k], the span of commutators of g against k-fold products; for
        k past the first repeat K of the powers it is [g, g^K], built once."""
        return self.filtration.bracket(self.g, self.g_power(k))

    def tilde_power(self, k: int) -> GradedSubspace:
        """Span of pure powers a^k over a in g, by full polarization.

        In characteristic zero this equals the span of symmetrized k-fold
        basis products, so no random sampling is involved.  The sum sym(M)
        of the products over the distinct orderings of a multiset M of basis
        indices obeys sym(M) = sum over distinct x in M of b_x sym(M - x),
        with sym of the empty multiset the identity; the memo shares each
        sub-multiset between the k-multisets that contain it.
        """
        if k < 2:
            raise ValueError("k must be >= 2")
        memo = {(): self.mctx.one()}

        def sym(ms):
            if ms not in memo:
                total = self.mctx.zero()
                for pos, x in enumerate(ms):
                    if pos and ms[pos - 1] == x:
                        continue
                    total = total + mul(self.g_basis[x], sym(ms[:pos] + ms[pos + 1:]))
                memo[ms] = total
            return memo[ms]

        combos = itertools.combinations_with_replacement(range(len(self.g_basis)), k)
        return GradedSubspace.span(self.mctx.ambient, (sym(c).coeffs for c in combos))

    def envelope(self) -> GradedSubspace:
        """The associative subalgebra generated by g: the limit of the
        partial sums g, g + g^2, ..., which grow; once g^(k+1) lies in
        S = g + ... + g^k, S g lies in S, so every later power does."""
        return self._sums.limit()

    def power_stabilization(self) -> int:
        """First K with g^K = g^(K+p), for the period p = power_period() of
        the powers (then every later power repeats one of g^K ..
        g^(K+p-1))."""
        k = self.mctx.ambient.dim + 2
        self.g_power(k)
        if self._powers.stop is None:
            raise UnsupportedError(f"the powers of g have not stabilized by g^{k}, "
                                   "so the perfectness test has no stopping point")
        return self._powers.stop + 2 - self._powers.period

    def power_period(self) -> int:
        """The period, 1 or 2, with which the powers repeat from
        power_stabilization() on."""
        self.power_stabilization()
        return self._powers.period

    def pair_type(self):
        """Minimal m with g + g^2 + ... + g^m = A, or INFINITE: the sums grow
        strictly to the envelope, which lies in A, so only the last can."""
        return self._sums.stop + 1 if self.envelope() == self.algebra else INFINITE

    def is_perfect(self):
        """Check [g, g^k]g + (g^k intersect g^(k+1)) = g^(k+1) for every k >= 2.

        It suffices to check k up to the end of the first full period of the
        powers, K + p - 1 for K = power_stabilization() and p = power_period().
        The condition for k is a function of the pair (g^k, g^(k+1)), as
        [g, g^k] is one of g^k; from K on these pairs repeat with period p,
        so the conditions for k = K .. K + p - 1 are those of every later k.
        """
        k_max = max(2, self.power_stabilization() + self.power_period() - 1)
        for k in range(2, k_max + 1):
            lhs = op_product(self.mctx, self.bracket_power(k), self.g).sum(
                self.g_power(k).intersect(self.g_power(k + 1))
            )
            if lhs != self.g_power(k + 1):
                return False, k
        return True, None

    def center(self) -> GradedSubspace:
        """Center of the enveloping algebra of g: the left kernel of the table
        of [c, b] over basis pairs, formed for c before b only, since [b, c] =
        -[c, b] and [c, c] = 0."""
        if self._center is None:
            basis = [self.mctx.element_from_vector(v) for v in self.envelope().vectors()]
            nn = self.mctx.dim_algebra
            tables = [[{}] * len(basis) for _ in basis]
            for i, j in itertools.combinations(range(len(basis)), 2):
                br = commutator(basis[i], basis[j])
                tables[i][j], tables[j][i] = br.coeffs, (-br).coeffs
            rows = [[t.get(k, 0) for t in row for k in range(nn)] for row in tables]
            self._center = GradedSubspace.span(
                self.mctx.ambient,
                [_combination(self.mctx, combo, basis).coeffs for combo in fraction_left_kernel(rows)],
            )
        return self._center

    def center_part(self, k: int) -> GradedSubspace:
        """Center of the envelope intersected with g^k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.center().intersect(self.g_power(k))

    def coordinates_in_g(self, m: AlgElement):
        """Coordinates of an element of M_n in the declared g basis (None if outside)."""
        nn = self.mctx.dim_algebra
        rows = [[b.coeffs.get(k, 0) for b in self.g_basis] for k in range(nn)]
        return fraction_solve(rows, [m.coeffs.get(k, 0) for k in range(nn)])

    def strongly_graded_witness(self, h0) -> bool:
        """Split strong-grading test for a candidate grading element h0 in g.

        True iff ad h0 acts diagonalizably on g with rational eigenvalues and
        the kernel equals the span of [g_c, g_(-c)] over nonzero eigenvalues.
        Raises UnsupportedError when the characteristic polynomial does not
        split over the rationals.
        """
        h0 = matrix(self.n, h0)
        if self.coordinates_in_g(h0) is None:
            raise ValueError("witness candidate must lie in g")
        dim = len(self.g_basis)
        ad = []
        for b in self.g_basis:
            coords = self.coordinates_in_g(commutator(h0, b))
            if coords is None:
                raise ValueError("g is not ad-stable, compatibility broken")
            ad.append(coords)
        admat = [[ad[j][i] for j in range(dim)] for i in range(dim)]  # columns act
        roots = rational_eigenvalues(admat)
        if roots is None:
            raise UnsupportedError("characteristic polynomial does not split over Q")
        eigenspaces = {}
        total = 0
        for c in sorted(set(roots)):
            shifted = [
                [admat[i][j] - (c if i == j else 0) for j in range(dim)]
                for i in range(dim)
            ]
            basis = fraction_nullspace(shifted)
            eigenspaces[c] = basis
            total += len(basis)
        if total != dim:
            return False
        bld = SpanBuilder(self.mctx.ambient)

        def realize(vec):
            return _combination(self.mctx, vec, self.g_basis)

        for c, basis in eigenspaces.items():
            if c == 0:
                continue
            if -c not in eigenspaces:
                continue
            for va in basis:
                for vb in eigenspaces[-c]:
                    bld.add(commutator(realize(va), realize(vb)).coeffs)
        span = bld.finalize()
        null = GradedSubspace.span(
            self.mctx.ambient, [realize(v).coeffs for v in eigenspaces.get(Fraction(0), [])]
        )
        return span == null


# -- characteristic polynomial and rational roots ------------------------------


def char_poly(a) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(xI - A) by Faddeev-LeVerrier, for
    A given by its n x n rows, in M_n."""
    n = len(a)
    if not n:  # ad of a zero g is 0 x 0, and there is no M_0 context
        return [Fraction(1)]
    am = matrix(n, a)
    m = am.ctx.one()
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am_m = mul(am, m)
        ck = -sum((am_m.coeffs.get(i * (n + 1), 0) for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        m = am_m + ck
    return coeffs


def rational_eigenvalues(a) -> list[Fraction] | None:
    """All eigenvalues with multiplicity if the char poly splits over Q, else None."""
    coeffs = char_poly(a)
    roots: list[Fraction] = []
    poly = list(coeffs)
    while len(poly) > 1:
        root = _find_rational_root(poly)
        if root is None:
            return None
        roots.append(root)
        poly = _deflate(poly, root)
    return roots


def _find_rational_root(poly):
    # poly: descending coefficients, leading 1 possibly fractional after deflation
    ints = clear_denominators(poly)
    if ints[-1] == 0:
        return Fraction(0)
    lead, const = ints[0], ints[-1]
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(poly, cand) == 0:
                    return cand
    return None


def _poly_eval(poly, x):
    acc = Fraction(0)
    for c in poly:
        acc = acc * x + c
    return acc


def _deflate(poly, root):
    out = [poly[0]]
    for c in poly[1:-1]:
        out.append(c + out[-1] * root)
    return out


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# -- built-in pair families -----------------------------------------------------


def _principal_diagonal(n: int) -> AlgElement:
    """diag(n-1, n-3, ..., 1-n): a regular split grading element."""
    return AlgElement(StructureContext.matrix_algebra(n),
                      {i * (n + 1): Fraction(n - 1 - 2 * i) for i in range(n)})


def make_gl(n: int) -> CompatiblePair:
    if n < 1:
        raise ValueError("n must be >= 1")
    unit = StructureContext.matrix_algebra(n).basis_element
    return CompatiblePair(n, [unit(k) for k in range(n * n)], name=f"gl:{n}", semisimple=False,
                          key=("gl", n), witness_candidate=_principal_diagonal(n))


def make_sl(n: int) -> CompatiblePair:
    if n < 2:
        raise ValueError("n must be >= 2")
    unit = StructureContext.matrix_algebra(n).basis_element
    basis = [unit(i * n + j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        basis.append(unit(i * (n + 1)) - unit((i + 1) * (n + 1)))
    return CompatiblePair(n, basis, name=f"sl:{n}", semisimple=True, key=("sl", n),
                          witness_candidate=_principal_diagonal(n))


def antidiagonal_symmetric_form(n: int) -> AlgElement:
    """Phi(x, y) = x1*yn + x2*y(n-1) + ... + xn*y1, as its Gram matrix in M_n."""
    return AlgElement(StructureContext.matrix_algebra(n),
                      {i * n + n - 1 - i: Fraction(1) for i in range(n)})


def antidiagonal_skew_form(n: int) -> AlgElement:
    """Skew form with +1 on the upper antidiagonal half and -1 on the lower."""
    if n % 2:
        raise ValueError("skew form needs even size")
    return AlgElement(StructureContext.matrix_algebra(n),
                      {i * n + n - 1 - i: Fraction(1 if i < n // 2 else -1) for i in range(n)})


def orthogonal_lie_algebra(phi: AlgElement) -> list[AlgElement]:
    """Basis of {M : Phi(Mu, v) + Phi(u, Mv) = 0}, i.e. ker of M -> M^T Phi + Phi M,
    for the Gram matrix Phi of a form, an element of M_n."""
    n = math.isqrt(phi.ctx.dim_algebra)
    entry = phi.coeffs.get
    # (M^T Phi)[u][v] = sum_a M[a][u] Phi[a][v]; (Phi M)[u][v] = sum_a Phi[u][a] M[a][v]
    rows = []
    for u in range(n):
        for v in range(n):
            row = [Fraction(0)] * (n * n)
            for a in range(n):
                row[a * n + u] += entry(a * n + v, 0)
                row[a * n + v] += entry(u * n + a, 0)
            rows.append(row)
    return [phi.ctx.element_from_vector(enumerate(vec)) for vec in fraction_nullspace(rows)]


def _mirrored_diagonal(n: int) -> AlgElement:
    """diag(d_1, ..., d_n) with d_i + d_(n+1-i) = 0: lies in both antidiagonal
    families, with distinct nonzero entries in the upper half."""
    half = [n + 1 - 2 * i for i in range(n // 2)]
    entries = half + ([0] if n % 2 else []) + [-v for v in reversed(half)]
    return AlgElement(StructureContext.matrix_algebra(n),
                      {i * (n + 1): Fraction(v) for i, v in enumerate(entries)})


def make_orthogonal(n: int) -> CompatiblePair:
    if n < 2:
        raise ValueError("n must be >= 2")
    phi = antidiagonal_symmetric_form(n)
    basis = orthogonal_lie_algebra(phi)
    return CompatiblePair(
        n, basis, name=f"so:{n}", semisimple=(n >= 3), key=("so", n),
        witness_candidate=_mirrored_diagonal(n),
    )


def make_symplectic(n: int) -> CompatiblePair:
    if n < 2 or n % 2:
        raise ValueError("size must be even and >= 2")
    phi = antidiagonal_skew_form(n)
    basis = orthogonal_lie_algebra(phi)
    return CompatiblePair(n, basis, name=f"sp:{n}", semisimple=True, key=("sp", n),
                          witness_candidate=_mirrored_diagonal(n))


def make_orthogonal_degenerate(phi) -> CompatiblePair:
    """Pair (o(Phi), stabilizer of the kernel of Phi) for a possibly degenerate
    form, given by the rows of its Gram matrix."""
    n = len(phi)
    phi = matrix(n, phi)
    flipped = {(k % n) * n + k // n: v for k, v in phi.coeffs.items()}
    if flipped != phi.coeffs and flipped != (-phi).coeffs:
        raise ValueError("form must be symmetric or skew-symmetric")
    # right kernel = left kernel by (skew)symmetry
    kernel = fraction_nullspace([[phi.coeffs.get(i * n + j, 0) for j in range(n)] for i in range(n)])
    g_basis = orthogonal_lie_algebra(phi)
    if not kernel:
        return CompatiblePair(n, g_basis, name="o(phi)", key=("o-degenerate", phi))
    # stabilizer of K: for every kernel vector w, M w must stay in K,
    # i.e. every functional vanishing on K kills M w
    constraints = []
    comp = fraction_nullspace(kernel)
    for w in kernel:
        for functional in comp:
            row = [Fraction(0)] * (n * n)
            for a in range(n):
                for b in range(n):
                    row[a * n + b] += functional[a] * w[b]
            constraints.append(row)
    if not constraints:  # K is everything: the stabilizer condition is vacuous
        return CompatiblePair(n, g_basis, name="o(phi)-degenerate", key=("o-degenerate", phi))
    a_basis = [phi.ctx.element_from_vector(enumerate(v)) for v in fraction_nullspace(constraints)]
    return CompatiblePair(
        n, g_basis, algebra_basis=a_basis, name="o(phi)-degenerate",
        key=("o-degenerate", phi),
    )


def sl2_irrep_matrices(n: int) -> tuple[AlgElement, AlgElement, AlgElement]:
    """The n-dimensional irreducible representation of sl2: raising E with
    weights 1..n-1 above the diagonal, lowering F mirrored, H = [E, F]."""
    mctx = StructureContext.matrix_algebra(n)
    e = AlgElement(mctx, {(i - 1) * n + i: Fraction(i) for i in range(1, n)})
    f = AlgElement(mctx, {(n - i) * n + n - i - 1: Fraction(i) for i in range(1, n)})
    return e, f, commutator(e, f)


def make_sl2_irrep(n: int) -> CompatiblePair:
    if n < 2:
        raise ValueError("n must be >= 2")
    e, f, h = sl2_irrep_matrices(n)
    return CompatiblePair(
        n, [e, f, h], name=f"sl2irrep:{n}", semisimple=True, key=("sl2irrep", n),
        witness_candidate=h,
    )


def make_abelian_nilpotent(n: int) -> CompatiblePair:
    if n < 2:
        raise ValueError("n must be >= 2")
    jordan = AlgElement(StructureContext.matrix_algebra(n),
                        {i * (n + 1) + 1: Fraction(1) for i in range(n - 1)})
    return CompatiblePair(n, [jordan], name=f"jordan:{n}", key=("jordan", n),
                          witness_candidate=jordan)


_BUILDERS = {
    "gl": make_gl,
    "sl": make_sl,
    "so": make_orthogonal,
    "sp": make_symplectic,
    "sl2irrep": make_sl2_irrep,
    "jordan": make_abelian_nilpotent,
}


def pair_by_name(spec: str) -> CompatiblePair:
    """Build a pair from a CLI name like sl:3, so:4, sp:4, sl2irrep:3,
    jordan:3, or load a custom pair from a JSON file of matrices."""
    if spec.endswith(".json"):
        return pair_from_json(spec)
    kind, sep, arg = spec.partition(":")
    if not sep or kind not in _BUILDERS:
        raise ValueError(f"unknown pair {spec!r}, expected kind:n with kind in {sorted(_BUILDERS)}")
    return _BUILDERS[kind](int(arg))


def _json_entry(v) -> Fraction:
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    if isinstance(v, bool):   # Fraction(true) would read as 1
        raise TypeError(f"entry {v} is not a number")
    return Fraction(v)


def pair_from_json(path: str) -> CompatiblePair:
    """Load {"n": ..., "g_basis": [matrix, ...], "algebra_basis": optional,
    "name": optional, "semisimple": optional} with rational entries given as
    finite numbers or "p/q" strings, n an integer and semisimple a boolean."""
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
        n = data["n"]
        g_basis = [
            [[_json_entry(v) for v in row] for row in m] for m in data["g_basis"]
        ]
        algebra = data.get("algebra_basis")
        if algebra is not None:
            algebra = [[[_json_entry(v) for v in row] for row in m] for m in algebra]
        name = data.get("name", "custom")
        semisimple = data.get("semisimple", False)
    except (OSError, KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed pair file {path}: {type(exc).__name__}: {exc}") from exc
    # JSON values have exact types: 2.5 is no integer and "no" no boolean
    for field, value, kind in (("n", n, int), ("name", name, str), ("semisimple", semisimple, bool)):
        if type(value) is not kind:
            raise ValueError(f"malformed pair file {path}: {field} must be of type {kind.__name__}")
    return CompatiblePair(n, g_basis, algebra_basis=algebra, name=name, semisimple=semisimple)
