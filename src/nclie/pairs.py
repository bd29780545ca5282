"""Compatible pairs: a matrix Lie algebra g inside an associative algebra A.

A is either all n x n rational matrices or a declared subalgebra given by a
basis; g is given by a matrix basis with [g, g] inside g checked exactly on
construction.  Powers of g, the pair type, perfectness, enveloping-center
data, and the split strong-grading witness all reduce to exact subspace
computations in the matrix-unit coordinates of M_n.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .coeffalg import StructureContext
from .subspace import (
    Ambient,
    GradedSubspace,
    SpanBuilder,
    fraction_left_kernel,
    fraction_nullspace,
    fraction_solve,
    op_bracket,
    op_product,
)

Matrix = tuple[tuple[Fraction, ...], ...]

INFINITE = math.inf


class UnsupportedError(ValueError):
    """Raised when a computation needs structure outside the rational-split scope."""


# -- exact rational matrices --------------------------------------------------


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def mat_zero(n: int) -> Matrix:
    return tuple((Fraction(0),) * n for _ in range(n))


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_unit(n: int, i: int, j: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if (r, c) == (i, j) else 0) for c in range(n)) for r in range(n)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = mat_identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def mat_trace(a: Matrix) -> Fraction:
    return sum(a[i][i] for i in range(len(a)))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_is_zero(a: Matrix) -> bool:
    return all(not v for row in a for v in row)


def mat_to_vector(a: Matrix) -> dict[int, Fraction]:
    n = len(a)
    return {i * n + j: a[i][j] for i in range(n) for j in range(n) if a[i][j]}


def vector_to_mat(vec, n: int) -> Matrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for idx, v in vec.items() if isinstance(vec, dict) else vec:
        rows[idx // n][idx % n] = Fraction(v)
    return mat(rows)


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    cols = []
    for j in range(n):
        rhs = [Fraction(1 if i == j else 0) for i in range(n)]
        sol = fraction_solve([list(r) for r in a], rhs)
        if sol is None:
            raise UnsupportedError("matrix is singular")
        cols.append(sol)
    inv = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    if mat_mul(inv, a) != mat_identity(n):
        raise UnsupportedError("matrix is singular")
    return inv


def span_of_matrices(n: int, mats) -> GradedSubspace:
    return GradedSubspace.span(Ambient([(0, n * n)]), [mat_to_vector(m) for m in mats])


# -- compatible pairs ----------------------------------------------------------


class CompatiblePair:
    """Lie subalgebra g of a matrix algebra A, with [g, g] in g verified."""

    def __init__(self, n: int, g_basis, algebra_basis=None, name="custom",
                 semisimple=False, key=None, witness_candidate=None):
        if n < 1:
            raise ValueError(f"matrix size must be at least 1, got {n}")
        self.n = n
        self.name = name
        self.witness_candidate = None if witness_candidate is None else mat(witness_candidate)
        self.g_basis = tuple(mat(m) for m in g_basis)
        self.algebra_basis = None if algebra_basis is None else tuple(mat(m) for m in algebra_basis)
        for m in self.g_basis + (self.algebra_basis or ()):
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"basis matrices must be {n} x {n}")
        self.mctx = StructureContext.matrix_algebra(n)
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
            if not self.algebra.contains_vector(mat_to_vector(mat_identity(n))):
                raise ValueError("declared algebra must contain the identity")
        for a, b in itertools.combinations_with_replacement(self.g_basis, 2):
            if not self.g.contains_vector(mat_to_vector(mat_commutator(a, b))):
                raise ValueError("g is not closed under the commutator")
        if not self.g.issubset(self.algebra):
            raise ValueError("g does not lie inside the declared algebra")
        self._key = key or ("custom", n, self.g_basis, self.algebra_basis)
        self._powers: dict[int, GradedSubspace] = {}
        self._bracket_powers: dict[int, GradedSubspace] = {}
        self._envelope: GradedSubspace | None = None
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
        """Span of k-fold products of elements of g inside A."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k not in self._powers:
            if k == 1:
                self._powers[1] = self.g
            else:
                self._powers[k] = op_product(self.mctx, self.g_power(k - 1), self.g)
        return self._powers[k]

    def bracket_power(self, k: int) -> GradedSubspace:
        """[g, g^k], the span of commutators of g against k-fold products."""
        if k not in self._bracket_powers:
            self._bracket_powers[k] = op_bracket(self.mctx, self.g, self.g_power(k))
        return self._bracket_powers[k]

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
        memo = {(): mat_identity(self.n)}

        def sym(ms):
            if ms not in memo:
                total = mat_zero(self.n)
                for pos, x in enumerate(ms):
                    if pos and ms[pos - 1] == x:
                        continue
                    rest = sym(ms[:pos] + ms[pos + 1:])
                    total = mat_add(total, mat_mul(self.g_basis[x], rest))
                memo[ms] = total
            return memo[ms]

        b = SpanBuilder(self.mctx.ambient)
        for combo in itertools.combinations_with_replacement(range(len(self.g_basis)), k):
            b.add(mat_to_vector(sym(combo)))
        return b.finalize()

    def envelope(self) -> GradedSubspace:
        """The associative subalgebra generated by g: sum of all powers."""
        if self._envelope is None:
            acc = self.g
            k = 1
            while True:
                k += 1
                grown = acc.sum(self.g_power(k))
                if grown == acc:
                    break
                acc = grown
            self._envelope = acc
        return self._envelope

    def power_stabilization(self) -> int:
        """First K with g^K = g^(K+1) (then all later powers coincide)."""
        k = 1
        while self.g_power(k) != self.g_power(k + 1):
            k += 1
            if k > self.mctx.ambient.dim + 1:
                raise UnsupportedError(f"the powers of g have not stabilized by g^{k}, "
                                       "so the perfectness test has no stopping point")
        return k

    def pair_type(self):
        """Minimal m with g + g^2 + ... + g^m = A, or INFINITE."""
        target = self.algebra
        acc = self.g
        m = 1
        stale = 0
        while True:
            if acc == target:
                return m
            grown = acc.sum(self.g_power(m + 1))
            stale = stale + 1 if grown == acc else 0
            if stale >= 2:
                return INFINITE
            acc = grown
            m += 1

    def is_perfect(self, k_max: int | None = None):
        """Check [g, g^k]g + (g^k intersect g^(k+1)) = g^(k+1) for k = 2..k_max.

        Defaults k_max to the stabilization point of the powers; once
        g^K = g^(K+1) every later condition holds automatically since the
        bracket term stays inside the stable power.
        """
        if k_max is None:
            k_max = max(2, self.power_stabilization())
        for k in range(2, k_max + 1):
            lhs = op_product(self.mctx, self.bracket_power(k), self.g).sum(
                self.g_power(k).intersect(self.g_power(k + 1))
            )
            if lhs != self.g_power(k + 1):
                return False, k
        return True, None

    def center(self) -> GradedSubspace:
        """Center of the enveloping algebra of g."""
        if self._center is None:
            env = self.envelope()
            basis = [vector_to_mat(v, self.n) for v in env.vectors()]
            if not basis:
                self._center = GradedSubspace.zero(self.mctx.ambient)
                return self._center
            rows = []
            for c in basis:
                row = []
                for b in basis:
                    comm = mat_commutator(c, b)
                    row.extend(comm[i][j] for i in range(self.n) for j in range(self.n))
                rows.append(row)
            combos = fraction_left_kernel(rows)
            bld = SpanBuilder(self.mctx.ambient)
            for combo in combos:
                z = mat_zero(self.n)
                for coef, c in zip(combo, basis):
                    if coef:
                        z = mat_add(z, mat_scale(coef, c))
                bld.add(mat_to_vector(z))
            self._center = bld.finalize()
        return self._center

    def center_part(self, k: int) -> GradedSubspace:
        """Center of the envelope intersected with g^k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.center().intersect(self.g_power(k))

    def coordinates_in_g(self, m: Matrix):
        """Coordinates of a matrix in the declared g basis (None if outside)."""
        rows = [
            [self.g_basis[b][i][j] for b in range(len(self.g_basis))]
            for i in range(self.n)
            for j in range(self.n)
        ]
        rhs = [m[i][j] for i in range(self.n) for j in range(self.n)]
        return fraction_solve(rows, rhs)

    def strongly_graded_witness(self, h0: Matrix) -> bool:
        """Split strong-grading test for a candidate grading element h0 in g.

        True iff ad h0 acts diagonalizably on g with rational eigenvalues and
        the kernel equals the span of [g_c, g_(-c)] over nonzero eigenvalues.
        Raises UnsupportedError when the characteristic polynomial does not
        split over the rationals.
        """
        h0 = mat(h0)
        if self.coordinates_in_g(h0) is None:
            raise ValueError("witness candidate must lie in g")
        dim = len(self.g_basis)
        ad = []
        for b in self.g_basis:
            coords = self.coordinates_in_g(mat_commutator(h0, b))
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
            z = mat_zero(self.n)
            for coef, b in zip(vec, self.g_basis):
                if coef:
                    z = mat_add(z, mat_scale(coef, b))
            return z

        for c, basis in eigenspaces.items():
            if c == 0:
                continue
            if -c not in eigenspaces:
                continue
            for va in basis:
                for vb in eigenspaces[-c]:
                    bld.add(mat_to_vector(mat_commutator(realize(va), realize(vb))))
        span = bld.finalize()
        null = GradedSubspace.span(
            self.mctx.ambient, [mat_to_vector(realize(v)) for v in eigenspaces.get(Fraction(0), [])]
        )
        return span == null


# -- characteristic polynomial and rational roots ------------------------------


def char_poly(a) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(xI - A) by Faddeev-LeVerrier."""
    n = len(a)
    am = mat(a)
    m = mat_identity(n)
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am_m = mat_mul(am, m)
        ck = -mat_trace(am_m) / k
        coeffs.append(ck)
        m = mat_add(am_m, mat_scale(ck, mat_identity(n)))
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
    denom = 1
    for c in poly:
        denom = denom // math.gcd(denom, c.denominator) * c.denominator
    ints = [int(c * denom) for c in poly]
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


def _principal_diagonal(n: int) -> Matrix:
    """diag(n-1, n-3, ..., 1-n): a regular split grading element."""
    return tuple(
        tuple(Fraction(n - 1 - 2 * i if i == j else 0) for j in range(n))
        for i in range(n)
    )


def make_gl(n: int) -> CompatiblePair:
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = [mat_unit(n, i, j) for i in range(n) for j in range(n)]
    return CompatiblePair(n, basis, name=f"gl:{n}", semisimple=False, key=("gl", n),
                          witness_candidate=_principal_diagonal(n))


def make_sl(n: int) -> CompatiblePair:
    if n < 2:
        raise ValueError("n must be >= 2")
    basis = [mat_unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        basis.append(mat_sub(mat_unit(n, i, i), mat_unit(n, i + 1, i + 1)))
    return CompatiblePair(n, basis, name=f"sl:{n}", semisimple=True, key=("sl", n),
                          witness_candidate=_principal_diagonal(n))


def antidiagonal_symmetric_form(n: int) -> Matrix:
    """Phi(x, y) = x1*yn + x2*y(n-1) + ... + xn*y1."""
    return tuple(
        tuple(Fraction(1 if i + j == n - 1 else 0) for j in range(n)) for i in range(n)
    )


def antidiagonal_skew_form(n: int) -> Matrix:
    """Skew form with +1 on the upper antidiagonal half and -1 on the lower."""
    if n % 2:
        raise ValueError("skew form needs even size")
    m = n // 2
    return tuple(
        tuple(
            Fraction((1 if i < m else -1) if i + j == n - 1 else 0) for j in range(n)
        )
        for i in range(n)
    )


def orthogonal_lie_algebra(phi: Matrix) -> list[Matrix]:
    """Basis of {M : Phi(Mu, v) + Phi(u, Mv) = 0}, i.e. ker of M -> M^T Phi + Phi M."""
    n = len(phi)
    # (M^T Phi)[u][v] = sum_a M[a][u] Phi[a][v]; (Phi M)[u][v] = sum_a Phi[u][a] M[a][v]
    rows = []
    for u in range(n):
        for v in range(n):
            row = [Fraction(0)] * (n * n)
            for a in range(n):
                row[a * n + u] += phi[a][v]
                row[a * n + v] += phi[u][a]
            rows.append(row)
    basis = fraction_nullspace(rows)
    return [vector_to_mat({i: c for i, c in enumerate(vec) if c}, n) for vec in basis]


def _mirrored_diagonal(n: int) -> Matrix:
    """diag(d_1, ..., d_n) with d_i + d_(n+1-i) = 0: lies in both antidiagonal
    families, with distinct nonzero entries in the upper half."""
    half = [n + 1 - 2 * i for i in range(n // 2)]
    entries = half + ([0] if n % 2 else []) + [-v for v in reversed(half)]
    return tuple(
        tuple(Fraction(entries[i] if i == j else 0) for j in range(n)) for i in range(n)
    )


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
    """Pair (o(Phi), stabilizer of the kernel of Phi) for a possibly degenerate form."""
    phi = mat(phi)
    n = len(phi)
    sym = phi == mat_transpose(phi)
    skew = phi == mat_scale(-1, mat_transpose(phi))
    if not (sym or skew):
        raise ValueError("form must be symmetric or skew-symmetric")
    kernel = fraction_nullspace([list(r) for r in phi])  # right kernel = left by (skew)symmetry
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
    a_basis_vecs = fraction_nullspace(constraints)
    a_basis = [vector_to_mat({i: c for i, c in enumerate(v) if c}, n) for v in a_basis_vecs]
    return CompatiblePair(
        n, g_basis, algebra_basis=a_basis, name="o(phi)-degenerate",
        key=("o-degenerate", phi),
    )


def sl2_irrep_matrices(n: int) -> tuple[Matrix, Matrix, Matrix]:
    """The n-dimensional irreducible representation of sl2: raising E with
    weights 1..n-1 above the diagonal, lowering F mirrored, H = [E, F]."""
    e = mat_zero(n)
    e = [list(r) for r in e]
    f = [list(r) for r in mat_zero(n)]
    for i in range(1, n):
        e[i - 1][i] = Fraction(i)
        f[n - i][n - i - 1] = Fraction(i)
    e, f = mat(e), mat(f)
    h = mat_commutator(e, f)
    return e, f, h


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
    jordan = [list(r) for r in mat_zero(n)]
    for i in range(n - 1):
        jordan[i][i + 1] = Fraction(1)
    return CompatiblePair(n, [mat(jordan)], name=f"jordan:{n}", key=("jordan", n),
                          witness_candidate=mat(jordan))


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
    return Fraction(v)


def pair_from_json(path: str) -> CompatiblePair:
    """Load {"n": ..., "g_basis": [matrix, ...], "algebra_basis": optional,
    "name": optional, "semisimple": optional} with rational entries given as
    numbers or "p/q" strings."""
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
        n = int(data["n"])
        g_basis = [
            [[_json_entry(v) for v in row] for row in m] for m in data["g_basis"]
        ]
        algebra = data.get("algebra_basis")
        if algebra is not None:
            algebra = [[[_json_entry(v) for v in row] for row in m] for m in algebra]
        name = data.get("name", "custom")
    except (OSError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed pair file {path}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(name, str):
        raise ValueError(f"malformed pair file {path}: name must be a string")
    return CompatiblePair(
        n,
        g_basis,
        algebra_basis=algebra,
        name=name,
        semisimple=bool(data.get("semisimple", False)),
    )
