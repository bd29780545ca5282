"""Current Lie algebras inside F (x) M_n and their closed-form descriptions.

The saturation closure lie_closure is the oracle: it never consults the
closed forms below, only the generic bracket-saturation engine.  Every other
function builds a candidate subspace from filtration ideals and power spaces
of the pair, to be compared against the oracle degree by degree.

TensorContext is a context like the coefficient contexts of coeffalg: its
elements are AlgElements, multiplied by coeffalg.mul and inverted by
coeffalg.inverse, so F, M_n and F (x) M_n share one element type.

Contexts, pairs and subspaces are immutable; the module-level memo for
closures and filtration caches is per process, so independent verification
jobs parallelize across processes without synchronization.
"""

from __future__ import annotations

from .coeffalg import AlgElement, ContextMismatchError, mul
from .commfilt import FiltrationCache
from .pairs import (
    CompatiblePair,
    Matrix,
    mat_identity,
    mat_pow,
    mat_commutator,
    mat_to_vector,
    sl2_irrep_matrices,
    make_sl2_irrep,
    span_of_matrices,
)
from .subspace import (
    Ambient,
    GradedSubspace,
    SpanBuilder,
    bracket_saturate,
    kronecker_span,
    op_bracket,
    op_product,
    subspace_sum,
)


class TypeMismatchError(ValueError):
    pass


class TensorContext:
    """Coordinates for F (x) M_n: pairs (word index, matrix unit), graded by F."""

    def __init__(self, fctx, n: int):
        self.fctx = fctx
        self.n = n
        self.nn = n * n
        fblocks = fctx.ambient.blocks
        self.ambient = Ambient([(d, s * self.nn) for d, s in fblocks])
        self.integral = fctx.integral
        self.is_free = fctx.is_free
        self.unital = getattr(fctx, "unital", False)

    def key(self):
        return ("tensor", self.fctx.key(), self.n)

    def __eq__(self, other):
        return isinstance(other, TensorContext) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"TensorContext({self.fctx!r}, n={self.n})"

    def flat(self, f_idx: int, a_idx: int) -> int:
        return f_idx * self.nn + a_idx

    def unflat(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.nn)

    def mul_basis(self, i: int, j: int):
        nn, n = self.nn, self.n
        fi, ai = divmod(i, nn)
        fj, aj = divmod(j, nn)
        b = ai % n
        c, d = divmod(aj, n)
        if b != c:
            return ()
        a_out = (ai // n) * n + d
        return tuple((fk * nn + a_out, ck) for fk, ck in self.fctx.mul_basis(fi, fj))

    def degree_of_basis(self, i: int) -> int:
        return self.fctx.degree_of_basis(i // self.nn)

    def basis_label(self, i: int) -> str:
        f, a = self.unflat(i)
        n = self.n
        return f"{self.fctx.basis_label(f)}(x)E{a // n + 1}{a % n + 1}"

    def full_subspace(self) -> GradedSubspace:
        return GradedSubspace.full(self.ambient)

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def one(self) -> AlgElement:
        return self.pure(self.fctx.one(), mat_identity(self.n))

    def pure(self, f: AlgElement, m: Matrix) -> AlgElement:
        """The element f (x) m."""
        if f.ctx != self.fctx:
            raise ContextMismatchError("coefficient from a different context")
        mvec = mat_to_vector(m)
        return AlgElement(self, {self.flat(fi, aidx): cf * cm
                                 for fi, cf in f.coeffs.items() for aidx, cm in mvec.items()})

    def from_matrix(self, entries) -> AlgElement:
        """Build from an n x n array of coefficient elements."""
        n = self.n
        return AlgElement(self, {self.flat(fi, i * n + j): c
                                 for i in range(n) for j in range(n)
                                 for fi, c in entries[i][j].coeffs.items()})

    def to_matrix(self, x: AlgElement) -> list[list[AlgElement]]:
        """The n x n array of coefficient elements of x, in one pass over x."""
        n = self.n
        entries = [[{} for _ in range(n)] for _ in range(n)]
        for k, v in x.coeffs.items():
            f, a = divmod(k, self.nn)
            entries[a // n][a % n][f] = v
        return [[AlgElement(self.fctx, e) for e in row] for row in entries]


def tensor_mul(x: AlgElement, y: AlgElement) -> AlgElement:
    """The product in F (x) M_n.  It is coeffalg.mul, kept as a function of
    its own so that the benchmark's tracer times tensor products apart."""
    return mul(x, y)


# -- span-building helpers ----------------------------------------------------


def tensor_product_span(tctx: TensorContext, fsub: GradedSubspace, asub: GradedSubspace) -> GradedSubspace:
    """Span of u (x) M over basis vectors u of fsub and M of asub, built as
    the Kronecker product of their canonical blocks (see kronecker_span)."""
    if fsub.ambient != tctx.fctx.ambient:
        raise ValueError("coefficient subspace is not in the coefficient ambient")
    if asub.ambient != Ambient([(0, tctx.nn)]):
        raise ValueError(f"matrix subspace is not in the ambient of M_{tctx.n}")
    return kronecker_span(fsub, asub)


def fg_generator_vectors(pair: CompatiblePair, tctx: TensorContext):
    """The spanning set {w (x) s} of F . g used to generate the closure."""
    gens = []
    fdim = tctx.fctx.ambient.dim
    gvecs = [mat_to_vector(m) for m in pair.g_basis]
    for f_idx in range(fdim):
        for gv in gvecs:
            gens.append({tctx.flat(f_idx, ai): c for ai, c in gv.items()})
    return gens


_closure_memo: dict = {}


def lie_closure(pair: CompatiblePair, fctx, m_cap: int | None = None) -> GradedSubspace:
    """The Lie subalgebra of F (x) M_n generated by F . g, by bracket saturation.

    With m_cap, returns the filtered piece: the sum of the first m_cap layers
    of iterated brackets of the generating set.
    """
    key = (pair.key(), fctx.key(), m_cap)
    if key not in _closure_memo:
        tctx = TensorContext(fctx, pair.n)
        gens = fg_generator_vectors(pair, tctx)
        sweeps = None if m_cap is None else m_cap - 1
        _closure_memo[key] = bracket_saturate(tctx, gens, sweeps=sweeps)
    return _closure_memo[key]


def filtration(fctx) -> FiltrationCache:
    key = ("filtration", fctx.key())
    if key not in _closure_memo:
        _closure_memo[key] = FiltrationCache(fctx)
    return _closure_memo[key]


def _ideal(cache: FiltrationCache, k: int) -> GradedSubspace:
    return cache.ideal_Ik(k)


def _hard_cap(fctx, pair) -> int:
    return 2 * (fctx.ambient.dim + pair.mctx.ambient.dim) + 4


def f_dot_g(pair: CompatiblePair, fctx) -> GradedSubspace:
    tctx = TensorContext(fctx, pair.n)
    return tensor_product_span(tctx, fctx.full_subspace(), pair.g)


def f_langle_g_filtered(pair: CompatiblePair, fctx, m: int) -> GradedSubspace:
    """Sum of F (x) g^k for k = 1..m, the reference filtration."""
    tctx = TensorContext(fctx, pair.n)
    full = fctx.full_subspace()
    return subspace_sum(
        tctx.ambient,
        [tensor_product_span(tctx, full, pair.g_power(k)) for k in range(1, m + 1)],
    )


def tilde_bound(pair: CompatiblePair, fctx, m_cap: int | None = None) -> GradedSubspace:
    """Closed-form upper bound: F.g plus ideal terms I_k (x) [g, g^(k+1)] and
    [F, I_(k-1)] (x) g^(k+1); with m_cap the partial-sum ideals bound each term."""
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    base = cache.base
    parts = [f_dot_g(pair, fctx)]
    if m_cap is not None:
        for k in range(1, m_cap):
            ell = m_cap - k
            parts.append(
                tensor_product_span(tctx, cache.ideal_Ik_le(k, ell), pair.bracket_power(k + 1))
            )
            low = cache.ideal_Ik_le(k - 1, ell)
            parts.append(
                tensor_product_span(tctx, op_bracket(fctx, base, low), pair.g_power(k + 1))
            )
        return subspace_sum(tctx.ambient, parts)
    prev = None
    k = 0
    cap = _hard_cap(fctx, pair)
    while k < cap:
        k += 1
        ik = _ideal(cache, k)
        fik = op_bracket(fctx, base, _ideal(cache, k - 1))
        gb = pair.bracket_power(k + 1)
        gp = pair.g_power(k + 1)
        if ik.is_zero() and fik.is_zero():
            break
        state = (ik, fik, gb, gp)
        if state == prev:
            break
        prev = state
        parts.append(tensor_product_span(tctx, ik, gb))
        parts.append(tensor_product_span(tctx, fik, gp))
    return subspace_sum(tctx.ambient, parts)


def overline_bound(pair: CompatiblePair, fctx, m_cap: int | None = None) -> GradedSubspace:
    """Refined upper bound built from two-index ideals of F and of (A, g).

    Terms are enumerated by layers s = k1+k2+l1+l2; in a graded context the
    layer dies once s+2 exceeds the truncation degree, otherwise enumeration
    stops after two layers contribute nothing new.
    """
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    jcache = FiltrationCache(pair.mctx, generating=pair.g)
    parts = [f_dot_g(pair, fctx)]
    graded = fctx.is_free
    max_layer = (fctx.D - 2 if graded else _hard_cap(fctx, pair))
    if m_cap is not None:
        max_layer = min(max_layer, m_cap - 2)
    bld_dims = None
    stale = 0
    s = 0
    while s <= max_layer:
        for k1 in range(s + 1):
            for k2 in range(s - k1 + 1):
                for l1 in range(s - k1 - k2 + 1):
                    l2 = s - k1 - k2 - l1
                    i1 = cache.ideal_Ikl(k1, l1 + 1)
                    i2 = cache.ideal_Ikl(k2, l2 + 1)
                    if i1.is_zero() or i2.is_zero():
                        continue
                    j1 = jcache.ideal_Ikl(l1, k1 + 1)
                    j2 = jcache.ideal_Ikl(l2, k2 + 1)
                    if j1.is_zero() or j2.is_zero():
                        continue
                    parts.append(
                        tensor_product_span(
                            tctx,
                            op_product(fctx, i1, i2),
                            op_bracket(pair.mctx, j1, j2),
                        )
                    )
                    parts.append(
                        tensor_product_span(
                            tctx,
                            op_bracket(fctx, i1, i2),
                            op_product(pair.mctx, j2, j1),
                        )
                    )
        if not graded:
            merged = subspace_sum(tctx.ambient, parts)
            parts = [merged]
            dims = merged.dim
            grew = bld_dims is None or dims > bld_dims
            bld_dims = dims
            stale = 0 if grew else stale + 1
            if stale >= 2:
                break
        s += 1
    return subspace_sum(tctx.ambient, parts)


def type2_formula(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F.g + F' (x) A + FF' (x) [A, A], exact for pairs of type 2."""
    if pair.pair_type() != 2:
        raise TypeMismatchError(f"{pair.name} is not of type 2")
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    fprime = cache.commutator_space(1)
    ffprime = op_product(fctx, fctx.full_subspace(), fprime)
    a_bracket = op_bracket(pair.mctx, pair.algebra, pair.algebra)
    return subspace_sum(
        tctx.ambient,
        [
            f_dot_g(pair, fctx),
            tensor_product_span(tctx, fprime, pair.algebra),
            tensor_product_span(tctx, ffprime, a_bracket),
        ],
    )


def semisimple_closed_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F.g + sum over k >= 2 of I_(k-1) (x) [g, g^k] + [F, I_(k-2)] (x) Z_k(g)."""
    perfect, _ = pair.is_perfect()
    if not (pair.semisimple and perfect):
        raise ValueError("closed form requires a declared-semisimple perfect pair")
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    base = cache.base
    parts = [f_dot_g(pair, fctx)]
    prev = None
    k = 1
    cap = _hard_cap(fctx, pair)
    while k < cap:
        k += 1
        ik1 = _ideal(cache, k - 1)
        fik2 = op_bracket(fctx, base, _ideal(cache, k - 2))
        gplus = pair.bracket_power(k)
        zk = pair.center_part(k)
        if ik1.is_zero() and fik2.is_zero():
            break
        state = (ik1, fik2, gplus, zk)
        if state == prev:
            break
        prev = state
        parts.append(tensor_product_span(tctx, ik1, gplus))
        parts.append(tensor_product_span(tctx, fik2, zk))
    return subspace_sum(tctx.ambient, parts)


def sl2_module_span(n: int, k: int) -> GradedSubspace:
    """The irreducible piece generated by E^k: iterated ad F applied to E^k."""
    e, f, _ = sl2_irrep_matrices(n)
    b = SpanBuilder(Ambient([(0, n * n)]))
    cur = mat_pow(e, k)
    for _ in range(2 * k + 1):
        b.add(mat_to_vector(cur))
        cur = mat_commutator(f, cur)
    return b.finalize()


def sl2_closed_form(n: int, fctx) -> GradedSubspace:
    """[F, F] (x) 1 + sum over k = 1..n-1 of I_(k-1) (x) V_(2k) for the
    n-dimensional irreducible module of sl2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    pair = make_sl2_irrep(n)
    tctx = TensorContext(fctx, n)
    cache = filtration(fctx)
    base = cache.base
    one_span = span_of_matrices(n, [mat_identity(n)])
    parts = [
        tensor_product_span(tctx, op_bracket(fctx, base, base), one_span)
    ]
    for k in range(1, n):
        ideal = fctx.full_subspace() if k == 1 else _ideal(cache, k - 1)
        parts.append(tensor_product_span(tctx, ideal, sl2_module_span(n, k)))
    return subspace_sum(tctx.ambient, parts)


def lower_bound_terms(pair: CompatiblePair, fctx, k: int):
    """The two explicit subspaces F^(k) (x) g^(k+1) and F F^(k) (x) [g, g^(k+1)]
    that always embed into the closure."""
    if k < 0:
        raise ValueError("k must be >= 0")
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    fk = fctx.full_subspace() if k == 0 else cache.commutator_space(k)
    ffk = op_product(fctx, fctx.full_subspace(), fk)
    return (
        tensor_product_span(tctx, fk, pair.g_power(k + 1)),
        tensor_product_span(tctx, ffk, pair.bracket_power(k + 1)),
    )


def abelian_closure_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """Sum of F^(k) (x) g^(k+1): the exact closure for abelian g."""
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    parts = [f_dot_g(pair, fctx)]
    k = 0
    cap = _hard_cap(fctx, pair)
    while k < cap:
        k += 1
        fk = cache.commutator_space(k)
        if fk.is_zero():
            break
        gp = pair.g_power(k + 1)
        if gp.is_zero():
            break
        parts.append(tensor_product_span(tctx, fk, gp))
    return subspace_sum(tctx.ambient, parts)


def simple_coefficients_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F.g + F (x) [g, <g>] + [F, F] (x) <g>, exact when I_1(F) = F and the
    pair is perfect (for example 2x2 matrix coefficients)."""
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    full = fctx.full_subspace()
    env = pair.envelope()
    return subspace_sum(
        tctx.ambient,
        [
            f_dot_g(pair, fctx),
            tensor_product_span(tctx, full, op_bracket(pair.mctx, pair.g, env)),
            tensor_product_span(tctx, op_bracket(fctx, cache.base, cache.base), env),
        ],
    )
