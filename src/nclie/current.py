"""Current Lie algebras inside F (x) M_n and their closed-form descriptions.

The saturation closure lie_closure is the oracle: it never consults the
closed forms below, only the generic bracket-saturation engine.  Every other
function builds a candidate subspace from filtration ideals and power spaces
of the pair, to be compared against the oracle degree by degree.

Contexts, pairs and subspaces are immutable; the module-level memo for
closures and filtration caches is per process, so independent verification
jobs parallelize across processes without synchronization.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffalg import AlgElement, ContextMismatchError, NonUnitError
from .commfilt import FiltrationCache
from .pairs import (
    CompatiblePair,
    Matrix,
    mat,
    mat_identity,
    mat_inverse,
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
    fraction_solve,
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

    def zero(self) -> "TensorElement":
        return TensorElement(self, {})

    def one(self) -> "TensorElement":
        one_f = self.fctx.one()
        data: dict[int, Fraction] = {}
        for fi, cf in one_f.coeffs.items():
            for a in range(self.n):
                data[self.flat(fi, a * self.n + a)] = cf
        return TensorElement(self, data)

    def pure(self, f: AlgElement, m: Matrix) -> "TensorElement":
        """The element f (x) m."""
        if f.ctx != self.fctx:
            raise ContextMismatchError("coefficient from a different context")
        data: dict[int, Fraction] = {}
        for fi, cf in f.coeffs.items():
            for aidx, cm in mat_to_vector(m).items():
                data[self.flat(fi, aidx)] = data.get(self.flat(fi, aidx), Fraction(0)) + cf * cm
        return TensorElement(self, data)

    def from_matrix(self, entries) -> "TensorElement":
        """Build from an n x n array of AlgElements."""
        data: dict[int, Fraction] = {}
        for i in range(self.n):
            for j in range(self.n):
                for fi, c in entries[i][j].coeffs.items():
                    k = self.flat(fi, i * self.n + j)
                    data[k] = data.get(k, Fraction(0)) + c
        return TensorElement(self, data)


class TensorElement:
    """Sparse element of F (x) M_n; equivalently an n x n matrix over F."""

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: TensorContext, data):
        self.ctx = ctx
        self.data = {i: v for i, v in data.items() if v}

    def _require_same(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatchError("tensor elements from different contexts")

    def __add__(self, other):
        other = _coerce_tensor(self.ctx, other)
        self._require_same(other)
        out = dict(self.data)
        for i, v in other.data.items():
            out[i] = out.get(i, Fraction(0)) + v
        return TensorElement(self.ctx, out)

    def __sub__(self, other):
        return self + (-_coerce_tensor(self.ctx, other))

    def __neg__(self):
        return TensorElement(self.ctx, {i: -v for i, v in self.data.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TensorElement(self.ctx, {i: v * other for i, v in self.data.items()})
        self._require_same(other)
        return tensor_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce_tensor(self.ctx, other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.ctx == other.ctx and self.data == other.data

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.data.items()))))

    def __bool__(self):
        return bool(self.data)

    def is_zero(self):
        return not self.data

    def to_vector(self):
        return dict(self.data)

    def entry(self, i: int, j: int) -> AlgElement:
        n, nn = self.ctx.n, self.ctx.nn
        want = i * n + j
        return AlgElement(
            self.ctx.fctx,
            {f: v for k, v in self.data.items() for f, a in (divmod(k, nn),) if a == want},
        )

    def to_matrix(self):
        return [[self.entry(i, j) for j in range(self.ctx.n)] for i in range(self.ctx.n)]

    def constant_matrix(self) -> Matrix:
        """Degree-0 part as a rational matrix (unital free contexts)."""
        fctx = self.ctx.fctx
        if not (fctx.is_free and fctx.unital):
            raise NonUnitError("constant matrix needs a unital free coefficient context")
        unit_idx = fctx.word_index[()]
        n, nn = self.ctx.n, self.ctx.nn
        rows = [[Fraction(0)] * n for _ in range(n)]
        for k, v in self.data.items():
            f, a = divmod(k, nn)
            if f == unit_idx:
                rows[a // n][a % n] = v
        return mat(rows)

    def commutator(self, other):
        return tensor_mul(self, other) - tensor_mul(other, self)

    def inverse(self) -> "TensorElement":
        return tensor_inverse(self)

    def max_degree(self) -> int:
        return max((self.ctx.degree_of_basis(i) for i in self.data), default=0)

    def __str__(self):
        if not self.data:
            return "0"
        parts = []
        for i in sorted(self.data):
            c = self.data[i]
            parts.append(f"{c}*{self.ctx.basis_label(i)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _coerce_tensor(ctx, value):
    if isinstance(value, TensorElement):
        return value
    if isinstance(value, (int, Fraction)):
        if value == 0:
            return ctx.zero()
        return ctx.one() * Fraction(value)
    raise TypeError(f"cannot coerce {value!r} into {ctx!r}")


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    if x.ctx != y.ctx:
        raise ContextMismatchError("tensor elements from different contexts")
    mul = x.ctx.mul_basis
    out: dict[int, Fraction] = {}
    for i, ci in x.data.items():
        for j, cj in y.data.items():
            c = ci * cj
            for k, ck in mul(i, j):
                out[k] = out.get(k, Fraction(0)) + c * ck
    return TensorElement(x.ctx, out)


def tensor_inverse(x: TensorElement) -> TensorElement:
    """Exact inverse: nilpotent-series after splitting the constant matrix in
    graded contexts, a linear solve in structure-constant contexts."""
    ctx = x.ctx
    if ctx.is_free and ctx.unital:
        c = x.constant_matrix()
        try:
            cinv = mat_inverse(c)
        except Exception as exc:
            raise NonUnitError("constant-term matrix is singular") from exc
        cinv_t = ctx.pure(ctx.fctx.one(), cinv)
        nil = tensor_mul(cinv_t, x) - 1
        acc = ctx.one()
        power = ctx.one()
        sign = 1
        for _ in range(ctx.fctx.D):
            power = tensor_mul(power, nil)
            if power.is_zero():
                break
            sign = -sign
            acc = acc + power * sign
        return tensor_mul(acc, cinv_t)
    if not ctx.unital:
        raise NonUnitError("inverse requires a unital coefficient context")
    dim = ctx.ambient.dim
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i, ci in x.data.items():
        for j in range(dim):
            for k, ck in ctx.mul_basis(i, j):
                rows[k][j] += ci * ck
    one_vec = [Fraction(0)] * dim
    for i, v in ctx.one().data.items():
        one_vec[i] = v
    sol = fraction_solve(rows, one_vec)
    if sol is None:
        raise NonUnitError("element is singular")
    inv = TensorElement(ctx, {i: v for i, v in enumerate(sol) if v})
    if tensor_mul(inv, x) != ctx.one():
        raise NonUnitError("element has no two-sided inverse")
    return inv


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
