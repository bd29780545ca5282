"""Current Lie algebras inside F (x) M_n and their closed-form descriptions.

The saturation closure lie_closure is the oracle: it never consults the
closed forms below, only the generic bracket-saturation engine.  Every other
function builds a candidate subspace as a list of terms (U, V), a filtration
ideal U of F and a power space V of the pair, summed by kron_sum, to be
compared against the oracle degree by degree.

TensorContext is a context like the coefficient contexts of coeffalg: its
elements are AlgElements, multiplied by coeffalg.mul and inverted by
coeffalg.inverse, so F, M_n and F (x) M_n share one element type.

Contexts, pairs and subspaces are immutable; the module-level memo for
closures and filtration caches is per process, so independent verification
jobs parallelize across processes without synchronization.
"""

from __future__ import annotations

import functools

from .coeffalg import (
    AlgElement,
    Context,
    ContextMismatchError,
    StructureContext,
    commutator,
    mul,
    multiplication_matrix,
)
from .commfilt import FiltrationCache
from .pairs import (
    CompatiblePair,
    UnsupportedError,
    make_sl,
    sl2_irrep_matrices,
    span_of_matrices,
)
from .subspace import (
    Ambient,
    Chain,
    GradedSubspace,
    SpanBuilder,
    bracket_saturate,
    kronecker_span,
    subspace_sum,
)


class TypeMismatchError(ValueError):
    pass


# The widest block of F (x) M_n a TensorContext may have, in columns: w, the
# widest block of F times n^2 (m^D n^2 for a free F).  In the scaling table's
# protocol (scripts/scaling_table.py) the closure and both bounds peak at
# 6.3-8.6 x w^2 x 8 bytes, measured for sl:3 at m=2, D=8 and 9, sp:4 at m=2,
# D=8 and 9 and sl:3 at m=3, D=6.  The widest measured, w = 8,192 (sp:4 at
# m=2, D=9), peaked at 4,356 MB; w = 16,384 would need 13-18 GB.  So the
# widest measured block is the limit, and a wider one is refused at once.
MAX_TENSOR_WIDTH = 8192


class TensorContext(Context):
    """Coordinates for F (x) M_n: pairs (word index, matrix unit), graded by F."""

    def __init__(self, fctx, n: int):
        width = max(size for _, size in fctx.ambient.blocks) * n * n
        if width > MAX_TENSOR_WIDTH:
            raise ValueError(f"F (x) M_{n} over {fctx!r} has a block of {width} columns, "
                             f"more than the limit of {MAX_TENSOR_WIDTH}")
        self.fctx = fctx
        self.n = n
        self.nn = n * n
        self.mctx = StructureContext.matrix_algebra(n)
        fblocks = fctx.ambient.blocks
        self.ambient = Ambient([(d, s * self.nn) for d, s in fblocks])
        self.denominator = fctx.denominator
        self.unital = fctx.unital
        self._fdim = fctx.ambient.dim
        # for mul_basis: (word, row, column) per basis index, and the
        # products of F per word pair, their word indices times n^2
        self._units = None
        self._fprods: dict[int, list] = {}

    def key(self):
        return ("tensor", self.fctx.key(), self.n)

    def __repr__(self):
        return f"TensorContext({self.fctx!r}, n={self.n})"

    def word_layout(self):
        """Over a free F the words are F's and A is M_n (see
        Context.word_layout); over any other F the one block is A."""
        if not self.fctx.is_free:
            return super().word_layout()
        return self.nn, functools.partial(multiplication_matrix, self.mctx)

    def flat(self, f_idx: int, a_idx: int) -> int:
        return f_idx * self.nn + a_idx

    def unflat(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.nn)

    def mul_basis(self, i: int, j: int):
        """(f (x) E_ab)(f' (x) E_cd) = ff' (x) E_ad when b = c, and 0 otherwise.

        Each basis index is read from a table as (word, row, column), so a
        pair of units that does not compose costs two lookups.  The table is
        built on the first product (the closed forms build a TensorContext
        per sum and never multiply), and the products ff' of F are memoized
        per word pair as they are met.
        """
        units = self._units
        if units is None:
            n = self.n
            units = self._units = [(f, a // n, a % n) for f in range(self._fdim) for a in range(self.nn)]
        fi, ri, ci = units[i]
        fj, rj, cj = units[j]
        if ci != rj:
            return ()
        key = fi * self._fdim + fj
        prods = self._fprods.get(key)
        if prods is None:
            nn = self.nn
            prods = self._fprods[key] = [(fk * nn, ck) for fk, ck in self.fctx.mul_basis(fi, fj)]
        out = ri * self.n + cj
        return [(k + out, c) for k, c in prods]

    def basis_label(self, i: int) -> str:
        f, a = self.unflat(i)
        n = self.n
        return f"{self.fctx.basis_label(f)}(x)E{a // n + 1}{a % n + 1}"

    def one(self) -> AlgElement:
        return self.pure(self.fctx.one(), self.mctx.one())

    def pure(self, f: AlgElement, m: AlgElement) -> AlgElement:
        """The element f (x) m, for f in F and m in M_n."""
        if f.ctx != self.fctx or m.ctx != self.mctx:
            raise ContextMismatchError("factor from a different context")
        return AlgElement(self, {self.flat(fi, aidx): cf * cm
                                 for fi, cf in f.coeffs.items() for aidx, cm in m.coeffs.items()})

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


def fg_generator_vectors(pair: CompatiblePair, tctx: TensorContext, max_degree=None):
    """The spanning set {w (x) s} of F . g used to generate the closure, for
    every basis word w (of degree at most max_degree, when given) and, for
    each w in turn, every s of the g basis in order."""
    fctx = tctx.fctx
    return [{tctx.flat(f_idx, ai): c for ai, c in s.coeffs.items()}
            for f_idx in range(fctx.ambient.dim)
            if max_degree is None or fctx.degree_of_basis(f_idx) <= max_degree
            for s in pair.g_basis]


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


def _hard_cap(fctx, pair) -> int:
    return 2 * (fctx.ambient.dim + pair.mctx.ambient.dim) + 4


def _series(name: str, pair: CompatiblePair, fctx, first: int, step) -> list:
    """The terms of step(k) for k = first, first + 1, ... of a series whose
    steps are tuples of terms (U, V); a step whose terms are all zero is ().

    The steps are read as a Chain, up to _hard_cap, and the series stops at
    the chain's stop: a step x_(j+1) equal to x_j (period 1) or to x_(j-1)
    (period 2).  Each step holds the spaces the next is built from, a
    commutator space C(k) or an ideal I_k and a power g^k, and the next
    step is a function of them alone: C(k+1) = [F, C(k)], I_(k+1) =
    F [F, I_k] + [F, I_k] (proven in FiltrationCache.ideal_Ik), g^(k+1) =
    g^k g, and a zero step is followed by a zero step.
    So x_(j+1) = x_(j-1) gives x_(j+2) = x_j, then x_(j+3) = x_(j+1), and
    so on: every step past the stop repeats one of the last two, and the
    terms up to the stop are the whole sum.  (Over M_2 the series of so:2
    alternate so, with its powers g = g^3 = span J and g^2 = span 1.)  A
    series that does not stop within _hard_cap steps raises: its partial
    sum is not proven to be the whole sum."""
    cap = _hard_cap(fctx, pair)
    chain = Chain(step(first), lambda k, _: step(first + k + 1))
    chain.term(cap - first)
    if chain.stop is None:
        raise UnsupportedError(f"{name} for {pair.name}: no zero or repeated term within {cap} steps")
    return [t for k in range(chain.stop + 1) for t in chain.term(k)]


def kron_sum(tctx: TensorContext, terms) -> GradedSubspace:
    """The span of U (x) V over the terms (U, V), U in F and V in M_n.

    Span is bilinear, so the terms are grouped by V and each group's
    distinct U are summed once in F, n^2 times smaller than F (x) M_n; only
    one Kronecker part per distinct V reaches the final sum.

    When the distinct V, sorted by dimension, form a chain V_1 <= ... <=
    V_r, the sum is built as a direct sum and no row reduces to zero.  Let
    U_j be the sum of group j and U'_j = U_j + ... + U_r, and let W_j be
    the rows of canonical U'_j whose pivot is not a pivot of U'_(j+1)
    (GradedSubspace.rows_beyond).  Then:
      * sum_j U_j (x) V_j = sum_j U'_j (x) V_j, because U_i (x) V_j lies in
        U_i (x) V_i for i > j;
      * U'_(j+1) <= U'_j, so U'_j = W_j + U'_(j+1), and by induction U'_j =
        W_j + ... + W_r, where no two rows of all the W share a pivot;
      * so sum_j U'_j (x) V_j = sum_i W_i (x) (V_1 + ... + V_i) = sum_i
        W_i (x) V_i;
      * a row w (x) a of kron(W_i, V_i) has its pivot at p*n^2 + q, p the
        pivot of w and q that of a, so the rows of all the parts have
        pairwise distinct pivots and the sum is direct, of dimension
        sum_j (dim U'_j - dim U'_(j+1)) dim V_j.
    A U of several groups is summed only with the group of its largest V;
    the suffix sums carry it to the others.  The final sum only
    back-substitutes.  When the V do not chain, each group is summed on
    its own.
    """
    groups: dict[GradedSubspace, dict[GradedSubspace, None]] = {}
    for u, v in terms:
        groups.setdefault(v, {})[u] = None
    fsum = functools.partial(subspace_sum, tctx.fctx.ambient)
    vs = sorted(groups, key=lambda v: v.dim)
    if not all(a.issubset(b) for a, b in zip(vs, vs[1:])):
        return subspace_sum(tctx.ambient, [tensor_product_span(tctx, fsum(us), v)
                                           for v, us in groups.items()])
    parts, lower, seen = [], GradedSubspace.zero(tctx.fctx.ambient), set()
    for v in reversed(vs):
        us = [u for u in groups[v] if u not in seen]
        seen.update(us)
        upper = fsum([lower, *us])
        parts.append(tensor_product_span(tctx, upper.rows_beyond(lower), v))
        lower = upper
    return subspace_sum(tctx.ambient, parts)


def f_dot_g(pair: CompatiblePair, fctx) -> GradedSubspace:
    tctx = TensorContext(fctx, pair.n)
    return tensor_product_span(tctx, fctx.full_subspace(), pair.g)


def f_langle_g_filtered(pair: CompatiblePair, fctx, m: int) -> GradedSubspace:
    """Sum of F (x) g^k for k = 1..m, the reference filtration."""
    full = fctx.full_subspace()
    terms = [(full, pair.g_power(k)) for k in range(1, m + 1)]
    return kron_sum(TensorContext(fctx, pair.n), terms)


def tilde_bound(pair: CompatiblePair, fctx, m_cap: int | None = None) -> GradedSubspace:
    """Closed-form upper bound: F.g plus ideal terms I_k (x) [g, g^(k+1)] and
    [F, I_(k-1)] (x) g^(k+1); with m_cap the partial sums S(k, m_cap - k)
    and S(k - 1, m_cap - k) take the place of I_k and I_(k-1), for k < m_cap."""
    step = _ideal_step(pair, fctx, m_cap, pair.g_power)
    terms = [(fctx.full_subspace(), pair.g)]
    terms += (_series("tilde_bound", pair, fctx, 1, step) if m_cap is None
              else [t for k in range(1, m_cap) for t in step(k)])
    return kron_sum(TensorContext(fctx, pair.n), terms)


def _ideal_step(pair: CompatiblePair, fctx, m_cap, second):
    """Step k >= 1 of tilde_bound and semisimple_closed_form: U_k (x) [g,
    g^(k+1)], [F, U_(k-1)] (x) second(k + 1) and 0 (x) g^(k+1), with U_j =
    I_j, or S(j, m_cap - k) under a cap; the filtration's memo forms each
    [F, U_j] once, shared with the chains of I_j and S(j, l).  The zero
    term makes the step determine the next one, as _series needs."""
    cache = filtration(fctx)
    zero = GradedSubspace.zero(fctx.ambient)

    def step(k):
        ideal = cache.ideal_Ik if m_cap is None else lambda j: cache.ideal_Ik_le(j, m_cap - k)
        ik, fik = ideal(k), cache.bracket(cache.base, ideal(k - 1))
        if ik.is_zero() and fik.is_zero():
            return ()
        return (ik, pair.bracket_power(k + 1)), (fik, second(k + 1)), (zero, pair.g_power(k + 1))

    return step


def overline_bound(pair: CompatiblePair, fctx, m_cap: int | None = None) -> GradedSubspace:
    """Refined upper bound built from two-index ideals of F and of (A, g).

    Terms are enumerated by layers s = k1+k2+l1+l2; in a graded context the
    layer dies once s+2 exceeds the truncation degree, otherwise enumeration
    stops after two layers contribute nothing new.

    Each (k1, k2, l1, l2) gives the factors t = (i1, i2, j1, j2), i1 =
    I(k1, l1+1), i2 = I(k2, l2+1) in F and j1 = J(l1, k1+1), j2 = J(l2,
    k2+1) in A, and the terms i1 i2 (x) [j1, j2] and [i1, i2] (x) j2 j1.
    Products and brackets of spans are monotone in each factor, and U <= U',
    V <= V' give U (x) V <= U' (x) V'; so when t <= t' factor by factor,
    both terms of t lie in those of t', and t adds nothing to the sum.  Only
    the undominated factor tuples (_undominated) are multiplied out.  A
    non-graded context reads the merged dimension after each layer, so
    there a tuple is pruned only by tuples of its own layer or earlier ones,
    and the sum after every layer is unchanged.
    """
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    jcache = pair.filtration
    terms = [(fctx.full_subspace(), pair.g)]
    graded = fctx.is_free
    max_layer = (fctx.ambient.max_degree - 2 if graded else _hard_cap(fctx, pair))
    if m_cap is not None:
        max_layer = min(max_layer, m_cap - 2)
    canon: dict[GradedSubspace, GradedSubspace] = {}
    below: dict[tuple[int, int], bool] = {}

    def leq(a, b):
        if (id(a), id(b)) not in below:
            below[id(a), id(b)] = a is b or (a.dim <= b.dim and a.issubset(b))
        return below[id(a), id(b)]

    kept, fresh = [], []
    dim = None
    stale = 0
    for s in range(max_layer + 1):
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
                    fresh.append(tuple(canon.setdefault(x, x) for x in (i1, i2, j1, j2)))
        if graded and s < max_layer:
            continue
        new = _undominated(kept, fresh, leq)
        kept, fresh = kept + new, []
        for i1, i2, j1, j2 in new:
            terms.append((cache.product(i1, i2), jcache.bracket(j1, j2)))
            terms.append((cache.bracket(i1, i2), jcache.product(j2, j1)))
        if not graded:
            prev, dim = dim, kron_sum(tctx, terms).dim
            stale = 0 if prev is None or dim > prev else stale + 1
            if stale >= 2:
                break
    return kron_sum(tctx, terms)


def _undominated(kept, fresh, leq) -> list:
    """The distinct tuples of fresh not in kept that no other tuple of kept
    or fresh dominates, factor by factor under leq.  Equal factors are one
    object, so leq is a partial order on distinct tuples and every pruned
    tuple lies below a returned or a kept one."""
    held = set(kept)
    fresh = [t for t in dict.fromkeys(fresh) if t not in held]
    pool = kept + fresh
    return [t for t in fresh if not any(u is not t and all(map(leq, t, u)) for u in pool)]


def identity_span(n: int) -> GradedSubspace:
    """The line spanned by the n x n identity matrix."""
    return span_of_matrices(n, [StructureContext.matrix_algebra(n).one()])


def sl_trace_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F' (x) 1 + F (x) sl, the trace-characterized span."""
    fprime = filtration(fctx).commutator_space(1)
    return kron_sum(TensorContext(fctx, pair.n), [
        (fctx.full_subspace(), pair.g),
        (fprime, identity_span(pair.n)),
    ])


def orthogonal_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F (x) g + F' (x) 1 + (FF' + F') (x) sl for a nondegenerate form."""
    fprime = filtration(fctx).commutator_space(1)
    ffp = filtration(fctx).product(fctx.full_subspace(), fprime).sum(fprime)
    return kron_sum(TensorContext(fctx, pair.n), [
        (fctx.full_subspace(), pair.g),
        (fprime, identity_span(pair.n)),
        (ffp, make_sl(pair.n).g),
    ])


def type2_formula(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F.g + F' (x) A + FF' (x) [A, A], exact for pairs of type 2."""
    if pair.pair_type() != 2:
        raise TypeMismatchError(f"{pair.name} is not of type 2")
    fprime = filtration(fctx).commutator_space(1)
    return kron_sum(TensorContext(fctx, pair.n), [
        (fctx.full_subspace(), pair.g),
        (fprime, pair.algebra),
        (filtration(fctx).product(fctx.full_subspace(), fprime),
         pair.filtration.bracket(pair.algebra, pair.algebra)),
    ])


def semisimple_closed_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F.g + sum over k >= 2 of I_(k-1) (x) [g, g^k] + [F, I_(k-2)] (x) Z_k(g)."""
    perfect, _ = pair.is_perfect()
    if not (pair.semisimple and perfect):
        raise ValueError("closed form requires a declared-semisimple perfect pair")
    step = _ideal_step(pair, fctx, None, pair.center_part)
    terms = [(fctx.full_subspace(), pair.g)]
    terms += _series("semisimple_closed_form", pair, fctx, 1, step)
    return kron_sum(TensorContext(fctx, pair.n), terms)


def sl2_module_span(n: int, k: int) -> GradedSubspace:
    """The irreducible piece generated by E^k: iterated ad F applied to E^k."""
    e, f, _ = sl2_irrep_matrices(n)
    b = SpanBuilder(Ambient([(0, n * n)]))
    cur = e**k
    for _ in range(2 * k + 1):
        b.add(cur.coeffs)
        cur = commutator(f, cur)
    return b.finalize()


def sl2_closed_form(n: int, fctx) -> GradedSubspace:
    """[F, F] (x) 1 + sum over k = 1..n-1 of I_(k-1) (x) V_(2k) for the
    n-dimensional irreducible module of sl2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    cache = filtration(fctx)
    terms = [(cache.commutator_space(1), identity_span(n))]
    for k in range(1, n):
        ideal = fctx.full_subspace() if k == 1 else cache.ideal_Ik(k - 1)
        terms.append((ideal, sl2_module_span(n, k)))
    return kron_sum(TensorContext(fctx, n), terms)


def lower_bound_terms(pair: CompatiblePair, fctx, k: int):
    """The two explicit subspaces F^(k) (x) g^(k+1) and F F^(k) (x) [g, g^(k+1)]
    that always embed into the closure."""
    if k < 0:
        raise ValueError("k must be >= 0")
    tctx = TensorContext(fctx, pair.n)
    cache = filtration(fctx)
    fk = fctx.full_subspace() if k == 0 else cache.commutator_space(k)
    ffk = cache.product(fctx.full_subspace(), fk)
    return (
        tensor_product_span(tctx, fk, pair.g_power(k + 1)),
        tensor_product_span(tctx, ffk, pair.bracket_power(k + 1)),
    )


def abelian_closure_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """Sum of F^(k) (x) g^(k+1): the exact closure for abelian g.

    F^(k) = [F, F^(k-1)] and g^(k+2) = g^(k+1) g, so each term determines
    the next, and the series stops as _series proves."""
    cache = filtration(fctx)

    def step(k):
        fk, gp = cache.commutator_space(k), pair.g_power(k + 1)
        return () if fk.is_zero() or gp.is_zero() else ((fk, gp),)

    terms = [(fctx.full_subspace(), pair.g)]
    terms += _series("abelian_closure_form", pair, fctx, 1, step)
    return kron_sum(TensorContext(fctx, pair.n), terms)


def simple_coefficients_form(pair: CompatiblePair, fctx) -> GradedSubspace:
    """F.g + F (x) [g, <g>] + [F, F] (x) <g>, exact when I_1(F) = F and the
    pair is perfect (for example 2x2 matrix coefficients)."""
    full = fctx.full_subspace()
    env = pair.envelope()
    return kron_sum(TensorContext(fctx, pair.n), [
        (full, pair.g),
        (full, pair.filtration.bracket(pair.g, env)),
        (filtration(fctx).commutator_space(1), env),
    ])
