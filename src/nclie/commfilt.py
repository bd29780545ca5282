"""Commutator filtration of a coefficient algebra.

Computes the iterated commutator spaces C(k + 1) = [B, C(k)], the ideals
I(k, l) spanned by products of l commutator spaces whose orders sum to k,
their partial sums S(k, l) over the factor count, and the two-sided ideals
I_k, their unions, by the proven recursions S(k + 1, l) = B [B, S(k, l - 1)]
+ [B, S(k, l)] and I_(k+1) = B [B, I_k] + [B, I_k], from C(0) = I_0 = B, the
base.  The commutator spaces, the ideals I_k and the rows of the partial
sums are each a `Chain` that stops at its first repeat; one memo forms each
of their brackets and products once.  The product ideals on a generating
subspace S give the subset ideals of the refined bound.

For unital free contexts everything is computed on the augmentation ideal:
the unit is central, so the spaces for k >= 1 coincide with the full-algebra
ones while staying inside the graded coordinates.
"""

from __future__ import annotations

from .subspace import Chain, GradedSubspace, bracket_saturate, op_bracket, op_product, subspace_sum


class FiltrationCache:
    """Memoized filtration data for one context (optionally for a subset S)."""

    def __init__(self, ctx, generating: GradedSubspace | None = None):
        self.ctx = ctx
        self._full_base = generating is None
        self.base = base = ctx.filtration_subspace() if generating is None else generating
        if base.ambient != ctx.ambient:
            raise ValueError("generating subspace lives in a different ambient")
        self._spans: dict = {}
        self._comm = Chain(base, lambda _, c: self.bracket(base, c))
        self._ideals = ideals = Chain(base, lambda _, i: _next_ideal(self, i, i))
        self._sums = Chain((base,), lambda k, row: _next_sums(self, row, ideals.term(k + 1)))
        self._ikl: dict[tuple[int, int], GradedSubspace] = {}

    # -- spans of brackets and products ---------------------------------------

    def bracket(self, a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
        """[a, b], formed once per unordered pair: [b, a] spans the same space."""
        key = frozenset((a, b))
        if key not in self._spans:
            self._spans[key] = op_bracket(self.ctx, a, b)
        return self._spans[key]

    def product(self, a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
        """a b, formed once per ordered pair."""
        if (a, b) not in self._spans:
            self._spans[a, b] = op_product(self.ctx, a, b)
        return self._spans[a, b]

    # -- commutator spaces --------------------------------------------------

    def commutator_space(self, k: int) -> GradedSubspace:
        """k-fold bracket span; k = 0 is the (filtration) algebra itself.

        The chain stops at the first repeat C(k + 1) = C(k): every later
        space is [base, C(k)] again.  A base closed under brackets makes the
        spaces decrease, so the repeat comes; a generating S may have none.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        return self._comm.term(k)

    # -- product ideals -------------------------------------------------------

    def ideal_Ikl(self, k: int, l: int) -> GradedSubspace:
        """Span of l-fold products of commutator spaces with orders summing to k.

        I(k, l) is the sum of C(i) I(k - i, l - 1) over the i with C(i)
        nonzero.  The entries that recursion would build are found level by
        level down to one factor, then built upward in the factor count, so
        no call stack grows with l.  Each distinct factor pair is multiplied
        once: past the stop of the commutator chain every C(i) is the same.
        """
        if k < 0 or l < 1:
            raise ValueError("need k >= 0 and l >= 1")
        C = self.commutator_space
        levels = []  # (factor count, indices still to build), from l down
        ks, j = {k}, l
        while ks:
            ks = {kk for kk in ks if (kk, j) not in self._ikl}
            levels.append((j, ks))
            if j == 1:
                break
            ks = {kk - i for kk in ks for i in range(kk + 1) if not C(i).is_zero()}
            j -= 1
        for j, ks in reversed(levels):
            for kk in sorted(ks):
                factors = dict.fromkeys((C(i), self._ikl[kk - i, j - 1]) for i in range(kk + 1)
                                        if j > 1 and not C(i).is_zero())
                self._ikl[kk, j] = C(kk) if j == 1 else subspace_sum(self.ctx.ambient, [
                    op_product(self.ctx, a, b) for a, b in factors if not b.is_zero()])
        return self._ikl[k, l]

    def ideal_Ik_le(self, k: int, l: int) -> GradedSubspace:
        """S(k, l), the sum of the product ideals I(k, 1), ..., I(k, l), read
        off a chain of rows (S(k, 1), ..., S(k, L)) from row 0 = (B) by
        S(k + 1, l) = B [B, S(k, l - 1)] + [B, S(k, l)], with S(k, 0) = 0.

        The right side lies in S(k + 1, l): by the Leibniz rule, [b, x_1 ...
        x_j] is a sum of products of j factors in which the order of one
        factor rose by 1, and b' times such a product is one with one more
        factor, of order 0.  Conversely, by linearity, take a product x_1 ...
        x_j, j <= l, with orders i_1, ..., i_j summing to k + 1, and let x_t =
        [b, y] be its first factor of positive order, y of order i_t - 1.
        Write it P [b, y] Q, with P empty (t = 1) or in the subalgebra B, one
        factor.  Then P [b, y] Q = P [b, y Q] - P y [b, Q], with y Q in
        S(k, j - t + 1), so the first term lies in [B, S(k, l)] or in
        B [B, S(k, l - 1)].  By the Leibniz rule the second is a sum of
        products of j factors in which one unit of order moved from x_t to a
        later factor; that lowers the weight sum_t i_t (j - t), and induction
        on the weight ends the proof.

        The S(k, l) grow in l inside I_k, their union, so a row is cut at its
        first S(k, L) = I_k, and S(k, l) = I_k for l >= L.  Row k + 1 is a
        function of row k alone, at most one longer, so every row past the
        first repeat repeats; the rows decrease in k, so it has period 1.
        """
        if k < 0 or l < 1:
            raise ValueError("need k >= 0 and l >= 1")
        self.ideal_Ik(k)   # raises for a generating S
        row = self._sums.term(k)
        return row[min(l, len(row)) - 1]

    def ideal_Ik(self, k: int) -> GradedSubspace:
        """The two-sided ideal I_k: the span of the products of commutator
        spaces, with any number of factors, whose orders sum to k.  It is
        read off the chain I_0 = B, I_(k+1) = B [B, I_k] + [B, I_k], with B
        the base, a subalgebra: the union over l of the recursion of S(k, l)
        that ideal_Ik_le proves.

        So I_(k+1) is a function of I_k alone, and it lies in I_k, which is a
        two-sided ideal of B.  The decreasing chain stops at its first repeat,
        with period 1.  In a free context truncated at degree D, I_k lies in
        degree k + 1 or more, so the chain stops at I_D = 0 at the latest.
        (The closed form I_k = I_k^k + F I_k^k familiar from unital algebras
        fails on the augmentation ideal, where nothing pads short products.)
        """
        if not self._full_base:
            raise ValueError("two-sided ideals are defined for the full algebra only")
        if k < 0:
            raise ValueError("k must be >= 0")
        return self._ideals.term(k)


def _next_ideal(cache: FiltrationCache, a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """B [B, a] + [B, b]: I_(k+1) from a = b = I_k, and S(k + 1, l) from
    a = S(k, l - 1) and b = S(k, l), as FiltrationCache.ideal_Ik_le proves."""
    base = cache.base
    return cache.product(base, cache.bracket(base, a)).sum(cache.bracket(base, b))


def _next_sums(cache: FiltrationCache, row: tuple, ideal: GradedSubspace) -> tuple:
    """Row k + 1 of the partial sums from row k, cut at ideal = I_(k+1), which
    is S(k + 1, L + 1) = B [B, I_k] + [B, I_k] for L the length of row k."""
    out = []
    for a, b in zip((GradedSubspace.zero(cache.ctx.ambient), *row), row):
        out.append(_next_ideal(cache, a, b))
        if out[-1] == ideal:
            return tuple(out)
    return (*out, ideal)


def ideal_IklS(ctx, k: int, l: int, S: GradedSubspace) -> GradedSubspace:
    """Subset variant: products of bracket spans of S with orders summing to k."""
    return FiltrationCache(ctx, generating=S).ideal_Ikl(k, l)


def lie_generated(ctx, S: GradedSubspace) -> GradedSubspace:
    """Smallest Lie subalgebra containing S: saturate S against its brackets."""
    gens = [dict(v) for v in S.vectors()]
    return bracket_saturate(ctx, gens)


def two_sided_ideal(ctx, S: GradedSubspace) -> GradedSubspace:
    """Smallest two-sided ideal containing S, by multiplicative saturation:
    the chain J + F J + J F grows inside F, so it stops, at the ideal.

    Independent of the closed form in FiltrationCache.ideal_Ik; used as an
    oracle when cross-checking that closed form.
    """
    full = ctx.full_subspace()
    return Chain(S, lambda _, J: subspace_sum(
        ctx.ambient, [J, op_product(ctx, full, J), op_product(ctx, J, full)])).limit()
