"""Commutator filtration of a coefficient algebra.

Computes the iterated commutator spaces (a `Chain` that stops at its first
repeat), the ideals spanned by products of commutator spaces whose orders
sum to a given k, their partial sums over the number of factors, and the
full two-sided ideals as the limits of those partial sums.  The same
machinery evaluated on a generating subspace S gives the subset ideals
used by the refined upper bound.

For unital free contexts everything is computed on the augmentation ideal:
the unit is central, so the spaces for k >= 1 coincide with the full-algebra
ones while staying inside the graded coordinates.
"""

from __future__ import annotations

import math

from .subspace import Chain, GradedSubspace, bracket_saturate, op_bracket, op_product, subspace_sum


class FiltrationCache:
    """Memoized filtration data for one context (optionally for a subset S)."""

    def __init__(self, ctx, generating: GradedSubspace | None = None):
        self.ctx = ctx
        self._full_base = generating is None
        self.base = base = ctx.filtration_subspace() if generating is None else generating
        if base.ambient != ctx.ambient:
            raise ValueError("generating subspace lives in a different ambient")
        self._comm = Chain(base, lambda _, c: op_bracket(ctx, base, c))
        self._ikl: dict[tuple[int, int], GradedSubspace] = {}
        self._ikle: list[list[GradedSubspace]] = []   # [k][j]: S(k, j), from S(k, 0) = 0
        self._ikle_stable = -1   # the partial sums of every k <= this one have stopped,
        self._ikle_stop = 0   # at this factor count

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
        """S(k, l), the sum of the product ideals I(k, 1), ..., I(k, l).

        The partial sums of every index k' <= k are filled together, upward
        in the factor count, up to the first count j where none of them grew:
        S(k', j) = S(k', j - 1) for every k' <= k, with S(k', 0) = 0.  None
        grows after it, since I(k', j + 1) = sum_i C(i) I(k' - i, j) lies in
        sum_i C(i) S(k' - i, j - 1), which lies in S(k', j).  The k + 1 sums
        are chains in F, so they grow at most (k + 1) dim F times in all and
        the stop is reached; past it nothing is built, whatever l is.  When
        C(c) = 0, every C(i) with i >= c vanishes too, so I(k', j), spanned by
        products of j commutator spaces with orders summing to k', is 0 for
        k' > (c - 1) j and is not built.

        In a free context truncated at degree D, C(i) lies in degree
        i + 1 or more for i >= 1, and C(0) in degree 1 or more, so a product
        of commutator spaces with orders summing to k lies in degree k + 1
        or more: S(k, l) = 0 for k >= D, returned before anything is built.
        """
        if k < 0 or l < 1:
            raise ValueError("need k >= 0 and l >= 1")
        zero = GradedSubspace.zero(self.ctx.ambient)
        if self._full_base and self.ctx.is_free and k >= self.ctx.ambient.max_degree:
            return zero
        sums = self._ikle
        sums.extend([zero] for _ in range(k + 1 - len(sums)))
        if k > self._ikle_stable and len(sums[k]) <= l:
            C = self.commutator_space   # c: the least order with C(c) = 0, if one is found
            c = next((i for i in range(self.ctx.ambient.dim + 2) if C(i).is_zero()), None)
            while k > self._ikle_stable and len(sums[k]) <= l:
                j = len(sums[k])   # each lower index not yet stable holds S(k', j - 1) or more
                top = k if c is None else min(k, (c - 1) * j)   # I(k', j) = 0 for k' > top
                stable = j >= self._ikle_stop   # S(k', j) = S(k', j - 1) for every k' up to kk
                for kk in range(self._ikle_stable + 1, k + 1):
                    s = sums[kk]
                    if len(s) == j:
                        part = self.ideal_Ikl(kk, j) if kk <= top else zero
                        s.append(s[-1] if part.is_zero() else part if j == 1 else s[-1].sum(part))
                    stable = stable and s[j] == s[j - 1]
                    if stable:
                        self._ikle_stable, self._ikle_stop = kk, j
        return sums[k][min(l, len(sums[k]) - 1)]

    def ideal_Ik(self, k: int) -> GradedSubspace:
        """The two-sided ideal I_k: the union of the partial sums over all
        factor counts, which is the last one `ideal_Ik_le` builds before its
        proven stop.  (The closed form I_k = I_k^k + F I_k^k familiar from
        unital algebras fails on the augmentation ideal, where nothing pads
        short products.)
        """
        if not self._full_base:
            raise ValueError("two-sided ideals are defined for the full algebra only")
        if k < 0:
            raise ValueError("k must be >= 0")
        return self.ideal_Ik_le(k, math.inf)


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
