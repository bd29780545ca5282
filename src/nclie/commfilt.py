"""Commutator filtration of a coefficient algebra.

Computes the iterated commutator spaces, the ideals spanned by products of
commutator spaces whose orders sum to a given k, their partial sums over the
number of factors, and the full two-sided ideals via the closed form
I_k = I_k^k + F * I_k^k.  The same machinery evaluated on a generating
subspace S gives the subset ideals used by the refined upper bound.

For unital free contexts everything is computed on the augmentation ideal:
the unit is central, so the spaces for k >= 1 coincide with the full-algebra
ones while staying inside the graded coordinates.
"""

from __future__ import annotations

from .pairs import UnsupportedError
from .subspace import GradedSubspace, bracket_saturate, op_bracket, op_product, subspace_sum


class FiltrationCache:
    """Memoized filtration data for one context (optionally for a subset S)."""

    def __init__(self, ctx, generating: GradedSubspace | None = None):
        self.ctx = ctx
        self._full_base = generating is None
        self.base = ctx.filtration_subspace() if generating is None else generating
        if self.base.ambient != ctx.ambient:
            raise ValueError("generating subspace lives in a different ambient")
        self._comm: dict[int, GradedSubspace] = {}
        self._ikl: dict[tuple[int, int], GradedSubspace] = {}
        self._ikle: dict[int, list[GradedSubspace]] = {}   # k -> partial sums over 1..j
        self._ikle_done: set[int] = set()   # k whose partial sums stopped growing
        self._ik: dict[int, GradedSubspace] = {}

    # -- commutator spaces --------------------------------------------------

    def commutator_space(self, k: int) -> GradedSubspace:
        """k-fold bracket span; k = 0 is the (filtration) algebra itself.

        The memo is filled upward and stops at the first repeat: C(k + 1) =
        [base, C(k)], so C(k) = C(k - 1) fixes every later space.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        comm = self._comm
        comm.setdefault(0, self.base)
        while k not in comm:
            top = len(comm) - 1
            if top and comm[top] == comm[top - 1]:
                return comm[top]
            comm[top + 1] = op_bracket(self.ctx, self.base, comm[top])
        return comm[k]

    # -- product ideals -------------------------------------------------------

    def ideal_Ikl(self, k: int, l: int) -> GradedSubspace:
        """Span of l-fold products of commutator spaces with orders summing to k.

        I(k, l) is the sum of C(i) I(k - i, l - 1) over the i with C(i)
        nonzero.  The entries that recursion would build are found level by
        level down to one factor, then built upward in the factor count, so
        no call stack grows with l.
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
                self._ikl[kk, j] = C(kk) if j == 1 else subspace_sum(self.ctx.ambient, [
                    op_product(self.ctx, C(i), self._ikl[kk - i, j - 1]) for i in range(kk + 1)
                    if not C(i).is_zero() and not self._ikl[kk - i, j - 1].is_zero()])
        return self._ikl[k, l]

    def ideal_Ik_le(self, k: int, l: int) -> GradedSubspace:
        """Sum of the product ideals over factor counts 1..l, filled upward
        from the largest factor count already held.

        The fill stops at the first factor count j with I(k', j) = 0 for
        every k' <= k: I(k', j + 1) is the sum of C(i) I(k' - i, j), so then
        I(k, j') = 0 for every j' > j, and every later partial sum is the
        one at j.  When C(c) = 0, every C(i) with i >= c vanishes too, so
        I(k', j), spanned by products of j commutator spaces with orders
        summing to k', is 0 for k' > (c - 1) j and is not built.  Past the
        stop nothing is built, whatever l is.
        """
        if k < 0 or l < 1:
            raise ValueError("need k >= 0 and l >= 1")
        sums = self._ikle.setdefault(k, [])
        if len(sums) < l and k not in self._ikle_done:
            C = self.commutator_space   # c: the least order with C(c) = 0, if one is found
            c = next((i for i in range(self.ctx.ambient.dim + 2) if C(i).is_zero()), None)
            while len(sums) < l and k not in self._ikle_done:
                j = len(sums) + 1
                top = k if c is None else min(k, (c - 1) * j)   # I(k', j) = 0 for k' > top
                part = self.ideal_Ikl(k, j) if top == k else GradedSubspace.zero(self.ctx.ambient)
                if sums:
                    part = sums[-1] if part.is_zero() else sums[-1].sum(part)
                sums.append(part)
                if all(self.ideal_Ikl(kk, j).is_zero() for kk in range(top + 1)):
                    self._ikle_done.add(k)
        return sums[min(l, len(sums)) - 1]

    def ideal_Ik(self, k: int) -> GradedSubspace:
        """The two-sided ideal: union of the partial sums over all factor counts.

        Computed as a joint fixed point: the partial sums for 0..k satisfy a
        monotone recursion in the factor-count bound, so once one more factor
        adds nothing at any index the union is reached.  (The closed form
        I_k = I_k^k + F I_k^k familiar from unital algebras fails on the
        augmentation ideal, where nothing pads short products.)
        """
        if not self._full_base:
            raise ValueError("two-sided ideals are defined for the full algebra only")
        if k < 0:
            raise ValueError("k must be >= 0")
        if k not in self._ik:
            if k == 0:
                self._ik[0] = self.base
            else:
                ell = 1
                cap = self.ctx.ambient.dim + k + 2
                while True:
                    stable = all(
                        self.ideal_Ik_le(j, ell + 1) == self.ideal_Ik_le(j, ell)
                        for j in range(k + 1)
                    )
                    if stable:
                        break
                    ell += 1
                    if ell > cap:
                        raise UnsupportedError(
                            f"ideal I_{k} did not stabilize within {cap} factors"
                        )
                self._ik[k] = self.ideal_Ik_le(k, ell)
        return self._ik[k]


def ideal_IklS(ctx, k: int, l: int, S: GradedSubspace) -> GradedSubspace:
    """Subset variant: products of bracket spans of S with orders summing to k."""
    return FiltrationCache(ctx, generating=S).ideal_Ikl(k, l)


def lie_generated(ctx, S: GradedSubspace) -> GradedSubspace:
    """Smallest Lie subalgebra containing S: saturate S against its brackets."""
    gens = [dict(v) for v in S.vectors()]
    return bracket_saturate(ctx, gens)


def two_sided_ideal(ctx, S: GradedSubspace) -> GradedSubspace:
    """Smallest two-sided ideal containing S, by multiplicative saturation.

    Independent of the closed form in FiltrationCache.ideal_Ik; used as an
    oracle when cross-checking that closed form.
    """
    full = ctx.full_subspace()
    current = S
    while True:
        grown = subspace_sum(
            ctx.ambient,
            [current, op_product(ctx, full, current), op_product(ctx, current, full)],
        )
        if grown == current:
            return current
        current = grown
