import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest

from nclie import commfilt
from nclie.coeffalg import FreeContext, StructureContext
from nclie.commfilt import FiltrationCache, ideal_IklS, lie_generated, two_sided_ideal
from nclie.pairs import CompatiblePair
from nclie.subspace import GradedSubspace, op_bracket, op_product, subspace_sum


NILPOTENT_TABLE = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]


def compositions_oracle(cache, k, l):
    """Direct definition: sum over all weak compositions of k into l parts."""
    ctx = cache.ctx
    parts = []
    for comp in itertools.product(range(k + 1), repeat=l):
        if sum(comp) != k:
            continue
        space = cache.commutator_space(comp[0])
        for lam in comp[1:]:
            if space.is_zero():
                break
            space = op_product(ctx, space, cache.commutator_space(lam))
        parts.append(space)
    return subspace_sum(ctx.ambient, parts)


def union_oracle(cache):
    """I_k as the two-sided ideal generated by the k-th commutator space plus
    all shorter-index products, saturated multiplicatively."""

    def at(k):
        gen = cache.commutator_space(k)
        for split in range(1, k):
            gen = gen.sum(op_product(cache.ctx, at(split), at(k - split)))
        return two_sided_ideal(cache.ctx, gen)

    return at


def test_span_memo_keys_by_the_operands(free23):
    # a bracket is keyed without the order of its factors, a product with it,
    # and factors of equal dimension are different keys; a hit returns the
    # span formed first
    cache = FiltrationCache(free23)
    x, y = (GradedSubspace.span(free23.ambient, [free23.generator(i).coeffs]) for i in (0, 1))
    assert cache.bracket(x, y) is cache.bracket(y, x)
    assert cache.bracket(x, y) == op_bracket(free23, x, y) and cache.bracket(x, y).dim == 1
    assert cache.bracket(x, x).is_zero() and cache.bracket(y, y).is_zero()
    assert cache.product(x, y) == op_product(free23, x, y)
    assert cache.product(y, x) == op_product(free23, y, x) != cache.product(x, y)
    assert cache.product(x, x) != cache.product(y, y)
    assert cache.product(x, y) is cache.product(x, y)


def test_commutative_filtration_vanishes():
    ctx = FreeContext(1, 4)
    cache = FiltrationCache(ctx)
    assert cache.commutator_space(1).is_zero()
    for k in range(1, 4):
        assert cache.ideal_Ik(k).is_zero()


def test_first_commutator_space_small():
    ctx = FreeContext(2, 2, unital=False)
    cache = FiltrationCache(ctx)
    assert [d for _, d in cache.commutator_space(1).dim_profile()] == [0, 1]
    xy = ctx.word_index[(0, 1)]
    yx = ctx.word_index[(1, 0)]
    assert cache.commutator_space(1).contains_vector({xy: 1, yx: -1})


def test_commutator_spaces_nest():
    cache = FiltrationCache(FreeContext(2, 5))
    for k in range(1, 5):
        assert cache.commutator_space(k).issubset(cache.commutator_space(k - 1))


def test_lie_generated(free23):
    ctx = free23
    full = ctx.filtration_subspace()
    assert lie_generated(ctx, full) == full
    x_line = GradedSubspace.span(ctx.ambient, [{ctx.word_index[(0,)]: 1}])
    assert lie_generated(ctx, x_line) == x_line
    span_xy = GradedSubspace.span(
        ctx.ambient, [{ctx.word_index[(0,)]: 1}, {ctx.word_index[(1,)]: 1}]
    )
    gen = lie_generated(ctx, span_xy)
    from nclie.coeffalg import commutator

    x, y = ctx.generators()
    bracket = commutator(x, y)
    for elem in (bracket, commutator(x, bracket), commutator(y, bracket)):
        assert gen.contains_vector(elem.to_vector())
    # the generated Lie algebra is smaller than the full commutator space:
    # it misses brackets of longer words such as [x, x*y]
    assert [d for _, d in gen.dim_profile()] == [0, 2, 1, 2]


def test_ikl_single_factor_and_zero_sum(free23):
    cache = FiltrationCache(free23)
    for k in range(4):
        assert cache.ideal_Ikl(k, 1) == cache.commutator_space(k)
    # all parts zero: l-fold product of the algebra with itself
    base = cache.base
    cube = op_product(free23, op_product(free23, base, base), base)
    assert cache.ideal_Ikl(0, 3) == cube


def test_ikl_recursion_against_direct_enumeration():
    cache = FiltrationCache(FreeContext(2, 5))
    for k in range(5):
        for l in range(1, 5):
            assert cache.ideal_Ikl(k, l) == compositions_oracle(cache, k, l)


def test_ideal_I0_is_algebra():
    ctx = FreeContext(2, 3, unital=False)
    cache = FiltrationCache(ctx)
    assert cache.ideal_Ik(0) == ctx.full_subspace()


def test_ideal_I1_profile_frozen():
    # independent oracle: I_1 is the two-sided ideal generated by [F, F];
    # the degree-3 component is already 4-dimensional at two generators
    ctx = FreeContext(2, 3)
    cache = FiltrationCache(ctx)
    oracle = two_sided_ideal(ctx, cache.commutator_space(1))
    i1 = cache.ideal_Ik(1)
    assert i1 == oracle
    assert [d for _, d in i1.dim_profile()] == [0, 0, 1, 4]


def test_ideal_union_oracle_matches():
    ctx = FreeContext(2, 4)
    cache = FiltrationCache(ctx)
    # I_2 contains the second commutator space itself (single factor)
    assert cache.commutator_space(2).issubset(cache.ideal_Ik(2))
    gen2 = cache.commutator_space(2).sum(
        op_product(ctx, cache.commutator_space(1), cache.commutator_space(1))
    )
    assert cache.ideal_Ik(2) == two_sided_ideal(ctx, gen2)


def test_ideals_are_two_sided():
    ctx = FreeContext(2, 4)
    cache = FiltrationCache(ctx)
    full = ctx.full_subspace()
    for k in (1, 2, 3):
        ik = cache.ideal_Ik(k)
        grown = subspace_sum(
            ctx.ambient, [ik, op_product(ctx, full, ik), op_product(ctx, ik, full)]
        )
        assert grown == ik


def test_ideals_nest_and_brackets_raise():
    cache = FiltrationCache(FreeContext(2, 4))
    for k in (1, 2, 3):
        assert cache.ideal_Ik(k).issubset(cache.ideal_Ik(k - 1))
        br = op_bracket(cache.ctx, cache.base, cache.ideal_Ik(k - 1))
        assert br.issubset(cache.ideal_Ik(k))


def test_subset_variant_reproduces_full(free23):
    cache = FiltrationCache(free23)
    full_base = free23.filtration_subspace()
    for k in range(3):
        for l in (1, 2):
            assert ideal_IklS(free23, k, l, full_base) == cache.ideal_Ikl(k, l)


def test_subset_variant_lemma_inclusions(free23):
    rng = random.Random(5)
    ctx = free23
    vs = [
        {rng.randrange(ctx.ambient.dim): Fraction(rng.randint(-2, 2)) for _ in range(2)}
        for _ in range(3)
    ]
    S = GradedSubspace.span(ctx.ambient, vs)
    sub = FiltrationCache(ctx, generating=S)
    # recursion over the first factor
    for k in range(3):
        for l in (2, 3):
            rhs = subspace_sum(
                ctx.ambient,
                [
                    op_product(ctx, sub.commutator_space(i), sub.ideal_Ikl(k - i, l - 1))
                    for i in range(k + 1)
                ],
            )
            assert sub.ideal_Ikl(k, l) == rhs
    # products and brackets shift both indices
    for (k, l), (kp, lp) in [((0, 1), (1, 1)), ((1, 1), (0, 2)), ((0, 2), (1, 1))]:
        prod = op_product(ctx, sub.ideal_Ikl(k, l), sub.ideal_Ikl(kp, lp))
        assert prod.issubset(sub.ideal_Ikl(k + kp, l + lp))
        br = op_bracket(ctx, sub.ideal_Ikl(k, l), sub.ideal_Ikl(kp, lp))
        assert br.issubset(sub.ideal_Ikl(k + kp + 1, l + lp - 1))


def test_subset_ideal_rejected_for_full_ideal(free23):
    S = GradedSubspace.span(free23.ambient, [{free23.word_index[(0,)]: 1}])
    sub = FiltrationCache(free23, generating=S)
    with pytest.raises(ValueError):
        sub.ideal_Ik(1)
    with pytest.raises(ValueError):
        sub.ideal_Ik_le(1, 2)


def test_nonunital_structure_filtration():
    from nclie.coeffalg import StructureContext

    # one nilpotent generator: x*x = y, x*y = y*x = y*y = 0; commutative,
    # so the whole filtration above level zero vanishes
    ctx = StructureContext(NILPOTENT_TABLE, labels=["x", "y"])
    cache = FiltrationCache(ctx)
    assert cache.commutator_space(1).is_zero()
    assert cache.ideal_Ik(1).is_zero()
    assert cache.ideal_Ikl(0, 2).dim == 1  # span of x*x


def test_matrix_backend_is_simple(m2ctx):
    cache = FiltrationCache(m2ctx)
    assert cache.commutator_space(1).dim == 3
    assert cache.ideal_Ik(1) == m2ctx.full_subspace()
    assert cache.ideal_Ik(2) == m2ctx.full_subspace()


def test_unital_closed_form_on_matrix_backend(m2ctx):
    # in a unital algebra the union collapses to I_k^k + F I_k^k
    cache = FiltrationCache(m2ctx)
    for k in (1, 2, 3):
        ikk = cache.ideal_Ikl(k, k)
        closed = ikk.sum(op_product(m2ctx, cache.base, ikk))
        assert closed == cache.ideal_Ik(k)


def test_deep_indices_fill_upward_without_recursion():
    # a call stack growing with an index would overflow the lowered limit: the
    # product ideals and partial sums fill upward in the factor count and the
    # index, the commutator spaces and the powers of g upward in the exponent
    cache = FiltrationCache(FreeContext(1, 2))
    pair = CompatiblePair(2, [[[1, 0], [0, 2]]])   # g^k = span{diag(1, 2^k)} never repeats
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert cache.ideal_Ik_le(0, 2000) == cache.ideal_Ik_le(0, 2) == cache.base
        assert cache.ideal_Ikl(0, 2000).is_zero()
        assert cache.commutator_space(3000).is_zero()
        # the ideals stop at I_D = 0 in a free context, so none past it is built
        assert cache.ideal_Ik(2000).is_zero() and len(cache._ideals._terms) <= 3
        assert pair.g_power(300).contains_vector({0: 1, 3: 2**300}) and pair.g_power(300).dim == 1
    finally:
        sys.setrecursionlimit(limit)


def reference_stop(cache, k):
    """The first factor count j with S(k', j) = S(k', j - 1) for every k' <= k,
    and S(k, j), from the product ideals alone."""
    sums = [GradedSubspace.zero(cache.ctx.ambient)] * (k + 1)
    for j in itertools.count(1):
        grown = [s.sum(cache.ideal_Ikl(kk, j)) for kk, s in enumerate(sums)]
        if grown == sums:
            return j, sums[k]
        sums = grown


@pytest.mark.parametrize("ctx", [
    FreeContext(2, 5), FreeContext(2, 3), StructureContext.matrix_algebra(2),
    FreeContext(2, 4, unital=False), FreeContext(1, 4), StructureContext.matrix_algebra(3),
    StructureContext(NILPOTENT_TABLE, labels=["x", "y"]),
], ids=["free-5", "free-3", "M_2", "free-nonunital", "free-m1", "M_3", "nilpotent"])
def test_ideal_is_the_partial_sum_at_the_joint_stop(ctx):
    # whichever index is asked for first, the memo of each index ends no
    # later than the first factor count where no partial sum of that index
    # or below grew, and in a free context no ideal past I_D = 0 is built
    ref = FiltrationCache(ctx)
    for order in (range(5), range(4, -1, -1)):
        cache = FiltrationCache(ctx)
        for k in order:
            stop, last = reference_stop(ref, k)
            assert cache.ideal_Ik(k) == cache.ideal_Ik_le(k, 10**4) == last
            assert len(cache._sums.term(k)) < stop   # S(k, 1), ..., S(k, j) = I_k, j < stop
            if ctx.is_free:
                assert len(cache._ideals._terms) <= ctx.ambient.max_degree + 1


def test_deep_partial_sums_over_m2_build_three_rows_at_most(m2ctx):
    # S(k + 1, l) is built from S(k, l - 1) and S(k, l), and the rows of the
    # partial sums stop at I_1 = I_0 = M_2, so deep indices build no product
    # ideal and no row past the stop
    cache = FiltrationCache(m2ctx)
    full = m2ctx.full_subspace()
    assert all(cache.ideal_Ik_le(k, 2) == full for k in range(3000))
    assert not cache._ikl and len(cache._sums._terms) <= 3


def test_commutator_spaces_stop_at_the_first_repeat(m2ctx, monkeypatch):
    # [M_2, M_2] = sl_2 and [M_2, sl_2] = sl_2: one repeat fixes every later
    # space, so two brackets are built, and once the repeat is recorded a
    # later call compares no spaces
    cache = FiltrationCache(m2ctx)
    brackets, comparisons = [], []
    monkeypatch.setattr(commfilt, "op_bracket", lambda *args, real=commfilt.op_bracket:
                        brackets.append(args) or real(*args))
    monkeypatch.setattr(GradedSubspace, "__eq__", lambda *args, real=GradedSubspace.__eq__:
                        comparisons.append(args) or real(*args))
    top = cache.commutator_space(10**6)
    assert len(brackets) == 2 and top.dim == 3
    comparisons.clear()
    for _ in range(5):
        assert cache.commutator_space(10**6) is top
    assert comparisons == [] and len(brackets) == 2


def test_ikl_multiplies_each_distinct_factor_pair_once(m2ctx, monkeypatch):
    # over M_2, C(i) = sl_2 for every i >= 1, so the eleven terms C(i) C(10 - i)
    # of I(10, 2) hold three distinct factor pairs: (M_2, sl_2), (sl_2, sl_2)
    # and (sl_2, M_2)
    cache = FiltrationCache(m2ctx)
    C = cache.commutator_space
    expected = subspace_sum(m2ctx.ambient, [op_product(m2ctx, C(i), C(10 - i)) for i in range(11)])
    products = []
    monkeypatch.setattr(commfilt, "op_product", lambda *args, real=commfilt.op_product:
                        products.append(args) or real(*args))
    assert cache.ideal_Ikl(10, 2) == expected
    assert len(products) == 3


def test_product_ideals_share_factor_pairs_across_entries(m2ctx, monkeypatch):
    # over M_2, I(j, 2) = M_2 for every j, so I(11, 2) has the factor pairs
    # of I(10, 2), and I(10, 3) adds only (M_2, M_2): every product of the
    # product ideals goes through the span memo
    cache = FiltrationCache(m2ctx)
    products = []
    monkeypatch.setattr(commfilt, "op_product", lambda *args, real=commfilt.op_product:
                        products.append(args) or real(*args))
    counts = []
    for k, l in ((10, 2), (11, 2), (10, 3)):
        assert cache.ideal_Ikl(k, l) == m2ctx.full_subspace()
        counts.append(len(products))
    assert counts == [3, 3, 4]


def test_ikl_builds_only_what_the_recursion_reaches():
    # the recursion in l skips I(k - i, l - 1) whenever C(i) is zero
    cache = FiltrationCache(FreeContext(2, 3))

    def reached(k, l):
        out = {(k, l)}
        if l > 1:
            for i in range(k + 1):
                if not cache.commutator_space(i).is_zero():
                    out |= reached(k - i, l - 1)
        return out

    cache.ideal_Ikl(1, 2)
    cache.ideal_Ikl(4, 4)
    assert set(cache._ikl) == reached(1, 2) | reached(4, 4)
    # C(3) and C(4) vanish at degree 3, so I(4, 4) never asks for I(1, 3) or I(0, 3)
    assert (1, 3) not in cache._ikl and (0, 3) not in cache._ikl


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def pbw_quotient_dims(m: int, D: int):
    """coef[d][c] = [t^d s^c] of prod over n of (1 - t^n s^(n-1))^(-l(n)), with
    l(n) = (1/n) sum over e | n of mu(e) m^(n/e), Witt's count of Lie words of
    length n on m letters.  By PBW, gr T(V) = Sym(FreeLie(V)), with a Lie
    word of length n in commutator degree n - 1, so dim (F/I_k)_d is the sum
    of coef[d][c] over c < k."""
    coef = [[0] * (D + 1) for _ in range(D + 1)]
    coef[0][0] = 1
    for n in range(1, D + 1):
        ell = sum(_mobius(e) * m ** (n // e) for e in range(1, n + 1) if n % e == 0) // n
        for _ in range(ell):   # times 1 / (1 - t^n s^(n-1))
            for d in range(n, D + 1):
                for c in range(n - 1, D + 1):
                    coef[d][c] += coef[d - n][c - (n - 1)]
    return coef


@pytest.mark.parametrize("m, D", [(2, 7), (3, 5)])
def test_ideal_dims_match_the_pbw_count(m, D):
    # an oracle independent of saturation and of products of subspaces, at
    # sizes the two-sided-ideal cross-check cannot reach
    coef = pbw_quotient_dims(m, D)
    cache = FiltrationCache(FreeContext(m, D))
    assert cache.ideal_Ik(0) == cache.base   # the augmentation ideal: F without its unit
    for k in range(1, D + 2):
        assert cache.ideal_Ik(k).dim_profile() == [
            (d, m**d - sum(coef[d][:k])) for d in range(D + 1)]
