import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclie.subspace import (
    _GUARD,
    Ambient,
    GradedSubspace,
    SpanBuilder,
    _Block,
    _combine,
    _int_row,
    _primitive,
    bracket_saturate,
    fraction_nullspace,
    fraction_rref,
    fraction_solve,
    op_bracket,
    op_product,
    subspace_sum,
)

AMB = Ambient([(0, 1), (1, 2), (2, 4)])


def vec_strategy():
    idx = st.integers(min_value=0, max_value=AMB.dim - 1)
    val = st.integers(min_value=-4, max_value=4)
    return st.dictionaries(idx, val, max_size=4)


def test_span_empty_is_zero():
    z = GradedSubspace.span(AMB, [])
    assert z.is_zero() and z.dim == 0


def test_span_scaling_collapses():
    s = GradedSubspace.span(AMB, [{1: Fraction(1)}, {1: Fraction(2)}])
    assert s.dim == 1


def test_span_splits_graded_components():
    # a vector with parts in two degrees spans one line per degree
    s = GradedSubspace.span(AMB, [{0: 1, 2: 3}])
    assert [d for _, d in s.dim_profile()] == [1, 1, 0]
    # the first and the last index of every block land in that block
    vector, want = {}, {}
    for bi, ((_, size), start) in enumerate(zip(AMB.blocks, AMB.starts)):
        for loc in (0, size - 1):
            assert AMB.split({start + loc: 5}) == {bi: {loc: 5}}
            line = GradedSubspace.span(AMB, [{start + loc: 1}])
            assert [d for _, d in line.dim_profile()] == [int(b == bi) for b in range(3)]
            vector[start + loc] = start + loc + 1
            want.setdefault(bi, {})[loc] = start + loc + 1
    assert AMB.split(vector) == want


def test_full_span():
    vs = [{i: 1} for i in range(AMB.dim)]
    assert GradedSubspace.span(AMB, vs) == GradedSubspace.full(AMB)


@given(st.lists(vec_strategy(), max_size=5))
@settings(max_examples=60, deadline=None)
def test_span_idempotent_and_order_free(vectors):
    s1 = GradedSubspace.span(AMB, vectors)
    s2 = GradedSubspace.span(AMB, list(reversed(vectors)))
    assert s1 == s2
    again = GradedSubspace.span(AMB, list(s1.vectors()))
    assert again == s1


@given(st.lists(vec_strategy(), max_size=3), st.lists(vec_strategy(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_rank_identity(va, vb):
    s1 = GradedSubspace.span(AMB, va)
    s2 = GradedSubspace.span(AMB, vb)
    assert s1.sum(s2).dim + s1.intersect(s2).dim == s1.dim + s2.dim


def test_lattice_trivialities():
    s = GradedSubspace.span(AMB, [{1: 1, 2: 2}])
    zero = GradedSubspace.zero(AMB)
    assert s.sum(zero) == s
    assert s.intersect(s) == s
    assert zero.issubset(s) and s.issubset(s)


def test_contains_vector_rationals():
    s = GradedSubspace.span(AMB, [{1: Fraction(1, 3), 2: Fraction(1, 2)}])
    assert s.contains_vector({1: Fraction(2), 2: Fraction(3)})
    assert not s.contains_vector({1: Fraction(1)})


def test_contains_vectors_batch_matches_single():
    rng = random.Random(3)
    vs = [{rng.randrange(AMB.dim): rng.randint(-3, 3) for _ in range(3)} for _ in range(5)]
    s = GradedSubspace.span(AMB, vs[:3])
    board = [dict(v) for v in s.vectors()]
    assert s.contains_vectors(board)
    outsider = [{0: 1, 1: 1}]
    assert s.contains_vectors(outsider) == all(s.contains_vector(v) for v in outsider)


def test_big_integer_rows_stay_exact():
    big = 10**30
    s = GradedSubspace.span(AMB, [{1: big, 2: 1}])
    assert s.contains_vector({1: Fraction(big), 2: Fraction(1)})
    assert not s.contains_vector({1: Fraction(big), 2: Fraction(2)})
    assert s.dim == 1


def test_elimination_promotes_past_machine_range():
    # both inputs fit in int64 but the cross-multiplication cannot;
    # the row must be promoted, never truncated
    amb = Ambient([(0, 3)])
    a = 2**40
    s = GradedSubspace.span(amb, [{0: a, 1: 1}, {0: 1, 1: a}])
    assert s.dim == 2
    assert s.contains_vector({0: Fraction(a), 1: Fraction(1)})
    assert s.contains_vector({0: Fraction(a * a - 1)})  # (a,1)*a - (1,a)
    assert not s.contains_vector({2: Fraction(1)})


def test_op_product_and_bracket_free_words(free23):
    ctx = free23
    x = GradedSubspace.span(ctx.ambient, [{ctx.word_index[(0,)]: 1}])
    y = GradedSubspace.span(ctx.ambient, [{ctx.word_index[(1,)]: 1}])
    xy = op_product(ctx, x, y)
    assert xy.dim == 1 and xy.contains_vector({ctx.word_index[(0, 1)]: 1})
    br = op_bracket(ctx, x, y)
    assert br.dim == 1
    assert br.contains_vector({ctx.word_index[(0, 1)]: 1, ctx.word_index[(1, 0)]: -1})
    assert op_bracket(ctx, y, x) == br  # symmetric as subspaces


def test_op_product_closed_under_combinations(free23):
    # bilinearity: products of arbitrary members stay inside the product span
    ctx = free23
    rng = random.Random(8)
    vs = [
        {rng.randrange(ctx.ambient.dim): Fraction(rng.randint(-2, 2)) for _ in range(2)}
        for _ in range(4)
    ]
    s1 = GradedSubspace.span(ctx.ambient, vs[:2])
    s2 = GradedSubspace.span(ctx.ambient, vs[2:])
    prod = op_product(ctx, s1, s2)
    for a in combos(s1, rng):
        for b in combos(s2, rng):
            vec = {}
            for i, ci in a.items():
                for j, cj in b.items():
                    for k, ck in ctx.mul_basis(i, j):
                        vec[k] = vec.get(k, Fraction(0)) + ci * cj * ck
            assert prod.contains_vector(vec)


def combos(space, rng):
    rows = [dict(v) for v in space.vectors()]
    out = []
    for _ in range(3):
        acc: dict = {}
        for row in rows:
            c = rng.randint(-2, 2)
            for i, v in row.items():
                acc[i] = acc.get(i, Fraction(0)) + c * v
        out.append(acc)
    return out


def test_saturation_with_huge_coefficients(free23):
    ctx = free23
    big = 10**25
    x, y = ctx.word_index[(0,)], ctx.word_index[(1,)]
    line = bracket_saturate(ctx, [{x: 1, y: big}])
    # a lone generator spans a line; the huge coefficient stays exact
    assert [d for _, d in line.dim_profile()][0:2] == [0, 1]
    assert line.contains_vector({x: 1, y: big})
    assert not line.contains_vector({x: 1, y: big - 1})
    # same span from differently presented generators
    sat = bracket_saturate(ctx, [{x: 1, y: big}, {y: 1}])
    plain = bracket_saturate(ctx, [{x: 1}, {y: 1}])
    assert sat == plain


def test_bracket_saturate_matches_repeated_ops(free23):
    ctx = free23
    gens = [{ctx.word_index[(0,)]: 1}, {ctx.word_index[(1,)]: 1}]
    sat = bracket_saturate(ctx, gens)
    s = GradedSubspace.span(ctx.ambient, gens)
    acc = s
    while True:
        grown = acc.sum(op_bracket(ctx, s, acc))
        if grown == acc:
            break
        acc = grown
    assert sat == acc


def test_bracket_saturate_layer_cap(free23):
    ctx = free23
    gens = [{ctx.word_index[(0,)]: 1}, {ctx.word_index[(1,)]: 1}]
    layer1 = bracket_saturate(ctx, gens, sweeps=0)
    assert layer1 == GradedSubspace.span(ctx.ambient, gens)
    layer2 = bracket_saturate(ctx, gens, sweeps=1)
    assert GradedSubspace.span(ctx.ambient, gens).issubset(layer2)
    assert layer2.issubset(bracket_saturate(ctx, gens))


def test_subspace_sum_helper():
    a = GradedSubspace.span(AMB, [{1: 1}])
    b = GradedSubspace.span(AMB, [{2: 1}])
    assert subspace_sum(AMB, [a, b]) == a.sum(b)


def test_ambient_mismatch_raises():
    other = Ambient([(0, 2)])
    a = GradedSubspace.zero(AMB)
    b = GradedSubspace.zero(other)
    with pytest.raises(ValueError):
        a.sum(b)


def test_json_serialization():
    s = GradedSubspace.span(AMB, [{1: Fraction(1, 2), 2: 1}, {3: 2, 4: -2}])
    blocks = s.to_jsonable()
    assert [b["degree"] for b in blocks] == [1, 2]
    assert all(b["dim"] == len(b["rows"]) for b in blocks)
    # entries are [index, numerator, pivot] triples of a primitive row
    first_row = blocks[0]["rows"][0]
    assert all(len(cell) == 3 for cell in first_row)


def test_fraction_solvers_roundtrip():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    sol = fraction_solve(rows, [Fraction(3), Fraction(2)])
    assert sol == [Fraction(1), Fraction(1)]
    assert fraction_solve([[Fraction(1), Fraction(1)]], [Fraction(5)]) is not None
    assert fraction_solve(
        [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]],
        [Fraction(1), Fraction(2)],
    ) is None
    null = fraction_nullspace([[Fraction(1), Fraction(2), Fraction(0)]])
    assert len(null) == 2
    for v in null:
        assert sum(a * b for a, b in zip([Fraction(1), Fraction(2), Fraction(0)], v)) == 0
    rref, pivots = fraction_rref([[Fraction(0), Fraction(2)], [Fraction(0), Fraction(4)]])
    assert pivots == [1] and rref == [[Fraction(0), Fraction(1)]]


# -- the elimination kernel against the full-scan loops ---------------------------------


def reference_int_row(width, comp):
    """The object-array intake: build every row as objects, then narrow to int64."""
    denom = 1
    for v in comp.values():
        if isinstance(v, Fraction):
            denom = denom // math.gcd(denom, v.denominator) * v.denominator
    arr = np.zeros(width, dtype=object)
    amax = 0
    for j, v in comp.items():
        n = int(v * denom) if isinstance(v, Fraction) else int(v) * denom
        arr[j] = n
        amax = max(amax, abs(n))
    if amax == 0:
        return None, 0
    if amax < _GUARD:
        arr = arr.astype(np.int64)
    return arr, amax


class ReferenceBlock:
    """The full-scan echelon block: reduce visits every stored row."""

    def __init__(self):
        self.rows, self.pivots, self.maxes = [], [], []

    def reduce(self, arr, amax):
        rows, pivots, maxes = self.rows, self.pivots, self.maxes
        for i in range(len(rows)):
            c = arr[pivots[i]]
            if c == 0:
                continue
            arr, bound = _combine(int(rows[i][pivots[i]]), rows[i], maxes[i], int(c), arr, amax)
            if bound >= (1 << 40):
                arr, _, amax = _primitive(arr)
                if arr is None:
                    return None, -1, 0
            else:
                amax = bound
        return _primitive(arr)

    def insert(self, arr, amax):
        arr, pivot, amax = self.reduce(arr, amax)
        if arr is None:
            return None
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < pivot:
            pos += 1
        self.rows.insert(pos, arr)
        self.pivots.insert(pos, pivot)
        self.maxes.insert(pos, amax)
        return arr


def reference_reduce_to_zero(mat, pivots, arr, amax):
    """The full-scan membership test, recomputing each row's maximum."""
    for i in range(mat.shape[0]):
        c = arr[pivots[i]]
        if c == 0:
            continue
        row = mat[i]
        piv = int(row[pivots[i]])
        rmax = int(max(row.max(), -row.min()))
        arr, bound = _combine(piv, row, rmax, int(c), arr, amax)
        if bound >= (1 << 40):
            arr, _, amax = _primitive(arr)
            if arr is None:
                return True
        else:
            amax = bound
    return not arr.any()


def reference_subspace_sum(ambient, parts):
    """The re-inserting sum: every row of every part goes through elimination."""
    b = SpanBuilder(ambient)
    for p in parts:
        if p.ambient != ambient:
            raise ValueError("ambient mismatch")
        for bi, _, mat in p.block_rows():
            for r in range(mat.shape[0]):
                b.add_block_row(bi, mat[r].copy())
    return b.finalize()


def same_array(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.tolist() == b.tolist()


def assert_same_subspace(new, ref):
    assert new == ref
    assert new.to_jsonable() == ref.to_jsonable()
    assert [None if m is None else m.dtype for m in new._rows] == [
        None if m is None else m.dtype for m in ref._rows
    ]
    assert hash(new) == hash(ref)


WIDTH = 6
BIG = st.integers(2**62, 2**66) | st.integers(-(2**66), -(2**62))
ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-(2**41), 2**41), BIG)
ROW = st.tuples(st.lists(ENTRY, min_size=WIDTH, max_size=WIDTH), st.integers(1, 4))


def as_comp(row):
    entries, denom = row
    return {j: Fraction(v, denom) for j, v in enumerate(entries) if v}


@given(st.lists(ROW, max_size=8), st.lists(ROW, max_size=4))
@example(  # both rows fit in int64, their cross-multiplication does not
    rows=[([2**40, 1, 0, 0, 0, 0], 1), ([1, 2**40, 0, 0, 0, 1], 1), ([3, 0, 0, 0, 0, 2**40], 1)],
    probes=[([2**80 - 1, 0, 0, 0, 0, 2**40], 1), ([0, 0, 1, 0, 0, 0], 1)],
)
@example(  # an object row, then rows the promoted combines reduce back to int64
    rows=[([1, 2**63, 0, 0, 0, 0], 1), ([0, 1, 0, 0, 0, 0], 2), ([5, 0, 7, 0, 0, 0], 1)],
    probes=[([1, 2**63 + 1, 0, 0, 0, 0], 3), ([0, 0, 0, 1, 0, 0], 1)],
)
@settings(max_examples=150, deadline=None)
def test_elimination_kernel_matches_full_scan(rows, probes):
    amb = Ambient([(0, WIDTH)])
    blk, ref = _Block(WIDTH), ReferenceBlock()
    builder = SpanBuilder(amb)
    for row in rows:
        comp = as_comp(row)
        arr, amax = _int_row(WIDTH, comp)
        ref_arr, ref_amax = reference_int_row(WIDTH, comp)
        assert same_array(arr, ref_arr) and amax == ref_amax
        builder.add(comp)
        if arr is None:
            continue
        assert same_array(blk.insert(arr, amax), ref.insert(ref_arr, ref_amax))
    assert blk.pidx.tolist() == ref.pivots
    assert blk.maxes == ref.maxes
    assert all(same_array(a, b) for a, b in zip(blk.rows, ref.rows))
    assert len(blk.rows) == len(ref.rows)

    span = builder.finalize()
    if span.is_zero():
        return
    mat, piv = span._rows[0], span._pivots[0]
    for row in rows + probes:
        comp = as_comp(row)
        arr, amax = reference_int_row(WIDTH, comp)
        if arr is None:
            continue
        verdict = reference_reduce_to_zero(mat, piv, arr.copy(), amax)
        assert span.contains_vector(comp) == verdict
        assert span.contains_block_row(0, arr.copy(), amax) == verdict
        assert span.contains_block_row(0, arr.copy()) == verdict
    assert span._echelon(0)[1] == [int(max(r.max(), -r.min())) for r in mat]


def sum_parts():
    amb = Ambient([(0, 2), (1, 3), (2, 4)])
    big = 2**63
    a = GradedSubspace.span(amb, [{2: 1, 4: big}, {3: 1}, {5: 2, 8: -1}, {6: 1, 7: 1}])
    b = GradedSubspace.span(amb, [{4: 1}, {5: 1, 6: 1}, {0: 1}])
    # a's degree-1 matrix is object only for its first row; in a + b it becomes int64
    c = GradedSubspace.span(amb, [{2: 1, 3: 1, 4: 3}, {7: big, 8: 1}])
    zero = GradedSubspace.zero(amb)
    return amb, [a, b, c, zero, a.intersect(c)]


@pytest.mark.parametrize("pick", [
    (0, 1), (1, 0), (0, 0), (0, 3), (3, 3), (0, 2), (2, 1), (0, 4), (4, 0),
    (0, 1, 2), (2, 1, 0), (3, 0, 3, 1), (), (3,),
])
def test_subspace_sum_matches_reinsertion(pick):
    amb, parts = sum_parts()
    assert parts[0]._rows[1].dtype == object
    chosen = [parts[k] for k in pick]
    new = subspace_sum(amb, chosen)
    assert_same_subspace(new, reference_subspace_sum(amb, chosen))
    if len(chosen) == 2:
        assert_same_subspace(chosen[0].sum(chosen[1]), new)


def test_subspace_sum_adopted_object_rows_narrow():
    amb, (a, b, *_) = sum_parts()
    total = subspace_sum(amb, [a, b])
    assert total._rows[1].dtype == np.int64
    assert_same_subspace(total, reference_subspace_sum(amb, [a, b]))


@given(st.lists(st.lists(vec_strategy(), max_size=4), max_size=4))
@settings(max_examples=60, deadline=None)
def test_subspace_sum_matches_reinsertion_random(groups):
    parts = [GradedSubspace.span(AMB, vs) for vs in groups]
    parts += parts[:1]  # an overlapping part
    assert_same_subspace(subspace_sum(AMB, parts), reference_subspace_sum(AMB, parts))


def test_subspace_sum_ambient_mismatch_raises_first():
    other = GradedSubspace.full(Ambient([(0, 2)]))
    good = GradedSubspace.full(AMB)
    with pytest.raises(ValueError):
        subspace_sum(AMB, [good, good, other])
    with pytest.raises(ValueError):
        subspace_sum(AMB, iter([other, good]))
    with pytest.raises(ValueError):
        good.sum(other)
