import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclie import subspace as subspace_module
from nclie.coeffalg import FreeContext, StructureContext
from nclie.current import TensorContext
from nclie.subspace import (
    _GUARD,
    Ambient,
    Chain,
    GradedSubspace,
    SpanBuilder,
    _Block,
    _combine,
    _entries,
    _int_row,
    _primitive,
    _support,
    bracket_closed,
    bracket_saturate,
    clear_denominators,
    exact_product,
    fraction_left_kernel,
    fraction_nullspace,
    fraction_rref,
    fraction_solve,
    op_bracket,
    op_product,
    product_dtype,
    sparse_product,
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


def reference_saturate(ctx, generators):
    """Saturation with no degree skipping: bracket every generator with every
    basis vector of the span until the span stops growing."""
    span = GradedSubspace.span(ctx.ambient, generators)
    while True:
        vectors = list(span.vectors())
        grown = GradedSubspace.span(ctx.ambient, vectors + [
            sparse_product(ctx.mul_basis, g.items(), v.items(), True)
            for g in generators for v in vectors
        ])
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("gens", [
    [{5: 1, 1: 1}, {2: 1}],          # y*x + x, and y
    [{3: 1, 1: 1}, {4: 1, 2: 1}],    # x*x + x, and x*y + y
    [{7: 2, 1: 1}, {2: 1, 14: -1}],  # degree 3 plus degree 1, and y
])
def test_bracket_saturate_inhomogeneous_generators(free23, gens):
    # a generator's brackets start at its lowest degree, not at the degree of
    # its first entry
    sat = bracket_saturate(free23, gens)
    assert bracket_closed(free23, sat)
    ref = reference_saturate(free23, gens)
    assert sat == ref and sat.to_jsonable() == ref.to_jsonable()


def reference_bracket_saturate(ctx, generators, sweeps=None):
    """The saturation loop with neither the pairwise first sweep nor the
    filter: every sweep, the first included, offers [g, v] for every
    generator g and every row v the last sweep stored to the echelon
    engine, one vector at a time."""
    amb = ctx.ambient
    builder = SpanBuilder(amb)
    gens, frontier = [], []
    for g in generators:
        items = [(i, v) for i, v in (g.items() if isinstance(g, dict) else g) if v]
        if not items:
            continue
        gens.append((min(amb.degree_of(i) for i, _ in items), items))
        frontier.extend(builder.add_tracked(dict(items)))
    rounds = 0
    while frontier and (sweeps is None or rounds < sweeps):
        rounds += 1
        fresh = []
        for bi, row in frontier:
            deg, items = amb.blocks[bi][0], _support(_entries(row), amb.starts[bi])
            for deg_g, items_g in gens:
                if deg_g + deg <= amb.max_degree:
                    fresh.extend(builder.add_tracked(sparse_product(ctx.mul_basis, items_g, items, True)))
        frontier = fresh
    return builder.finalize()


def assert_same_rows(new, ref):
    """Bit-identical canonical forms: equal pivots, rows and row dtypes."""
    assert new._pivots == ref._pivots
    for a, b in zip(new._rows, ref._rows):
        assert same_array(a, b)


SATURATION_CONTEXTS = (FreeContext(2, 3), FreeContext(3, 2))
COEFFICIENT = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.integers(2**53, 2**56),      # past float64: the filter's products run in int64
    st.integers(2**62, 2**66),      # past int64: they run on Python integers
    st.sampled_from((-(2**53) - 1, -(2**62), 2**31 - 1)),
)


@st.composite
def saturation_inputs(draw):
    """Generators on a small free context, some homogeneous and some spread
    over several degrees, with coefficients up to past 2^62."""
    ctx = draw(st.sampled_from(SATURATION_CONTEXTS))
    amb = ctx.ambient
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            bi = draw(st.integers(0, len(amb.blocks) - 1))
            index = st.integers(amb.starts[bi], amb.starts[bi] + amb.blocks[bi][1] - 1)
        else:
            index = st.integers(0, amb.dim - 1)
        gens.append(draw(st.dictionaries(index, COEFFICIENT, min_size=1, max_size=3)))
    if draw(st.booleans()):
        # a degree-1 generator, and at least half of a higher block, so that
        # the sweeps filter the brackets landing there
        gens.append({draw(st.integers(amb.starts[1], amb.starts[2] - 1)): 1})
        bi = draw(st.integers(2, len(amb.blocks) - 1))
        cols = st.integers(amb.starts[bi], amb.starts[bi] + amb.blocks[bi][1] - 1)
        for _ in range((amb.blocks[bi][1] + 1) // 2):
            gens.append(draw(st.dictionaries(cols, COEFFICIENT, min_size=1, max_size=2)))
    return ctx, gens, draw(st.sampled_from((None, 0, 1, 2, 3)))


# Two inputs with entries past 2^62 and 2^53: M_2, where a block is the
# whole algebra, and a free context with several generators per degree.
FULL_COLUMN_CHUNKS = (StructureContext.matrix_algebra(2), [{0: 1, 1: 2**62 + 1}, {2: 2**53 + 1, 3: 1}], None)
FEW_COLUMN_CHUNKS = (SATURATION_CONTEXTS[0], [{1: 1}, {2: 1}, {4: 2**53 + 1, 5: 1}, {7: 1},
                                              {8: 2**62 + 1, 9: 1}, {13: 1}, {14: 1}], None)


@given(saturation_inputs())
@example(FULL_COLUMN_CHUNKS)
@example(FEW_COLUMN_CHUNKS)
@example((SATURATION_CONTEXTS[0], [{1: 1}, {2: 1}, {3: 2**62, 5: 1}], None))
@example((SATURATION_CONTEXTS[0], [{1: 1, 3: 2**53 + 1}, {2: 1, 14: 2**62}], 2))
@example((SATURATION_CONTEXTS[1], [{1: 1}, {2: 1}, {3: 1}], 1))
@settings(max_examples=120, deadline=None)
def test_bracket_saturate_matches_reference_loop(inputs):
    ctx, gens, sweeps = inputs
    assert_same_rows(bracket_saturate(ctx, gens, sweeps), reference_bracket_saturate(ctx, gens, sweeps))


@pytest.mark.parametrize("p", [2, 3, 32749, 65521, 2097143, 2**31 - 1, 2**53 + 5, 2**61 - 1])
def test_saturation_keeps_a_bracket_congruent_to_the_span(free23, p):
    # The generator s = [x, [x, y]] + p xxx puts c = [x, [x, y]], which the
    # second sweep offers, at p xxx from the span: c is not in the span at
    # the start of that sweep, yet its image under that span's nullspace is
    # p times an integer row, so a filter testing membership modulo p would
    # drop it.  With yyy, xyx and [x, yy] the degree-3 block is half full
    # when the second sweep starts, so that sweep filters it.
    w = free23.word_index
    c = {w[(0, 0, 1)]: 1, w[(0, 1, 0)]: -2, w[(1, 0, 0)]: 1}
    gens = [{w[(0,)]: 1}, {w[(1,)]: 1}, {w[(1, 1)]: 1}, {**c, w[(0, 0, 0)]: p},
            {w[(1, 1, 1)]: 1}, {w[(0, 1, 0)]: 1}]
    sat = bracket_saturate(free23, gens)
    assert sat.contains_vector(c)
    assert_same_rows(sat, reference_bracket_saturate(free23, gens))


TENSOR_CONTEXTS = (TensorContext(FreeContext(2, 3), 2), TensorContext(FreeContext(2, 2), 3))
TENSOR_COEFFICIENT = st.one_of(COEFFICIENT, st.builds(Fraction, st.integers(-7, 7).filter(bool),
                                                      st.integers(2, 9)))


@st.composite
def tensor_saturation_inputs(draw):
    """Generators of F (x) M_n that are not pure in the word, spread over
    several degrees, with coefficients past 2^53 and 2^62 and Fractions,
    and, half the time, a few word-pure matrix units that make the
    saturation grow."""
    ctx = draw(st.sampled_from(TENSOR_CONTEXTS))
    index = st.integers(0, ctx.ambient.dim - 1)
    gens = [draw(st.dictionaries(index, TENSOR_COEFFICIENT, min_size=1, max_size=4))
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        words = st.integers(1, ctx.fctx.ambient.dim - 1)
        gens += [{ctx.flat(draw(words), draw(st.integers(0, ctx.nn - 1))): 1}
                 for _ in range(draw(st.integers(2, 4)))]
    return ctx, gens, draw(st.sampled_from((None, 0, 1, 2)))


def low_redundancy_tensor_example():
    """x (x) E11, x (x) E12, xx (x) E11, xx (x) E12 and xy (x) E21 in
    F (x) M_2.  The parts x (x) E12 take their brackets with the degree-2
    rows in one chunk: xx (x) E11 gives -xxx (x) E12, a repeat of
    [x (x) E11, xx (x) E12], and xy (x) E21 after it gives xxy (x) E11 -
    xyx (x) E22, which no other row and part form.  A filter that left a
    chunk at its first repeat would lose it."""
    ctx = TENSOR_CONTEXTS[0]
    unit = {word: ctx.fctx.word_index[word] for word in ((0,), (0, 0), (0, 1))}
    gens = [{ctx.flat(unit[w], a): 1} for w, a in (((0,), 0), ((0,), 1), ((0, 0), 0),
                                                    ((0, 0), 1), ((0, 1), 2))]
    return ctx, gens


@given(tensor_saturation_inputs())
@example((*low_redundancy_tensor_example(), None))
@example((*low_redundancy_tensor_example(), 1))
@example((TENSOR_CONTEXTS[1], [{9: 2**62 + 1, 20: Fraction(-3, 4), 40: 1}, {10: 1}, {22: 1},
                               {33: 2**53 + 1, 45: -1}], None))
@settings(max_examples=80, deadline=None)
def test_tensor_saturation_matches_reference_loop(inputs):
    ctx, gens, sweeps = inputs
    assert_same_rows(bracket_saturate(ctx, gens, sweeps), reference_bracket_saturate(ctx, gens, sweeps))


def test_low_redundancy_example_keeps_the_bracket_after_a_repeat():
    ctx, gens = low_redundancy_tensor_example()
    w = ctx.fctx.word_index
    sat = bracket_saturate(ctx, gens)
    assert sat.dim == 8
    assert sat.contains_vector({ctx.flat(w[0, 0, 1], 0): 1, ctx.flat(w[0, 1, 0], 3): -1})


def _quotient_inserts(monkeypatch):
    """(block, row) of every insertion into a block that no SpanBuilder owns:
    the quotient blocks of the saturation."""
    owned, calls = [], []   # the builders' blocks, kept alive so that no id is reused
    init, insert = SpanBuilder.__init__, _Block.insert

    def built(self, ambient):
        init(self, ambient)
        owned.extend(self._blocks)

    def counted(self, arr, amax):
        if not any(self is blk for blk in owned):
            calls.append((self, arr.copy()))
        return insert(self, arr, amax)

    monkeypatch.setattr(SpanBuilder, "__init__", built)
    monkeypatch.setattr(_Block, "insert", counted)
    return calls


def _line(row) -> tuple:
    g = math.gcd(*map(int, row))
    first = int(row[np.flatnonzero(row)[0]])
    return tuple(int(v) // (g if first > 0 else -g) for v in row)


def test_repeated_images_never_reach_the_quotient_block(monkeypatch):
    from nclie.current import fg_generator_vectors
    from nclie.pairs import pair_by_name

    pair = pair_by_name("sp:4")
    ctx = TensorContext(FreeContext(2, 4), pair.n)
    gens = fg_generator_vectors(pair, ctx)
    calls = _quotient_inserts(monkeypatch)
    offered = []
    directions = subspace_module._new_directions

    def spy(images, seen):
        offered.append(int(images.any(axis=1).sum()))
        return directions(images, seen)

    monkeypatch.setattr(subspace_module, "_new_directions", spy)
    bracket_saturate(ctx, gens)
    per_block: dict[int, list] = {}
    for blk, row in calls:
        per_block.setdefault(id(blk), []).append(_line(row))
    assert per_block and all(len(set(lines)) == len(lines) for lines in per_block.values())
    # the images repeat: most nonzero ones never reach a quotient block
    assert 2 * len(calls) < sum(offered)


def test_brackets_are_formed_only_for_rows_that_grow_the_span(monkeypatch):
    from nclie.current import fg_generator_vectors
    from nclie.pairs import pair_by_name

    formed = []
    product = subspace_module.sparse_product
    monkeypatch.setattr(subspace_module, "sparse_product",
                        lambda *args: formed.append(args) or product(*args))
    pair = pair_by_name("sl2irrep:4")
    ctx = TensorContext(FreeContext(2, 4), pair.n)
    gens = fg_generator_vectors(pair, ctx)
    for sweeps in (None, 1, 2):
        formed.clear()
        sat = bracket_saturate(ctx, gens, sweeps)
        stored = sat.dim - GradedSubspace.span(ctx.ambient, gens).dim
        assert stored > 0 and len(formed) == stored


def test_row_ids_are_equal_exactly_for_equal_rows():
    # rows that wrap to one another as int16 or int64, zeros of both signs,
    # and entries past 2^62 that only Python integers hold
    wide = 1 << 62
    rows = [[1, -2, 0], [1, -2, 0], [0, 0, 0], [1, 2, 0], [65537, -2, 0],
            [40000, 0, 1], [40000, 0, 1], [-40000, 0, 1], [2**52, 0, 0]]
    big = rows + [[wide + 1, -2, 0], [wide + 1, -2, 0], [2**64 + 1, -2, 0], [-wide, 0, 1]]
    floats = np.array(rows, dtype=np.float64)
    floats[1, 2] = floats[6, 1] = -0.0   # equal to rows 0 and 5 all the same
    tables = [np.array(rows, dtype=np.int64), floats, np.array(big, dtype=object)]
    for table, values in zip(tables, [rows, rows, big]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no float64 cast out of range
            ids = subspace_module._row_ids(table[:4], table[4:].reshape(-1, 1, 3))
        assert ids[0].shape == (4,) and ids[1].shape == (len(values) - 4, 1)
        flat = np.concatenate([i.reshape(-1) for i in ids]).tolist()
        assert all((flat[p] == flat[q]) == (values[p] == values[q])
                   for p in range(len(values)) for q in range(len(values)))
    # keys are set by the values alone, whatever the dtype of the table
    ints = tables[0]
    for other in (ints.astype(np.float64), ints.astype(object)):
        assert np.array_equal(*subspace_module._row_ids(ints, other))
    # the saturation that reads the ids
    from nclie.current import fg_generator_vectors
    from nclie.pairs import pair_by_name

    pair = pair_by_name("sp:4")
    ctx = TensorContext(FreeContext(2, 3), pair.n)
    gens = fg_generator_vectors(pair, ctx)
    assert_same_rows(bracket_saturate(ctx, gens), reference_bracket_saturate(ctx, gens))


def half_unit_matrix_context():
    """M_2 in the basis E_ij / 2, where every nonzero product has the
    coefficient 1/2, so that brackets carry Fraction entries."""
    table = [[[Fraction(1, 2) if a % 2 == b // 2 and k == a // 2 * 2 + b % 2 else 0
               for k in range(4)] for b in range(4)] for a in range(4)]
    return StructureContext(table)


def test_bracket_saturate_fractional_structure_constants():
    # the brackets reach the filter with Fraction entries
    ctx = half_unit_matrix_context()
    gens = [{1: 1}, {2: 1}]
    sat = bracket_saturate(ctx, gens)
    assert sat.dim == 3  # sl_2
    assert_same_rows(sat, reference_bracket_saturate(ctx, gens))


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

    def canonicalize(self):
        """Eliminate above pivots by a scan over every pair of rows."""
        rows, pivots, maxes = self.rows, self.pivots, self.maxes
        for j in range(len(rows) - 1, -1, -1):
            pj = pivots[j]
            for i in range(j):
                c = rows[i][pj]
                if c == 0:
                    continue
                out, _ = _combine(int(rows[j][pj]), rows[j], maxes[j], int(c), rows[i], maxes[i])
                rows[i], _, maxes[i] = _primitive(out)

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


def reference_nullspace(span, bi):
    """The nullspace of block bi filled entry by entry as Python integers."""
    size = span.ambient.blocks[bi][1]
    mat, piv = span._rows[bi], span._pivots[bi]
    if mat is None:
        return np.eye(size, dtype=np.int64)
    free = sorted(set(range(size)) - set(piv))
    lcm = 1
    for r in range(mat.shape[0]):
        lcm = lcm // math.gcd(lcm, int(mat[r][piv[r]])) * int(mat[r][piv[r]])
    cols = np.zeros((size, len(free)), dtype=object)
    for k, f in enumerate(free):
        cols[f][k] = lcm
        for r in range(mat.shape[0]):
            if mat[r][f]:
                cols[piv[r]][k] = -int(mat[r][f]) * (lcm // int(mat[r][piv[r]]))
    mx = int(abs(cols).max()) if cols.size else 0
    return cols.astype(np.int64) if mx < _GUARD else cols


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
    blk.canonicalize()
    ref.canonicalize()
    assert blk.maxes == ref.maxes
    assert all(same_array(a, b) for a, b in zip(blk.rows, ref.rows))

    span = builder.finalize()
    assert same_array(span.nullspace_matrix(0), reference_nullspace(span, 0))
    assert span.null_max(0) == int(abs(span.nullspace_matrix(0)).max(initial=0))
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


# -- the solvers, intersection and membership against the Fraction-era code --------------


def reference_fraction_rref(rows):
    """Fraction Gauss-Jordan elimination; returns (rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_nullspace_complement(kmat, n):
    """Rows of a matrix whose kernel is exactly span(kmat), read off the
    Gauss-Jordan form; for n = len(kmat[0]) it is the right kernel of kmat."""
    rref, pivots = reference_fraction_rref(kmat)
    out = []
    for c in range(n):
        if c in pivots:
            continue
        row = [Fraction(0)] * n
        row[c] = Fraction(1)
        for i, p in enumerate(pivots):
            row[p] = -rref[i][c]
        out.append(row)
    return out


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    rref, pivots = reference_fraction_rref([list(r) + [v] for r, v in zip(rows, rhs)])
    sol = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        if p == ncols:
            return None
        sol[p] = rref[i][ncols]
    return sol


def reference_intersect(s, t):
    """Intersection through the Fraction left kernel of the stacked blocks."""
    b = SpanBuilder(s.ambient)
    for bi, (_, width) in enumerate(s.ambient.blocks):
        ra, rb = s._rows[bi], t._rows[bi]
        if ra is None or rb is None:
            continue
        stacked = [[Fraction(int(v)) for v in row] for row in ra] + [
            [Fraction(int(v)) for v in row] for row in rb
        ]
        transpose = [list(col) for col in zip(*stacked)]
        for combo in reference_nullspace_complement(transpose, len(stacked)):
            vec = [Fraction(0)] * width
            for i in range(ra.shape[0]):
                if combo[i]:
                    for j in range(width):
                        vec[j] += combo[i] * stacked[i][j]
            if any(vec):
                b.add_block_row(bi, _int_row(width, {j: v for j, v in enumerate(vec) if v})[0])
    return b.finalize()


def reference_contains_vector(s, vector):
    """Membership by eliminating each block component to zero."""
    for bi, comp in s.ambient.split(vector).items():
        arr, amax = reference_int_row(s.ambient.blocks[bi][1], comp)
        if arr is None:
            continue
        if s._rows[bi] is None or not reference_reduce_to_zero(s._rows[bi], s._pivots[bi], arr, amax):
            return False
    return True


def reference_bracket_closed(ctx, S):
    """The closedness check with its own per-block batching."""
    amb = ctx.ambient
    maxdeg = amb.max_degree
    mul = ctx.mul_basis
    supports = []
    for bi, deg, mat in S.block_rows():
        for r in range(mat.shape[0]):
            supports.append((deg, _support(_entries(mat[r]), amb.starts[bi])))
    batches = {}
    for a in range(len(supports)):
        d1, r1 = supports[a]
        for b in range(a + 1, len(supports)):
            d2, r2 = supports[b]
            if d1 + d2 > maxdeg:
                continue
            items = [(i, v) for i, v in sparse_product(mul, r1, r2, True).items() if v]
            if not items:
                continue
            for bi, comp in amb.split(items).items():
                batches.setdefault(bi, []).append(dict(zip(comp, clear_denominators(list(comp.values())))))
    for bi, rows in batches.items():
        width = amb.blocks[bi][1]
        big = max(abs(v) for row in rows for v in row.values())
        matc = np.zeros((len(rows), width), dtype=np.int64 if big < _GUARD else object)
        for r, row in enumerate(rows):
            for loc, v in row.items():
                matc[r, loc] = v
        if not S.contains_all_block_rows(bi, matc):
            return False
    return True


FRACTION = st.builds(Fraction, ENTRY, st.integers(1, 3))


@st.composite
def dense_matrices(draw):
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(FRACTION, min_size=width, max_size=width), max_size=5))
    if rows and draw(st.booleans()):
        rows.append([2 * v for v in rows[draw(st.integers(0, len(rows) - 1))]])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * width)
    return rows


@given(dense_matrices(), st.lists(FRACTION, min_size=7, max_size=7))
@example(rows=[[Fraction(0), Fraction(2)], [Fraction(0), Fraction(4)]], rhs=[Fraction(1)] * 7)
@example(rows=[[Fraction(2**70, 3), Fraction(1)], [Fraction(1), Fraction(2**64)]], rhs=[Fraction(0)] * 7)
@settings(max_examples=150, deadline=None)
def test_fraction_solvers_match_gauss_jordan(rows, rhs):
    assert fraction_rref(rows) == reference_fraction_rref(rows)
    if not rows:
        return
    width = len(rows[0])
    assert fraction_nullspace(rows) == reference_nullspace_complement(rows, width)
    transpose = [list(col) for col in zip(*rows)]
    assert fraction_left_kernel(rows) == reference_nullspace_complement(transpose, len(rows))
    assert fraction_solve(rows, rhs[:len(rows)]) == reference_solve(rows, rhs[:len(rows)])


AMB3 = Ambient([(0, 2), (1, 3), (2, 4)])
SPARSE = st.dictionaries(st.integers(0, AMB3.dim - 1), FRACTION.filter(bool), max_size=5)


@given(st.lists(SPARSE, max_size=4), st.lists(SPARSE, max_size=4), st.lists(SPARSE, max_size=4))
@example(  # a shared row past the int64 guard
    shared=[{2: Fraction(2**63), 3: Fraction(1)}], a_only=[{3: Fraction(1)}], b_only=[{4: Fraction(5)}],
)
@settings(max_examples=120, deadline=None)
def test_intersect_matches_fraction_round_trip(shared, a_only, b_only):
    a = GradedSubspace.span(AMB3, shared + a_only)
    b = GradedSubspace.span(AMB3, shared + b_only)
    assert_same_subspace(a.intersect(b), reference_intersect(a, b))
    assert_same_subspace(b.intersect(a), reference_intersect(b, a))
    assert_same_subspace(a.intersect(a), a)


@given(st.lists(SPARSE, max_size=5), st.lists(SPARSE, max_size=4), st.lists(st.integers(-3, 3), max_size=5))
@settings(max_examples=120, deadline=None)
def test_membership_matches_elimination(vectors, outsiders, coeffs):
    s = GradedSubspace.span(AMB3, vectors)
    member = {}
    for c, v in zip(coeffs, vectors):
        for i, x in v.items():
            member[i] = member.get(i, 0) + c * x
    probes = [member] + vectors + outsiders
    verdicts = [reference_contains_vector(s, p) for p in probes]
    assert verdicts[0] and all(verdicts[1:len(vectors) + 1])
    assert [s.contains_vector(p) for p in probes] == verdicts
    assert s.contains_vectors(probes) == all(verdicts)
    assert s.contains_vectors(outsiders) == all(verdicts[len(vectors) + 1:])


# homogeneous generators of degree 1 (indices 1-2) or 2 (indices 3-6) in the free algebra on 2 letters
FREE_GEN = st.sampled_from([(1, 2), (3, 6)]).flatmap(
    lambda block: st.dictionaries(st.integers(*block), st.integers(-3, 3) | BIG, min_size=1, max_size=3)
)


@given(st.lists(FREE_GEN, min_size=1, max_size=3))
@example(gens=[{1: 1}, {2: 1}])
@example(gens=[{1: 1, 2: 2**63}, {3: 1}])
@settings(max_examples=60, deadline=None)
def test_bracket_closed_matches_own_batching(free23, gens):
    for span in (GradedSubspace.span(free23.ambient, gens), bracket_saturate(free23, gens)):
        assert bracket_closed(free23, span) == reference_bracket_closed(free23, span)
    assert bracket_closed(free23, bracket_saturate(free23, gens))


# -- the exact matrix product ------------------------------------------------------


def _int_or_object(rows):
    big = max((abs(v) for row in rows for v in row), default=0)
    return np.array(rows, dtype=np.int64 if big < 2**62 else object).reshape(len(rows), -1)


@st.composite
def product_operands(draw):
    """Integer matrices whose entry bounds put amax * bmax * inner on either
    side of 2^53 and of 2^62; entries reach past 2^64."""
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(r, c):
        top = 2 ** draw(st.integers(0, 66))
        entry = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, top - 1, 0)))
        return _int_or_object([[draw(entry) for _ in range(c)] for _ in range(r)])

    return matrix(rows, inner), matrix(inner, cols)


@given(product_operands())
@example((np.array([[2**53 - 1]]), np.array([[1]])))        # largest float64 bound
@example((np.array([[2**26, 2**26]]), np.array([[2**26], [-2**26]])))  # bound 2^53
@example((np.array([[2**61 - 1, 1]]), np.array([[1], [1]])))   # largest int64 bound
@example((np.array([[2**31, 2**31]]), np.array([[2**30], [2**30]])))   # bound 2^62
@settings(max_examples=200, deadline=None)
def test_exact_product_matches_object_reference(operands):
    a, b = operands
    amax, bmax = int(abs(a).max()), int(abs(b).max())
    bound = amax * bmax * a.shape[1]
    want = np.float64 if bound < 2**53 else np.int64 if bound < 2**62 else object
    assert product_dtype(amax, bmax, a.shape[1]) is want
    out = exact_product(a, b)
    assert out.dtype == (object if want is object else np.int64)
    assert out.tolist() == (a.astype(object) @ b.astype(object)).tolist()
    if bmax < 2**53:  # an operand held in float64, as the saturation filter holds its nullspace
        assert exact_product(a, b.astype(np.float64), amax, bmax).tolist() == out.tolist()


# -- products in a free context as Kronecker blocks ---------------------------------


def reference_op_product(ctx, s1, s2):
    """The sparse loop: the product of every pair of basis rows, eliminated
    one at a time."""
    amb = ctx.ambient
    b = SpanBuilder(amb)
    for b1, d1, m1 in s1.block_rows():
        for b2, d2, m2 in s2.block_rows():
            if d1 + d2 > amb.max_degree:
                continue
            for r1 in m1:
                for r2 in m2:
                    b.add(sparse_product(ctx.mul_basis, _support(_entries(r1), amb.starts[b1]),
                                         _support(_entries(r2), amb.starts[b2])))
    return b.finalize()


PRODUCT_CONTEXTS = (FreeContext(2, 3), FreeContext(3, 2), FreeContext(2, 3, unital=False),
                    FreeContext(3, 2, unital=False))


@st.composite
def product_factor(draw, ctx):
    """A subspace of ctx: zero, full, or spanned by a few sparse vectors,
    some in the degree-0 block and some with entries past 2^53 and 2^62."""
    kind = draw(st.sampled_from(("zero", "full", "span", "span", "span")))
    if kind == "zero":
        return GradedSubspace.zero(ctx.ambient)
    if kind == "full":
        return ctx.full_subspace()
    index = st.integers(0, ctx.ambient.dim - 1)
    vecs = draw(st.lists(st.dictionaries(index, COEFFICIENT, max_size=3), max_size=4))
    return GradedSubspace.span(ctx.ambient, vecs)


@st.composite
def product_inputs(draw):
    ctx = draw(st.sampled_from(PRODUCT_CONTEXTS))
    return ctx, draw(product_factor(ctx)), draw(product_factor(ctx))


def span_of(ctx, vecs):
    return GradedSubspace.span(ctx.ambient, vecs)


C23 = PRODUCT_CONTEXTS[0]


@given(product_inputs())
@example((C23, span_of(C23, [{0: 1}, {1: 2**62 + 1, 2: 1}]), span_of(C23, [{3: 2**31, 4: 1}])))
@example((C23, span_of(C23, [{1: 2**53 + 1, 2: 3}]), span_of(C23, [{0: 1, 2: 2**53 + 3}])))
@example((C23, GradedSubspace.zero(C23.ambient), C23.full_subspace()))
@example((C23, span_of(C23, []), span_of(C23, [{14: 1}])))
@settings(max_examples=120, deadline=None)
def test_free_op_product_matches_reference_loop(inputs):
    ctx, s1, s2 = inputs
    assert_same_subspace(op_product(ctx, s1, s2), reference_op_product(ctx, s1, s2))


def test_op_product_other_contexts_match_reference_loop(m2ctx):
    # a structure context keeps the sparse loop
    ctx = half_unit_matrix_context()
    for c in (m2ctx, ctx):
        s1 = GradedSubspace.span(c.ambient, [{0: 1, 3: 2}, {1: 1}])
        s2 = GradedSubspace.span(c.ambient, [{2: 1}, {3: 2**62 + 5}])
        assert_same_subspace(op_product(c, s1, s2), reference_op_product(c, s1, s2))


def test_chain_records_its_stop_and_steps_no_further():
    steps = []

    def step(k, x):
        steps.append(k)
        return min(x + 1, 3)

    chain = Chain(0, step)
    assert chain.term(1) == 1 and chain.stop is None and steps == [0]
    assert chain.limit() == 3 and chain.stop == 3   # step(3, 3) == 3
    assert steps == [0, 1, 2, 3]
    assert chain.term(10**9) == 3 and chain.term(2) == 2 and chain.limit() == 3
    assert steps == [0, 1, 2, 3]


def test_chain_repeating_with_period_two():
    steps = []
    chain = Chain(5, lambda k, x: steps.append(k) or (x + 1 if x < 7 else 6))
    # 5, 6, 7, 6, 7, ...: step(2, 7) = 6 repeats x_1
    assert chain.term(1) == 6 and chain.stop is None
    assert chain.term(3) == 6 and chain.stop == 2 and chain.period == 2
    assert [chain.term(k) for k in range(8)] == [5, 6, 7, 6, 7, 6, 7, 6]
    assert chain.term(10**9) == 7 and chain.term(10**9 + 1) == 6
    assert steps == [0, 1, 2]
    with pytest.raises(ValueError, match="period 2"):
        chain.limit()


def test_chain_that_never_repeats_answers_a_bounded_term():
    steps = []
    chain = Chain(1, lambda k, x: steps.append(k) or 2 * x)
    assert chain.term(10) == 2**10 and chain.stop is None
    assert chain.term(3) == 8 and steps == list(range(10))
