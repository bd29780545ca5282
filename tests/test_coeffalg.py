import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclie import coeffalg
from nclie.coeffalg import (
    AlgElement,
    ContextMismatchError,
    FreeContext,
    NonUnitError,
    ParseError,
    StructureContext,
    commutator,
    inverse,
    mul,
    multiplication_matrix,
    parse,
)
from nclie.current import TensorContext
from nclie.pairs import UnsupportedError, matrix, pair_by_name
from nclie.subspace import fraction_solve
from test_pairs import mat, mat_inverse


def elements(ctx, max_terms=3):
    idx = st.integers(min_value=0, max_value=ctx.ambient.dim - 1)
    val = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(idx, val, max_size=max_terms).map(
        lambda d: AlgElement(ctx, {i: Fraction(v) for i, v in d.items()})
    )


# -- products ------------------------------------------------------------------


def test_word_concatenation(free23):
    x, y = free23.generators()
    assert str(mul(x, y)) == "x*y"


def test_truncation_kills_long_words():
    ctx = FreeContext(2, 2)
    x, y = ctx.generators()
    assert mul(x, mul(x, y)).is_zero()
    assert (x ** 3).is_zero()


def test_matrix_units_multiply(m2ctx):
    e12, e21 = m2ctx.basis_element(1), m2ctx.basis_element(2)
    assert mul(e12, e21) == m2ctx.basis_element(0)
    assert mul(e12, e12).is_zero()


@pytest.fixture
def no_words(monkeypatch):
    """Make building any word of a free context an error."""
    def forbidden(*args, **kwargs):
        raise AssertionError("words were built")
    monkeypatch.setattr(coeffalg, "itertools", type("NoProduct", (), {"product": forbidden}))


@pytest.mark.parametrize("args", [
    (2, 10**9), (1, 10**9), (10**12, 1), (2, 11), (3, 7), (2, 12, False),
])
def test_oversized_free_context_refused_before_allocation(no_words, args):
    with pytest.raises(ValueError, match=f"limit of {coeffalg.MAX_WORDS}"):
        FreeContext(*args)


def test_largest_two_generator_context_allowed():
    # 2^11 - 1 = 2047 words for m = 2, D = 10, and 2046 without the unit
    assert FreeContext(2, 10).ambient.dim == 2047 <= coeffalg.MAX_WORDS
    assert FreeContext(2, 10, unital=False).ambient.dim == 2046


@pytest.mark.parametrize("gens, names", [(["x", "x"], None), (2, ("a", "a")), (2, ("a",))])
def test_free_context_needs_distinct_names(no_words, gens, names):
    with pytest.raises(ValueError, match="distinct name"):
        FreeContext(gens, 3, names=names)


@pytest.fixture
def no_tables(monkeypatch):
    """Make building the multiplication table of a matrix algebra an error."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr(coeffalg, "range", forbidden, raising=False)
    monkeypatch.setattr(StructureContext, "_setup", forbidden)


@pytest.mark.parametrize("n", [coeffalg.MAX_MATRIX_SIZE + 1, 60, 10**9, 0, -1, -2])
def test_oversized_matrix_algebra_refused_before_building(no_tables, n):
    with pytest.raises(ValueError, match=f"limit of {coeffalg.MAX_MATRIX_SIZE}"):
        StructureContext.matrix_algebra(n)


@pytest.mark.parametrize("spec", ["gl:33", "sl:40", "so:10000", "sp:1000000",
                                  "sl2irrep:33", "jordan:1000000000"])
def test_oversized_pairs_refused_before_building(no_tables, spec):
    with pytest.raises(ValueError, match=f"limit of {coeffalg.MAX_MATRIX_SIZE}"):
        pair_by_name(spec)


def test_largest_matrix_algebra_passes_the_size_check(no_tables):
    with pytest.raises(AssertionError, match="a table was built"):
        StructureContext.matrix_algebra(coeffalg.MAX_MATRIX_SIZE)


def test_context_mismatch():
    a = FreeContext(2, 2).generator(0)
    b = FreeContext(2, 3).generator(0)
    with pytest.raises(ContextMismatchError):
        mul(a, b)


def test_structure_table_validation():
    from nclie.coeffalg import StructureContext

    # x*x = y, everything else zero: associative and nonunital
    table = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    ctx = StructureContext(table, labels=["x", "y"])
    x, y = ctx.basis_element(0), ctx.basis_element(1)
    assert mul(x, x) == y and mul(x, y).is_zero()
    with pytest.raises(NonUnitError):
        ctx.one()
    # x*x = x on a 2-dim space with a dangling direction is still associative,
    # but declaring the wrong unit must fail
    with pytest.raises(ValueError):
        StructureContext(table, unit=[1, 0])
    # a genuinely non-associative table is rejected: x*x = y, y*x = x
    bad = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(ValueError):
        StructureContext(bad)


def test_division_stays_exact(free23):
    # coefficients given as ints, and products of such elements, divide exactly
    x = AlgElement(free23, {1: 1})
    y = AlgElement(free23, {2: 3})
    for quotient in (x / 2, mul(x, y) / 4):
        assert all(type(v) is Fraction for v in quotient.coeffs.values())
    assert (x / 2).coeffs == {1: Fraction(1, 2)}
    assert mul(x, y) / 4 == parse("3/4*x*y", free23)


# -- commutators -----------------------------------------------------------------


def test_commutator_basics(free23):
    x, y = free23.generators()
    assert commutator(x, x).is_zero()
    assert commutator(x, y) == mul(x, y) - mul(y, x)
    assert commutator(free23.one(), y).is_zero()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_associativity_and_leibniz_jacobi(free23, data):
    a = data.draw(elements(free23))
    b = data.draw(elements(free23))
    c = data.draw(elements(free23))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert (
        commutator(mul(a, b), c) + commutator(mul(b, c), a) + commutator(mul(c, a), b)
    ).is_zero()
    jac = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert jac.is_zero()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_structure_backend_identities(m2ctx, data):
    a = data.draw(elements(m2ctx))
    b = data.draw(elements(m2ctx))
    c = data.draw(elements(m2ctx))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert (
        commutator(mul(a, b), c) + commutator(mul(b, c), a) + commutator(mul(c, a), b)
    ).is_zero()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_grading_of_products(free23, data):
    a = data.draw(elements(free23))
    b = data.draw(elements(free23))
    # homogeneous pieces multiply into a single degree
    for d1 in range(free23.D + 1):
        for d2 in range(free23.D + 1):
            p = mul(a.degree_component(d1), b.degree_component(d2))
            if p.is_zero():
                continue
            degs = {free23.degree_of_basis(i) for i in p.coeffs}
            assert degs == {d1 + d2}


# -- inverses ----------------------------------------------------------------------


def test_geometric_series_inverse():
    ctx = FreeContext(2, 3)
    inv = inverse(parse("1+x", ctx))
    assert inv == parse("1 - x + x^2 - x^3", ctx)


def test_unit_inverse_is_unit(free23):
    assert inverse(free23.one()) == free23.one()


def test_nonunit_raises(free23):
    with pytest.raises(NonUnitError):
        inverse(free23.generator(0))
    with pytest.raises(NonUnitError):
        inverse(FreeContext(2, 3, unital=False).generator(0))


def test_structure_inverse(m2ctx):
    a = m2ctx.element_from_vector({0: 1, 1: 5, 3: 1})
    assert mul(a, inverse(a)) == m2ctx.one()
    with pytest.raises(NonUnitError):
        inverse(m2ctx.basis_element(1))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_random_units_invert(free23, data):
    w = data.draw(elements(free23))
    u = free23.one() + (w - w.degree_component(0))
    assert mul(u, inverse(u)) == free23.one()
    assert mul(inverse(u), u) == free23.one()


# -- the one inverse against the three it replaced -----------------------------------


def reference_free_inverse(a):
    """The former free-context inverse: split off the constant term c and sum
    the geometric series of a/c - 1."""
    ctx = a.ctx
    if not ctx.unital:
        raise NonUnitError("inverse requires a unital context")
    c = a.coeffs.get(ctx.word_index[()], Fraction(0))
    if c == 0:
        raise NonUnitError("zero constant term")
    w = a / c - 1
    out = ctx.one()
    power = ctx.one()
    sign = 1
    for _ in range(ctx.D):
        power = mul(power, w)
        sign = -sign
        if power.is_zero():
            break
        out = out + power * sign
    return out / c


def reference_solve_inverse(a):
    """The former structure-context (and structure-tensor) inverse: solve
    a*x = 1 densely over the whole algebra and check x*a = 1."""
    ctx = a.ctx
    dim = ctx.ambient.dim
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i, ci in a.coeffs.items():
        for j in range(dim):
            for k, ck in ctx.mul_basis(i, j):
                rows[k][j] += ci * ck
    one = ctx.one()
    sol = fraction_solve(rows, [one.coeffs.get(k, Fraction(0)) for k in range(dim)])
    if sol is None:
        raise NonUnitError("element is singular")
    inv = AlgElement(ctx, {i: v for i, v in enumerate(sol) if v})
    if mul(inv, a) != one:
        raise NonUnitError("element has no two-sided inverse")
    return inv


def reference_tensor_series_inverse(x):
    """The former inverse in F (x) M_n over unital free F: invert the constant
    matrix, then sum the series of the nilpotent rest."""
    tctx = x.ctx
    fctx = tctx.fctx
    n, nn = tctx.n, tctx.nn
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, v in x.coeffs.items():
        f, a = divmod(k, nn)
        if f == fctx.word_index[()]:
            rows[a // n][a % n] = v
    try:
        cinv = mat_inverse(mat(rows))
    except UnsupportedError as exc:
        raise NonUnitError("constant-term matrix is singular") from exc
    cinv_t = tctx.pure(fctx.one(), matrix(n, cinv))
    nil = mul(cinv_t, x) - 1
    acc = tctx.one()
    power = tctx.one()
    sign = 1
    for _ in range(fctx.D):
        power = mul(power, nil)
        if power.is_zero():
            break
        sign = -sign
        acc = acc + power * sign
    return mul(acc, cinv_t)


_FREE24 = FreeContext(2, 4)
_M2 = StructureContext.matrix_algebra(2)
INVERSE_CASES = {
    "free:2,4": (_FREE24, reference_free_inverse),
    "matrix:2": (_M2, reference_solve_inverse),
    "free:2,4 (x) M_2": (TensorContext(_FREE24, 2), reference_tensor_series_inverse),
    "matrix:2 (x) M_2": (TensorContext(_M2, 2), reference_solve_inverse),
}


def inverse_candidates(ctx):
    """Degree-0 parts that are often singular, plus sparse higher terms."""
    small = st.integers(min_value=-2, max_value=2)
    width = ctx.ambient.blocks[0][1]
    dim = ctx.ambient.dim
    head = st.dictionaries(st.integers(0, width - 1), small, max_size=min(width, 4))
    tail = st.dictionaries(st.integers(0, dim - 1), small, max_size=3)
    return st.tuples(st.booleans(), head, tail).map(lambda t: AlgElement(ctx, {
        i: Fraction(v) for i, v in {**t[1], **t[2]}.items()
    }) + (ctx.one() if t[0] else 0))


def outcome(invert, a):
    try:
        return invert(a)
    except NonUnitError:
        return None


@pytest.mark.parametrize("case", list(INVERSE_CASES))
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_replaced_inverses(case, data):
    ctx, reference = INVERSE_CASES[case]
    a = data.draw(inverse_candidates(ctx))
    got = outcome(inverse, a)
    assert got == outcome(reference, a)
    if got is not None:
        assert mul(a, got) == ctx.one() == mul(got, a)


# -- the context protocol ----------------------------------------------------------

# x*x = y, every other product zero: a nonunital table-built context
NILPOTENT_TABLE = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]


def protocol_cases():
    """(context, the degree_of_basis each class defined before the shared base)."""
    free = [FreeContext(2, 3), FreeContext(2, 3, unital=False), FreeContext(3, 2)]
    tensor = TensorContext(FreeContext(2, 3), 2)
    return [(f, lambda i, f=f: len(f.words[i])) for f in free] + [
        (StructureContext.matrix_algebra(2), lambda i: 0),
        (StructureContext(NILPOTENT_TABLE, labels=["x", "y"]), lambda i: 0),
        (tensor, lambda i: tensor.fctx.degree_of_basis(i // tensor.nn)),
    ]


@pytest.mark.parametrize("case", range(6))
def test_degree_of_basis_matches_the_former_definitions(case):
    ctx, former = protocol_cases()[case]
    assert [ctx.degree_of_basis(i) for i in range(ctx.ambient.dim)] == \
        [former(i) for i in range(ctx.ambient.dim)]


def test_contexts_equal_and_hash_by_key():
    built = [ctx for ctx, _ in protocol_cases()]
    again = [ctx for ctx, _ in protocol_cases()]
    for a, b in zip(built, again):
        assert a is not b or a is StructureContext.matrix_algebra(2)
        assert a == b and hash(a) == hash(b) and a.key() == b.key()
    for a, b in itertools.combinations(built, 2):
        assert a != b
    # two classes never compare equal, even on one key
    twin = TensorContext(FreeContext(2, 3), 2)
    twin.key = built[0].key
    assert twin.key() == built[0].key() and twin != built[0] and built[0] != twin


def test_every_context_declares_unital():
    free, nonunital, _, m2, table, tensor = (ctx for ctx, _ in protocol_cases())
    assert [ctx.unital for ctx in (free, nonunital, m2, table, tensor)] == \
        [True, False, True, False, True]
    assert not TensorContext(nonunital, 2).unital
    assert [ctx.is_free for ctx in (free, m2, tensor)] == [True, False, False]
    for ctx in (nonunital, table, TensorContext(nonunital, 2)):
        with pytest.raises(NonUnitError):
            inverse(ctx.element_from_vector({0: 1}))


# -- parser -----------------------------------------------------------------------


def test_free_unit_inverse_divides_once(free23, monkeypatch):
    # the degree-0 block of a free context has width 1: no dense solve
    def no_solve(rows, rhs):
        raise AssertionError("fraction_solve called for a 1 x 1 block")

    monkeypatch.setattr(coeffalg, "fraction_solve", no_solve)
    for text in ("3+x", "1/2-x*y+2*y", "-5", "1+x+y*x*y"):
        u = parse(text, free23)
        inv = inverse(u)
        assert mul(u, inv) == free23.one() == mul(inv, u)
    with pytest.raises(NonUnitError):
        inverse(parse("x+y", free23))


@pytest.mark.parametrize("ctx", [FreeContext(2, 3), TensorContext(FreeContext(2, 2), 2)],
                         ids=["free", "tensor"])
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_multiplication_matrix_is_the_product(ctx, data):
    # integer a (entries of elements() times 12), rational x
    a = AlgElement(ctx, {i: int(v * 12) for i, v in data.draw(elements(ctx)).coeffs.items()})
    x = data.draw(elements(ctx))
    row = np.array([x.coeffs.get(p, Fraction(0)) for p in range(ctx.ambient.dim)], dtype=object)

    def coords(e):
        return [e.coeffs.get(q, 0) for q in range(ctx.ambient.dim)]

    assert list(row @ multiplication_matrix(ctx, a.coeffs)) == coords(mul(a, x))
    assert list(row @ multiplication_matrix(ctx, a.coeffs, right=True)) == coords(mul(x, a))


def test_multiplication_matrix_needs_integral_products():
    half = StructureContext([[[Fraction(1, 2)]]])
    with pytest.raises(ValueError, match="non-integral"):
        multiplication_matrix(half, {0: 1})


def test_parse_examples(free23):
    x, y = free23.generators()
    assert parse("1 + 2*x*y - y*x", free23) == free23.one() + 2 * mul(x, y) - mul(y, x)
    assert parse("x^3", FreeContext(2, 2)).is_zero()
    assert parse("3/2", free23) == free23.one() * Fraction(3, 2)
    assert parse("(x+y)^2", free23) == (x + y) ** 2
    assert parse("-x + y", free23) == y - x


def test_parse_brackets_sugar(free23):
    x, y = free23.generators()
    assert parse("[x,y]", free23, allow_brackets=True) == commutator(x, y)
    with pytest.raises(ParseError):
        parse("[x,y]", free23)


def test_parse_errors_carry_position(free23):
    with pytest.raises(ParseError) as err:
        parse("x + z", free23)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("x + ", free23)
    with pytest.raises(ParseError):
        parse("1", FreeContext(2, 3, unital=False))


def test_parse_structure_labels(m2ctx):
    assert parse("E12*E21", m2ctx) == m2ctx.basis_element(0)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_printer_parser_roundtrip(free23, data):
    a = data.draw(elements(free23))
    assert parse(str(a), free23) == a
