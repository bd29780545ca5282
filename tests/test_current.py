import random
from fractions import Fraction

import numpy as np
import pytest

from nclie.coeffalg import AlgElement, FreeContext
from nclie.current import (
    TensorContext,
    TypeMismatchError,
    abelian_closure_form,
    f_dot_g,
    f_langle_g_filtered,
    filtration,
    lie_closure,
    lower_bound_terms,
    overline_bound,
    semisimple_closed_form,
    simple_coefficients_form,
    sl2_closed_form,
    tensor_mul,
    tensor_product_span,
    tilde_bound,
    type2_formula,
)
from nclie.pairs import (
    make_abelian_nilpotent,
    make_gl,
    make_orthogonal,
    make_sl,
    make_sl2_irrep,
    mat_unit,
    pair_by_name,
)
from nclie.subspace import (
    Ambient,
    GradedSubspace,
    SpanBuilder,
    bracket_closed,
    bracket_saturate,
)


def random_tensor(tctx, rng, terms=3):
    data = {}
    for _ in range(terms):
        data[rng.randrange(tctx.ambient.dim)] = Fraction(rng.randint(-3, 3))
    return AlgElement(tctx, data)


# -- tensor arithmetic -----------------------------------------------------------


def test_pure_tensor_product(free23):
    tctx = TensorContext(free23, 2)
    x, y = free23.generators()
    a = tctx.pure(x, mat_unit(2, 0, 1))
    b = tctx.pure(y, mat_unit(2, 1, 0))
    prod = tensor_mul(a, b)
    assert prod == tctx.pure(x * y, mat_unit(2, 0, 0))


def test_tensor_unit(free23):
    tctx = TensorContext(free23, 2)
    one = tctx.one()
    rng = random.Random(0)
    for _ in range(5):
        t = random_tensor(tctx, rng)
        assert tensor_mul(one, t) == t and tensor_mul(t, one) == t


def test_commutator_coefficient_identity(free23):
    # [s (x) E, t (x) F] = st (x) [E,F] + [s,t] (x) FE on 100 random draws
    tctx = TensorContext(free23, 2)
    rng = random.Random(11)
    for _ in range(100):
        s = parse_random(free23, rng)
        t = parse_random(free23, rng)
        e = random_matrix(2, rng)
        f = random_matrix(2, rng)
        left = tensor_mul(tctx.pure(s, e), tctx.pure(t, f)) - tensor_mul(
            tctx.pure(t, f), tctx.pure(s, e)
        )
        from nclie.pairs import mat_commutator, mat_mul

        right = tctx.pure(s * t, mat_commutator(e, f)) + tctx.pure(
            s * t - t * s, mat_mul(f, e)
        )
        assert left == right


def parse_random(ctx, rng):
    from nclie.coeffalg import AlgElement

    data = {rng.randrange(ctx.ambient.dim): Fraction(rng.randint(-2, 2)) for _ in range(2)}
    return AlgElement(ctx, data)


def random_matrix(n, rng):
    from nclie.pairs import mat

    return mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])


def test_tensor_product_associative(free23):
    tctx = TensorContext(free23, 2)
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (random_tensor(tctx, rng) for _ in range(3))
        assert tensor_mul(tensor_mul(a, b), c) == tensor_mul(a, tensor_mul(b, c))


def test_tensor_matrix_views(free23):
    tctx = TensorContext(free23, 2)
    x = free23.generator(0)
    t = tctx.pure(x, mat_unit(2, 0, 1)) + tctx.one()
    entries = tctx.to_matrix(t)
    assert entries[0][1] == x
    assert entries[0][0] == free23.one()
    assert tctx.from_matrix(entries) == t


def reference_entry(x, i, j):
    """The former per-entry view: one scan of x for every entry."""
    n, nn = x.ctx.n, x.ctx.nn
    return AlgElement(x.ctx.fctx, {f: v for k, v in x.coeffs.items()
                                   for f, a in (divmod(k, nn),) if a == i * n + j})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_to_matrix_matches_entry_scan(free23, n):
    tctx = TensorContext(free23, n)
    rng = random.Random(n)
    for _ in range(20):
        t = random_tensor(tctx, rng, terms=6)
        entries = tctx.to_matrix(t)
        assert entries == [[reference_entry(t, i, j) for j in range(n)] for i in range(n)]
        assert tctx.from_matrix(entries) == t


def test_tensor_inverse_free(free23):
    tctx = TensorContext(free23, 2)
    x = free23.generator(0)
    g = tctx.one() + tctx.pure(x, mat_unit(2, 0, 1))
    ginv = g.inverse()
    assert ginv == tctx.one() - tctx.pure(x, mat_unit(2, 0, 1))
    assert tensor_mul(g, ginv) == tctx.one()


def test_tensor_inverse_structure(m2ctx):
    tctx = TensorContext(m2ctx, 2)
    g = tctx.one() + tctx.pure(m2ctx.basis_element(1), mat_unit(2, 0, 1))
    assert tensor_mul(g, g.inverse()) == tctx.one()


# -- the saturation closure -------------------------------------------------------


def test_commutative_coefficients_collapse():
    fctx = FreeContext(1, 3)
    sl2 = make_sl(2)
    assert lie_closure(sl2, fctx) == f_dot_g(sl2, fctx)


def test_closure_generator_order_free(free23):
    from nclie.current import fg_generator_vectors

    sl2 = make_sl(2)
    tctx = TensorContext(free23, 2)
    gens = fg_generator_vectors(sl2, tctx)
    rng = random.Random(4)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    assert bracket_saturate(tctx, gens) == bracket_saturate(tctx, shuffled)


def test_closure_is_lie_subalgebra(free23):
    sl2 = make_sl(2)
    tctx = TensorContext(free23, 2)
    assert bracket_closed(tctx, lie_closure(sl2, free23))


def test_abelian_closure(free23):
    pair = make_abelian_nilpotent(3)
    assert lie_closure(pair, free23) == abelian_closure_form(pair, free23)


def test_spec_profile_sl2_degree2():
    fctx = FreeContext(2, 2)
    prof = [d for _, d in lie_closure(make_sl(2), fctx).dim_profile()]
    assert prof == [3, 6, 13]


def test_matrix_coefficients_simple_form(m2ctx):
    sl2 = make_sl(2)
    closure = lie_closure(sl2, m2ctx)
    assert closure == simple_coefficients_form(sl2, m2ctx)
    assert closure.dim == 15


# -- bounds -----------------------------------------------------------------------


def test_perfect_equality_small(free23):
    sl2 = make_sl(2)
    assert lie_closure(sl2, free23) == tilde_bound(sl2, free23)


def test_perfect_equality_degree_five():
    fctx = FreeContext(2, 5)
    for pair in (make_sl(2), make_orthogonal(3)):
        assert lie_closure(pair, fctx) == tilde_bound(pair, fctx)


def test_bounds_chain(free23):
    for pair in (make_sl(2), make_orthogonal(3), make_abelian_nilpotent(3)):
        L = lie_closure(pair, free23)
        O = overline_bound(pair, free23)
        T = tilde_bound(pair, free23)
        assert L.issubset(O) and O.issubset(T)
        tctx = TensorContext(free23, pair.n)
        assert bracket_closed(tctx, T) and bracket_closed(tctx, O)


def test_imperfect_pair_chain_still_holds(free23):
    # the length-4 nilpotent block fails the perfectness recursion, yet at
    # this truncation every bound still collapses onto the closure; frozen as
    # a regression datum (perfectness is sufficient, not necessary)
    pair = make_abelian_nilpotent(4)
    assert pair.is_perfect() == (False, 2)
    L = lie_closure(pair, free23)
    O = overline_bound(pair, free23)
    T = tilde_bound(pair, free23)
    assert L.issubset(O) and O.issubset(T)
    assert L == T


def test_commutative_bounds_collapse():
    fctx = FreeContext(1, 3)
    sl2 = make_sl(2)
    fg = f_dot_g(sl2, fctx)
    assert tilde_bound(sl2, fctx) == fg
    assert overline_bound(sl2, fctx) == fg


def test_finite_type_truncation_matches(free23):
    # for a type-2 pair only the first ideal term contributes
    sl2 = make_sl(2)
    tctx = TensorContext(free23, 2)
    cache = filtration(free23)
    from nclie.subspace import op_bracket, subspace_sum

    manual = subspace_sum(
        tctx.ambient,
        [
            f_dot_g(sl2, free23),
            tensor_product_span(tctx, cache.ideal_Ik(1), sl2.bracket_power(2)),
            tensor_product_span(
                tctx,
                op_bracket(free23, cache.base, cache.ideal_Ik(0)),
                sl2.g_power(2),
            ),
        ],
    )
    assert manual == tilde_bound(sl2, free23)


def test_filtered_chain(free23):
    pair = make_orthogonal(3)
    for m in (2, 3):
        Lm = lie_closure(pair, free23, m_cap=m)
        Om = overline_bound(pair, free23, m_cap=m)
        Tm = tilde_bound(pair, free23, m_cap=m)
        Gm = f_langle_g_filtered(pair, free23, m)
        assert Lm.issubset(Om) and Om.issubset(Tm) and Tm.issubset(Gm)


def test_filtered_pieces_grow(free23):
    pair = make_sl(2)
    prev = lie_closure(pair, free23, m_cap=1)
    for m in (2, 3, 4):
        cur = lie_closure(pair, free23, m_cap=m)
        assert prev.issubset(cur)
        prev = cur
    assert prev == lie_closure(pair, free23)


def test_filtered_bounds_converge(free23):
    # deep enough filtration caps reproduce the unfiltered bounds
    for pair in (make_sl(2), make_orthogonal(3)):
        assert tilde_bound(pair, free23, m_cap=10) == tilde_bound(pair, free23)
        assert overline_bound(pair, free23, m_cap=10) == overline_bound(pair, free23)


def test_sl2_form_mutation_detected(free23, monkeypatch):
    # dropping the top vector of one weight module must break the equality
    import nclie.current as cur_mod

    pair = make_sl2_irrep(3)
    baseline = sl2_closed_form(3, free23) == lie_closure(pair, free23)
    real = cur_mod.sl2_module_span

    def clipped(n, k):
        full = real(n, k)
        rows = list(full.vectors())[:-1] if k > 1 else list(full.vectors())
        from nclie.subspace import GradedSubspace

        return GradedSubspace.span(full.ambient, rows)

    monkeypatch.setattr(cur_mod, "sl2_module_span", clipped)
    mutated = cur_mod.sl2_closed_form(3, free23) == lie_closure(pair, free23)
    assert baseline and not mutated


# -- closed forms ---------------------------------------------------------------------


def test_type2_formula(free23):
    for pair in (make_sl(2), make_sl(3), make_orthogonal(3)):
        assert type2_formula(pair, free23) == lie_closure(pair, free23)


def test_type2_rejects_other_types(free23):
    with pytest.raises(TypeMismatchError):
        type2_formula(make_abelian_nilpotent(3), free23)
    with pytest.raises(TypeMismatchError):
        type2_formula(make_gl(2), free23)


def test_semisimple_closed_form(free23):
    for pair in (make_sl(2), make_orthogonal(3)):
        assert semisimple_closed_form(pair, free23) == lie_closure(pair, free23)
    with pytest.raises(ValueError):
        semisimple_closed_form(make_abelian_nilpotent(3), free23)


def test_sl2_closed_form(free23):
    for n in (2, 3):
        assert sl2_closed_form(n, free23) == lie_closure(make_sl2_irrep(n), free23)


def test_sl2_module_dimensions():
    from nclie.current import sl2_module_span

    for n in (2, 3, 4, 5):
        total = 1 + sum(sl2_module_span(n, k).dim for k in range(1, n))
        assert total == n * n


def test_trace_characterization(free23):
    # the closure for sl consists of the tensors whose trace is a commutator
    sl2 = make_sl(2)
    L = lie_closure(sl2, free23)
    cache = filtration(free23)
    fprime = cache.commutator_space(1)
    tctx = TensorContext(free23, 2)
    for vec in L.vectors():
        t = AlgElement(tctx, {i: Fraction(v) for i, v in vec.items()})
        entries = tctx.to_matrix(t)
        trace = entries[0][0] + entries[1][1]
        assert trace.is_zero() or fprime.contains_vector(trace.to_vector())


def test_lower_bound_terms(free23):
    sl2 = make_sl(2)
    L = lie_closure(sl2, free23)
    for k in (0, 1, 2):
        a, b = lower_bound_terms(sl2, free23, k)
        assert a.issubset(L) and b.issubset(L)
    first, _ = lower_bound_terms(sl2, free23, 0)
    assert first == f_dot_g(sl2, free23)
    fctx1 = FreeContext(1, 3)
    a, b = lower_bound_terms(sl2, fctx1, 1)
    assert a.is_zero() and b.is_zero()


# -- tensor spans against the element-wise reference ---------------------------------


def reference_tensor_product_span(tctx, fsub, asub):
    """The element-wise construction: every u (x) M eliminated by a SpanBuilder."""
    b = SpanBuilder(tctx.ambient)
    arows = [list(v.items()) for v in asub.vectors()]
    for u in fsub.vectors():
        for arow in arows:
            vec = {}
            for fi, cf in u.items():
                for ai, ca in arow:
                    vec[tctx.flat(fi, ai)] = cf * ca
            b.add(vec)
    return b.finalize()


def assert_bit_identical(new, ref):
    assert new == ref
    assert new.to_jsonable() == ref.to_jsonable()
    assert [None if m is None else m.dtype for m in new._rows] == [
        None if m is None else m.dtype for m in ref._rows
    ]
    assert hash(new) == hash(ref)


def coefficient_inputs(fctx):
    cache = filtration(fctx)
    return [
        fctx.full_subspace(),
        cache.ideal_Ik(1),
        cache.ideal_Ik(2),
        cache.commutator_space(1),
        cache.commutator_space(2),
        GradedSubspace.zero(fctx.ambient),
    ]


def matrix_inputs(pair):
    return [
        pair.g,
        pair.g_power(2),
        pair.bracket_power(2),
        pair.g_power(3),
        GradedSubspace.zero(pair.mctx.ambient),
    ]


@pytest.mark.parametrize("name", ["sl:3", "sp:4", "so:4", "sl2irrep:4", "jordan:3"])
def test_tensor_span_matches_reference(name, free24):
    pair = pair_by_name(name)
    tctx = TensorContext(free24, pair.n)
    for fsub in coefficient_inputs(free24):
        for asub in matrix_inputs(pair):
            new = tensor_product_span(tctx, fsub, asub)
            assert_bit_identical(new, reference_tensor_product_span(tctx, fsub, asub))


def test_tensor_span_matches_reference_other_backends(m2ctx):
    nonunital = FreeContext(2, 3, unital=False)
    for fctx in (nonunital, m2ctx):
        for pair in (make_sl(2), make_orthogonal(3)):
            tctx = TensorContext(fctx, pair.n)
            for fsub in coefficient_inputs(fctx):
                for asub in matrix_inputs(pair):
                    new = tensor_product_span(tctx, fsub, asub)
                    assert_bit_identical(new, reference_tensor_product_span(tctx, fsub, asub))


def test_tensor_span_big_entries_match_reference():
    # max|F| * max|A| >= 2^62 forces object rows, whether or not a factor
    # is an object matrix itself
    fctx = FreeContext(2, 2)
    tctx = TensorContext(fctx, 2)
    fsub = GradedSubspace.span(
        fctx.ambient, [{1: 1, 2: 3**40}, {3: 1, 4: 2**31, 5: -7}, {0: 1}]
    )
    asub = GradedSubspace.span(
        Ambient([(0, 4)]), [{0: 1, 3: 2**31 + 1}, {1: 5, 2: -3}]
    )
    assert fsub._rows[1].dtype == object and fsub._rows[2].dtype == np.int64
    new = tensor_product_span(tctx, fsub, asub)
    assert [m.dtype for m in new._rows] == [np.int64, object, object]
    assert_bit_identical(new, reference_tensor_product_span(tctx, fsub, asub))


def test_tensor_span_rejects_foreign_coefficient_ambient(free23, free24):
    tctx = TensorContext(free24, 2)
    with pytest.raises(ValueError):
        tensor_product_span(tctx, free23.full_subspace(), make_sl(2).g)


def test_tensor_span_rejects_foreign_matrix_ambient(free24):
    tctx = TensorContext(free24, 2)
    with pytest.raises(ValueError):
        tensor_product_span(tctx, free24.full_subspace(), make_sl(3).g)
