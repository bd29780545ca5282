import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from nclie import commfilt, current, pairs, subspace
from nclie.coeffalg import AlgElement, FreeContext, StructureContext, commutator, mul
from nclie.current import (
    TensorContext,
    TypeMismatchError,
    abelian_closure_form,
    f_dot_g,
    f_langle_g_filtered,
    fg_generator_vectors,
    filtration,
    kron_sum,
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
    UnsupportedError,
    make_abelian_nilpotent,
    make_gl,
    make_orthogonal,
    make_sl,
    make_sl2_irrep,
    matrix,
    pair_by_name,
)
from nclie.subspace import (
    Ambient,
    GradedSubspace,
    SpanBuilder,
    bracket_closed,
    bracket_saturate,
    op_bracket,
    op_product,
    subspace_sum,
)
from test_pairs import unit
from test_subspace import assert_same_rows, half_unit_matrix_context, reference_bracket_saturate


def random_tensor(tctx, rng, terms=3):
    data = {}
    for _ in range(terms):
        data[rng.randrange(tctx.ambient.dim)] = Fraction(rng.randint(-3, 3))
    return AlgElement(tctx, data)


# -- tensor arithmetic -----------------------------------------------------------


def reference_tensor_mul_basis(tctx, i, j):
    """(f (x) E_ab)(f' (x) E_cd) read off the flat indices by divmod."""
    nn, n = tctx.nn, tctx.n
    fi, ai = divmod(i, nn)
    fj, aj = divmod(j, nn)
    c, d = divmod(aj, n)
    if ai % n != c:
        return ()
    return tuple((fk * nn + (ai // n) * n + d, ck) for fk, ck in tctx.fctx.mul_basis(fi, fj))


@pytest.mark.parametrize("fctx, n", [
    (FreeContext(2, 2), 2),
    (FreeContext(2, 2), 3),
    (StructureContext.matrix_algebra(2), 2),
    (half_unit_matrix_context(), 2),
], ids=["free:2,2 n=2", "free:2,2 n=3", "matrix:2 n=2", "half-units n=2"])
def test_tensor_mul_basis_matches_divmod(fctx, n):
    tctx = TensorContext(fctx, n)
    dim = tctx.ambient.dim
    for i in range(dim):
        for j in range(dim):
            assert tuple(tctx.mul_basis(i, j)) == reference_tensor_mul_basis(tctx, i, j)


def test_pure_tensor_product(free23):
    tctx = TensorContext(free23, 2)
    x, y = free23.generators()
    a = tctx.pure(x, unit(2, 0, 1))
    b = tctx.pure(y, unit(2, 1, 0))
    prod = tensor_mul(a, b)
    assert prod == tctx.pure(x * y, unit(2, 0, 0))


@pytest.mark.parametrize("fctx, n", [(FreeContext(2, 10), 4), (FreeContext(2, 4), 32),
                                     (StructureContext.matrix_algebra(8), 12)])
def test_tensor_context_past_the_width_budget_refused(fctx, n):
    # w = (widest block of F) n^2: 1,024 * 16, 16 * 1,024 and 64 * 144
    with pytest.raises(ValueError, match=f"limit of {current.MAX_TENSOR_WIDTH}"):
        TensorContext(fctx, n)


def test_widest_measured_tensor_context_admitted():
    # sp:4 at m=2, D=9, the widest row of the scaling table: w = 512 * 16
    tctx = TensorContext(FreeContext(2, 9), 4)
    assert max(size for _, size in tctx.ambient.blocks) == current.MAX_TENSOR_WIDTH == 8192


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
        right = tctx.pure(s * t, commutator(e, f)) + tctx.pure(s * t - t * s, mul(f, e))
        assert left == right


def parse_random(ctx, rng):
    from nclie.coeffalg import AlgElement

    data = {rng.randrange(ctx.ambient.dim): Fraction(rng.randint(-2, 2)) for _ in range(2)}
    return AlgElement(ctx, data)


def random_matrix(n, rng):
    return matrix(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])


def test_tensor_product_associative(free23):
    tctx = TensorContext(free23, 2)
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (random_tensor(tctx, rng) for _ in range(3))
        assert tensor_mul(tensor_mul(a, b), c) == tensor_mul(a, tensor_mul(b, c))


def test_tensor_matrix_views(free23):
    tctx = TensorContext(free23, 2)
    x = free23.generator(0)
    t = tctx.pure(x, unit(2, 0, 1)) + tctx.one()
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
    g = tctx.one() + tctx.pure(x, unit(2, 0, 1))
    ginv = g.inverse()
    assert ginv == tctx.one() - tctx.pure(x, unit(2, 0, 1))
    assert tensor_mul(g, ginv) == tctx.one()


def test_tensor_inverse_structure(m2ctx):
    tctx = TensorContext(m2ctx, 2)
    g = tctx.one() + tctx.pure(m2ctx.basis_element(1), unit(2, 0, 1))
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


@pytest.mark.parametrize("name", ["sl:3", "sp:4", "so:4", "sl2irrep:4", "jordan:3"])
def test_closure_matches_reference_loop(name, free24):
    # every filtered piece, and the whole closure, bit for bit
    pair = pair_by_name(name)
    tctx = TensorContext(free24, pair.n)
    gens = fg_generator_vectors(pair, tctx)
    for m_cap in (None, 1, 2, 3):
        sweeps = None if m_cap is None else m_cap - 1
        assert_same_rows(lie_closure(pair, free24, m_cap),
                         reference_bracket_saturate(tctx, gens, sweeps))


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


def test_capped_tilde_reads_the_partial_sums_by_definition():
    # under a cap m the step k reads S(k, m - k) and S(k - 1, m - k), here
    # summed from the product ideals, not read off their recursion; at D = 4
    # the sums one factor longer give a larger bound at m = 2
    fctx = FreeContext(2, 4)
    cache = filtration(fctx)

    def S(k, l):
        return subspace_sum(fctx.ambient, [cache.ideal_Ikl(k, j) for j in range(1, l + 1)])

    for pair in map(pair_by_name, ("sl2irrep:3", "jordan:3")):
        for m_cap in (2, 3, 4):
            terms = [(fctx.full_subspace(), pair.g)]
            for k in range(1, m_cap):
                terms += [(S(k, m_cap - k), pair.bracket_power(k + 1)),
                          (op_bracket(fctx, cache.base, S(k - 1, m_cap - k)), pair.g_power(k + 1))]
            assert tilde_bound(pair, fctx, m_cap=m_cap) == kron_sum(TensorContext(fctx, 3), terms)


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
    # over M_2 no ideal vanishes: the partial sums reach I_k = M_2 at two factors
    m2 = StructureContext.matrix_algebra(2)
    for pair in map(pair_by_name, ("sl:2", "so:2", "gl:2")):
        for m_cap in (10, 40):
            assert tilde_bound(pair, m2, m_cap=m_cap) == tilde_bound(pair, m2)


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


def big_entry_inputs():
    fctx = FreeContext(2, 2)
    fsub = GradedSubspace.span(
        fctx.ambient, [{1: 1, 2: 3**40}, {3: 1, 4: 2**31, 5: -7}, {0: 1}]
    )
    asub = GradedSubspace.span(
        Ambient([(0, 4)]), [{0: 1, 3: 2**31 + 1}, {1: 5, 2: -3}]
    )
    return TensorContext(fctx, 2), fsub, asub


def test_tensor_span_big_entries_match_reference():
    # max|F| * max|A| >= 2^62 forces object rows, whether or not a factor
    # is an object matrix itself
    tctx, fsub, asub = big_entry_inputs()
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


# -- kron_sum against the sum of element-wise tensor spans ----------------------------


def drop_last_u(tctx, terms):
    """A broken kron_sum: the last U of each group of equal V is lost."""
    groups = {}
    for u, v in terms:
        groups.setdefault(v, []).append(u)
    return kron_sum(tctx, [(u, v) for v, us in groups.items() for u in us[:-1]])


def kron_sum_agreements(build, tctx, us, vs, seed, finals=None):
    """For lists of terms drawn from us x vs, whether build(tctx, terms)
    is bit-identical to the sum of the element-wise spans of the terms and,
    with finals (see record_final_sums), whether the last sum in
    F (x) M_n that build formed was direct."""
    ref = {(i, j): reference_tensor_product_span(tctx, u, v)
           for i, u in enumerate(us) for j, v in enumerate(vs)}
    every = list(ref)
    rng = random.Random(seed)
    lists = [
        [],
        every,
        [(i, 0) for i in range(len(us))],            # one V repeated
        [(len(us) - 1, j) for j in range(len(vs))],  # zero U
        [(i, len(vs) - 1) for i in range(len(us))],  # zero V
        [(i, (-1 - i) % len(vs)) for i in range(len(us))],  # U and V paired in opposite orders
    ] + [rng.choices(every, k=6) for _ in range(6)]
    out = []
    for idx in lists:
        new = build(tctx, [(us[i], vs[j]) for i, j in idx])
        try:
            assert_bit_identical(new, subspace_sum(tctx.ambient, [ref[k] for k in idx]))
            if finals is not None:
                assert_direct(finals[-1], new)
            out.append(True)
        except AssertionError:
            out.append(False)
    return out


def record_final_sums(monkeypatch, tctx):
    """The list of parts of every sum in F (x) M_n that current forms from
    now on, one list per sum."""
    finals = []
    real = current.subspace_sum

    def recording(ambient, parts):
        parts = list(parts)
        if ambient == tctx.ambient:
            finals.append(parts)
        return real(ambient, parts)

    monkeypatch.setattr(current, "subspace_sum", recording)
    return finals


def assert_direct(parts, total):
    """No two rows of the parts share a pivot, and their dimensions add up
    to that of their sum."""
    pivots = [(bi, p) for part in parts for bi, piv in enumerate(part._pivots) for p in piv]
    assert len(pivots) == len(set(pivots))
    assert sum(part.dim for part in parts) == total.dim


def chain_of(vs):
    """The members of vs, sorted by dimension, that contain every member
    kept before them: a chain by inclusion, with the zero spaces first."""
    out = []
    for v in sorted(vs, key=lambda v: v.dim):
        if not out or out[-1].issubset(v):
            out.append(v)
    return out


def chain_sum(tctx, terms, suffix=True, trim_against_suffix=True):
    """kron_sum's chain path written out for mutation tests, with two of its
    steps switchable: U'_j = U_j + U'_(j+1), and trimming U'_j against
    U'_(j+1) rather than against U_(j+1), the sum of group j+1 alone."""
    groups = {}
    for u, v in terms:
        groups.setdefault(v, []).append(u)
    fsum = functools.partial(subspace_sum, tctx.fctx.ambient)
    parts, lower = [], GradedSubspace.zero(tctx.fctx.ambient)
    below = lower
    for v in sorted(groups, key=lambda v: v.dim, reverse=True):
        own = fsum(groups[v])
        upper = fsum([lower, own]) if suffix else own
        parts.append(tensor_product_span(tctx, upper.rows_beyond(lower if trim_against_suffix else below), v))
        lower, below = upper, own
    return current.subspace_sum(tctx.ambient, parts)


@pytest.mark.parametrize("name", ["sl:3", "sp:4", "jordan:3"])
def test_kron_sum_matches_reference(name, free24):
    pair = pair_by_name(name)
    tctx = TensorContext(free24, pair.n)
    us = coefficient_inputs(free24)
    assert us[-1].is_zero() and matrix_inputs(pair)[-1].is_zero()
    assert all(kron_sum_agreements(kron_sum, tctx, us, matrix_inputs(pair), seed=8))


def test_kron_sum_big_entries_match_reference():
    tctx, fsub, asub = big_entry_inputs()
    fctx = tctx.fctx
    # a second U whose sum with fsub cancels the big entry of one row
    other = GradedSubspace.span(fctx.ambient, [{1: 1, 2: 3**40 + 1}, {5: 2**40}])
    us = [fsub, other, fctx.full_subspace()]
    vs = [asub, make_sl(2).g, GradedSubspace.zero(asub.ambient)]
    assert all(kron_sum_agreements(kron_sum, tctx, us, vs, seed=9))
    new = kron_sum(tctx, [(fsub, asub), (other, asub)])
    assert object in [m.dtype for m in new._rows if m is not None]


def test_kron_sum_mutation_detected(free24):
    pair = pair_by_name("sp:4")
    tctx = TensorContext(free24, pair.n)
    agreements = kron_sum_agreements(drop_last_u, tctx, coefficient_inputs(free24),
                                     matrix_inputs(pair), seed=8)
    assert not all(agreements)


@pytest.mark.parametrize("name", ["sl:3", "sp:4", "jordan:3"])
def test_kron_sum_of_a_chain_is_direct(monkeypatch, name, free24):
    # V chains such as 0 <= g <= [g, g^2] <= g^2 = g^3 for sp:4, with
    # zero U and zero V: the parts of the final sum have disjoint pivots
    pair = pair_by_name(name)
    tctx = TensorContext(free24, pair.n)
    us = coefficient_inputs(free24)
    chain = chain_of(matrix_inputs(pair))
    assert len({v: None for v in chain}) >= 2 and chain[0].is_zero()
    vs = chain[1:] + chain[:1]   # a zero V last, as kron_sum_agreements reads it
    finals = record_final_sums(monkeypatch, tctx)
    assert all(kron_sum_agreements(kron_sum, tctx, us, vs, seed=10, finals=finals))
    assert all(kron_sum_agreements(chain_sum, tctx, us, vs, seed=10, finals=finals))


@pytest.mark.parametrize("mutant", [
    functools.partial(chain_sum, trim_against_suffix=False),
    functools.partial(chain_sum, suffix=False),
], ids=["trim-against-own-group", "no-suffix-sum"])
@pytest.mark.parametrize("name", ["sp:4", "sl2irrep:4"])
def test_kron_sum_chain_mutations_detected(monkeypatch, name, mutant, free24):
    pair = pair_by_name(name)
    tctx = TensorContext(free24, pair.n)
    chain = chain_of(matrix_inputs(pair))
    assert len({v: None for v in chain if not v.is_zero()}) >= 3
    vs = chain[1:] + chain[:1]
    finals = record_final_sums(monkeypatch, tctx)
    assert not all(kron_sum_agreements(mutant, tctx, coefficient_inputs(free24), vs,
                                       seed=10, finals=finals))


def closed_form_terms(monkeypatch, build, pair, fctx):
    """The terms that build(pair, fctx) passes to kron_sum."""
    seen = []
    monkeypatch.setattr(current, "kron_sum", lambda tctx, terms: seen.append(list(terms)))
    build(pair, fctx)
    monkeypatch.undo()
    return seen[-1]


@pytest.mark.parametrize("build, name", [
    (tilde_bound, "sl2irrep:4"),
    (overline_bound, "sl2irrep:4"),
    (semisimple_closed_form, "sp:4"),
    (semisimple_closed_form, "sl:3"),
])
def test_kron_sum_fallback_when_v_do_not_chain(monkeypatch, build, name, free24):
    # each group of equal V is summed in F on its own, one Kronecker part
    # per distinct V, and the sum is still the element-wise one
    pair = pair_by_name(name)
    tctx = TensorContext(free24, pair.n)
    terms = closed_form_terms(monkeypatch, build, pair, free24)
    groups = {}
    for u, v in terms:
        groups.setdefault(v, {})[u] = None
    assert chain_of(groups) != sorted(groups, key=lambda v: v.dim)
    calls = []
    real = current.subspace_sum
    monkeypatch.setattr(current, "subspace_sum",
                        lambda ambient, parts: calls.append(list(parts)) or real(ambient, parts))
    new = kron_sum(tctx, terms)
    assert calls == [list(us) for us in groups.values()] + [calls[-1]]
    assert len(calls[-1]) == len(groups)
    ref = [reference_tensor_product_span(tctx, u, v) for u, v in dict.fromkeys(terms)]
    assert_bit_identical(new, subspace_sum(tctx.ambient, ref))


def sums_in_f(monkeypatch, free24, v2):
    """The parts of each sum in F that kron_sum forms for terms that repeat
    u1 and u2, and an equal copy of u1, over v1 = g and v2 (sp:4), as a
    capped tilde bound repeats the same few U once per k; also u1, u2 and
    the copy.  The result must be bit-identical to that of the terms
    without repeats."""
    pair = pair_by_name("sp:4")
    tctx = TensorContext(free24, pair.n)
    u1, u2 = coefficient_inputs(free24)[1:3]
    v1 = pair.g
    copy = GradedSubspace.span(free24.ambient, u1.vectors())   # equal, not the same object
    terms = [(u1, v1), (u2, v1), (u1, v1), (copy, v1), (u2, v2), (u2, v2)]
    calls = []
    real = current.subspace_sum

    def recording(ambient, parts):
        parts = list(parts)
        calls.append((ambient, parts))
        return real(ambient, parts)

    monkeypatch.setattr(current, "subspace_sum", recording)
    new = kron_sum(tctx, terms)
    monkeypatch.undo()
    assert_bit_identical(new, kron_sum(tctx, [(u1, v1), (u2, v1), (u2, v2)]))
    return [parts for ambient, parts in calls if ambient == free24.ambient], (u1, u2, copy)


def test_kron_sum_sums_each_distinct_u_once(monkeypatch, free24):
    # each distinct U reaches a sum in F once.  v1 = g <= v2 = g^2 for
    # sp:4, so the V chain: u2, of both groups, is summed only in that of
    # v2, whose sum the chain path carries to v1 as the first part
    f_sums, (u1, u2, copy) = sums_in_f(monkeypatch, free24, pair_by_name("sp:4").g_power(2))
    summed = [p for parts in f_sums for p in parts]
    assert [sum(p is u for p in summed) for u in (u1, u2, copy)] == [1, 1, 0]
    assert [parts[1:] for parts in f_sums] == [[u2], [u1]]


def test_kron_sum_fallback_sums_each_group_once(monkeypatch, free24):
    # g and the identity line do not chain: each group of equal V is summed
    # on its own, its distinct U once each, in order of first use
    f_sums, (u1, u2, _) = sums_in_f(monkeypatch, free24, current.identity_span(4))
    assert f_sums == [[u1, u2], [u2]]


def test_kron_sum_rejects_foreign_ambients(free23, free24):
    # a second V of sl2 makes a chain with sl2, the identity line does not
    tctx = TensorContext(free24, 2)
    sl2 = make_sl(2)
    for second in (sl2.g, current.identity_span(2)):
        with pytest.raises(ValueError):
            kron_sum(tctx, [(free24.full_subspace(), sl2.g), (free23.full_subspace(), second)])
        with pytest.raises(ValueError):
            kron_sum(tctx, [(free24.full_subspace(), second), (free24.full_subspace(), make_sl(3).g)])
    with pytest.raises(ValueError):
        kron_sum(tctx, [(free24.full_subspace(), make_sl(3).g)])


# -- capped series raise instead of returning a partial sum -----------------------


@pytest.mark.parametrize("build, name", [
    (tilde_bound, "sp:4"),
    (semisimple_closed_form, "sp:4"),
    (abelian_closure_form, "jordan:4"),
])
def test_series_past_the_cap_unsupported(monkeypatch, build, name):
    # with two steps allowed, none of these series has reached a zero or a
    # repeated term at D = 4, so the partial sum is not proven complete
    fctx = FreeContext(2, 4)
    pair = pair_by_name(name)
    monkeypatch.setattr(current, "_hard_cap", lambda fctx, pair: 2)
    with pytest.raises(UnsupportedError, match="within 2 steps"):
        build(pair, fctx)


def test_abelian_series_stops_on_a_repeated_term(m2ctx):
    # over M_2, F^(k) = sl_2 for every k >= 1 and gl_1 has g^k = g, so the
    # terms repeat from the second step on and never vanish
    pair = make_gl(1)
    cache = filtration(m2ctx)
    assert cache.commutator_space(1) == cache.commutator_space(2) and not pair.g_power(2).is_zero()
    form = abelian_closure_form(pair, m2ctx)
    assert form == lie_closure(pair, m2ctx) and form.dim == 4
    # so:2 has g = g^3 = span J and g^2 = span 1, so its terms alternate
    # with period 2 and never vanish
    so2 = make_orthogonal(2)
    assert so2.g_power(3) == so2.g != so2.g_power(2)
    form = abelian_closure_form(so2, m2ctx)
    assert form == lie_closure(so2, m2ctx)


# -- overline_bound: pruned factor tuples against the full loop ------------------------


def reference_layers(pair, fctx, max_layer, factor):
    """Per layer, both terms of every factor tuple of the loop before
    pruning that passes the zero filters, multiplied out, with factor(k, l)
    as the factor of F and the J(l, k) of a fresh cache on M_n."""
    jcache = current.FiltrationCache(pair.mctx, generating=pair.g)
    for s in range(max_layer + 1):
        terms = []
        for k1 in range(s + 1):
            for k2 in range(s - k1 + 1):
                for l1 in range(s - k1 - k2 + 1):
                    l2 = s - k1 - k2 - l1
                    i1, i2 = factor(k1, l1 + 1), factor(k2, l2 + 1)
                    if i1.is_zero() or i2.is_zero():
                        continue
                    j1 = jcache.ideal_Ikl(l1, k1 + 1)
                    j2 = jcache.ideal_Ikl(l2, k2 + 1)
                    if j1.is_zero() or j2.is_zero():
                        continue
                    terms.append((op_product(fctx, i1, i2), op_bracket(pair.mctx, j1, j2)))
                    terms.append((op_bracket(fctx, i1, i2), op_product(pair.mctx, j2, j1)))
        yield terms


def reference_max_layer(pair, fctx, m_cap):
    top = fctx.ambient.max_degree - 2 if fctx.is_free else current._hard_cap(fctx, pair)
    return top if m_cap is None else min(top, m_cap - 2)


def reference_overline_bound(pair, fctx, m_cap=None):
    """The loop before pruning, by the definition: the factors of F are the
    product ideals I(k, l).  It calls current.kron_sum, so a test can record
    the merged dimension it reads after each layer."""
    tctx = TensorContext(fctx, pair.n)
    factor = filtration(fctx).ideal_Ikl
    terms = [(fctx.full_subspace(), pair.g)]
    dim = None
    stale = 0
    for layer in reference_layers(pair, fctx, reference_max_layer(pair, fctx, m_cap), factor):
        terms += layer
        if not fctx.is_free:
            prev, dim = dim, current.kron_sum(tctx, terms).dim
            stale = 0 if prev is None or dim > prev else stale + 1
            if stale >= 2:
                break
    return current.kron_sum(tctx, terms)


def merged_dims(monkeypatch, build, *args):
    """build(*args) and the dimension of every kron_sum it calls, in order."""
    dims = []
    real = current.kron_sum

    def recording(tctx, terms):
        out = real(tctx, terms)
        dims.append(out.dim)
        return out

    monkeypatch.setattr(current, "kron_sum", recording)
    out = build(*args)
    monkeypatch.undo()
    return out, dims


OVERLINE_PAIRS = ["sl:3", "sp:4", "so:4", "sl2irrep:4", "jordan:3"]
FREE_BY_DEGREE = {4: FreeContext(2, 4), 5: FreeContext(2, 5)}


@pytest.mark.parametrize("name", OVERLINE_PAIRS)
@pytest.mark.parametrize("degree", [4, 5])
def test_overline_bound_matches_reference(name, degree):
    pair, fctx = pair_by_name(name), FREE_BY_DEGREE[degree]
    for m_cap in (None, 2, 3, 4):
        assert_bit_identical(overline_bound(pair, fctx, m_cap=m_cap),
                             reference_overline_bound(pair, fctx, m_cap=m_cap))


@pytest.mark.parametrize("name", OVERLINE_PAIRS)
def test_overline_bound_layers_match_reference_over_matrices(name, m2ctx, monkeypatch):
    # over M_2 the stale-layer stop reads the merged dimension after each
    # layer, so pruning must leave every one of them as it was
    pair = pair_by_name(name)
    new, new_dims = merged_dims(monkeypatch, overline_bound, pair, m2ctx)
    ref, ref_dims = merged_dims(monkeypatch, reference_overline_bound, pair, m2ctx)
    assert_bit_identical(new, ref)
    assert new_dims == ref_dims and len(ref_dims) >= 3


def test_overline_bound_multiplies_only_undominated_tuples(monkeypatch):
    # at D = 5, sp:4 keeps 5 of its 16 distinct factor tuples
    calls = []
    real = current._undominated

    def recording(kept, fresh, leq):
        out = real(kept, fresh, leq)
        calls.append((len(set(fresh)), len(out)))
        return out

    monkeypatch.setattr(current, "_undominated", recording)
    overline_bound(pair_by_name("sp:4"), FREE_BY_DEGREE[5])
    assert calls == [(16, 5)]


def test_undominated_keeps_the_maximal_tuples():
    sub = {}

    def leq(a, b):
        return sub[a] <= sub[b]

    sub.update({"a": {1}, "b": {1, 2}, "c": {3}, "d": {1, 2, 3}})
    fresh = [("a", "c"), ("b", "c"), ("a", "c"), ("d", "a"), ("b", "a")]
    # (a, c) lies below (b, c), and (b, a) below (d, a)
    assert current._undominated([], fresh, leq) == [("b", "c"), ("d", "a")]
    # a kept tuple prunes a fresh one below it, and is not returned again
    assert current._undominated([("d", "d")], fresh, leq) == []
    assert current._undominated([("a", "a")], [("a", "a"), ("c", "c")], leq) == [("c", "c")]


@pytest.mark.parametrize("m_cap, dims", [(None, [414, 632, 653, 653]), (3, [414, 632])])
def test_partial_sum_factors_give_the_layer_sums_of_the_product_ideals(monkeypatch, m_cap, dims):
    # the lemma of overline_bound: with S(k, l) in place of I(k, l) as the
    # factors of F, the refined terms sum to the same space after every
    # layer.  The sums grow over three layers, so a shifted layer shows
    monkeypatch.setattr(current, "_closure_memo", {})
    pair, fctx = pair_by_name("sl2irrep:4"), FREE_BY_DEGREE[5]
    tctx, cache = TensorContext(fctx, pair.n), filtration(fctx)
    max_layer = reference_max_layer(pair, fctx, m_cap)

    def layer_sums(factor):
        terms, sums = [], []
        for layer in reference_layers(pair, fctx, max_layer, factor):
            terms += layer
            sums.append(kron_sum(tctx, terms))
        return sums

    by_products, by_partial_sums = layer_sums(cache.ideal_Ikl), layer_sums(cache.ideal_Ik_le)
    assert [x.dim for x in by_products] == dims
    for new, ref in zip(by_partial_sums, by_products, strict=True):
        assert_bit_identical(new, ref)


def test_overline_bound_builds_no_product_ideal_of_f(monkeypatch):
    # the factors of F are the partial sums S(k, l), read off the rows that
    # tilde_bound builds; neither bound reads a commutator space past C(0)
    # or a product ideal I(k, l) of F
    monkeypatch.setattr(current, "_closure_memo", {})
    pair, fctx = pair_by_name("sp:4"), FREE_BY_DEGREE[5]
    tilde_bound(pair, fctx)
    overline_bound(pair, fctx)
    cache = filtration(fctx)
    assert len(cache._comm._terms) == 1 and not cache._ikl


# -- filtration ideals under a large cap -------------------------------------------


def test_tilde_cap_past_the_zero_factor_count_builds_nothing_more(monkeypatch):
    # a capped bound reads the rows (S(k, 1), ..., S(k, L)) of the partial
    # sums and builds no product ideal.  The rows stop with the ideals, at
    # I_3 = 0 for D = 3 and at I_1 = I_0 over M_2, so what a cap builds does
    # not grow with it
    pair = make_sl(2)
    built = {}
    for fctx, caps in ((FreeContext(2, 3), (10, 150, 1500)),
                       (StructureContext.matrix_algebra(2), (20, 80))):
        spans = []
        for m_cap in caps:
            monkeypatch.setattr(current, "_closure_memo", {})
            spans.append(tilde_bound(pair, fctx, m_cap=m_cap))
            cache = filtration(fctx)
            assert not cache._ikl
            built[fctx.is_free, m_cap] = len(cache._sums._terms)
        for span in spans[1:]:
            assert_bit_identical(span, spans[0])
    assert built[True, 10] == built[True, 150] == built[True, 1500] == 4
    assert built[False, 20] == built[False, 80] == 2


# -- the filtration memo: each span is formed once -----------------------------------


def test_bounds_form_each_bracket_span_once(monkeypatch):
    # the chains of I_k and S(k, l), the steps of tilde_bound and
    # semisimple_closed_form and the terms of overline_bound all read the
    # filtration's memo, so no bracket of F is formed twice, in either order
    # of its factors; and the pair holds its J filtration, so three
    # overline_bound calls build the J chain once
    monkeypatch.setattr(current, "_closure_memo", {})
    formed = []

    def recording(ctx, a, b, real=op_bracket):
        formed.append((ctx.key(), frozenset((a, b))))
        return real(ctx, a, b)

    # current and pairs import no op_bracket; patched there, one that comes
    # back is recorded too
    for module in (subspace, commfilt, current, pairs):
        monkeypatch.setattr(module, "op_bracket", recording, raising=False)
    fctx = FreeContext(2, 4)
    for name in ("sp:4", "sl:3"):
        pair = pair_by_name(name)
        in_mn = []
        for _ in range(3):
            start = len(formed)
            overline_bound(pair, fctx)
            in_mn.append(sum(key == pair.mctx.key() for key, _ in formed[start:]))
        assert in_mn[0] > 0 and in_mn[1:] == [0, 0]
        semisimple_closed_form(pair, fctx)
        for m_cap in (None, 2, 3, 4):
            tilde_bound(pair, fctx, m_cap=m_cap)
            overline_bound(pair, fctx, m_cap=m_cap)
    in_f = [span for key, span in formed if key == fctx.key()]
    distinct = len(set(in_f))
    assert 0 < distinct == len(in_f)


# -- generator permutations fix the closure and the bounds ---------------------------


def permuted_letters(sub, fctx, sigma):
    """sub with the letters of every word of F renamed by sigma, re-spanned;
    coordinate k of F (x) M_n is word k // n^2 and matrix unit k % n^2."""
    nn = sub.ambient.dim // fctx.ambient.dim
    image = [fctx.word_index[tuple(sigma[x] for x in w)] for w in fctx.words]
    return GradedSubspace.span(sub.ambient, ({image[k // nn] * nn + k % nn: c for k, c in v.items()}
                                             for v in sub.vectors()))


@pytest.mark.parametrize("name, m, degree", [
    ("sl:3", 2, 4), ("sl2irrep:4", 2, 4), ("so:4", 2, 4), ("jordan:3", 2, 4), ("sp:4", 3, 3),
])
def test_closure_and_bounds_are_fixed_by_generator_permutations(name, m, degree):
    # a permutation of the generators is an automorphism of F that keeps
    # word length; tensored with the identity it fixes F . g, so it maps the
    # closure onto itself, and it fixes the characteristic ideals of F that
    # the bounds are built from.  No oracle is read: a wrongly memoized span
    # that breaks the symmetry fails on its own
    pair, fctx = pair_by_name(name), FreeContext(m, degree)
    for build in (lie_closure, tilde_bound, overline_bound):
        sub = build(pair, fctx)
        for sigma in itertools.permutations(range(m)):
            assert permuted_letters(sub, fctx, sigma) == sub
