import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclie import commfilt, pairs
from nclie.coeffalg import NonUnitError, StructureContext, commutator, inverse, mul
from nclie.pairs import (
    INFINITE,
    CompatiblePair,
    UnsupportedError,
    _deflate,
    _find_rational_root,
    char_poly,
    make_abelian_nilpotent,
    make_gl,
    make_orthogonal,
    make_orthogonal_degenerate,
    make_sl,
    make_sl2_irrep,
    make_symplectic,
    matrix,
    pair_by_name,
    rational_eigenvalues,
    sl2_irrep_matrices,
)
from nclie.subspace import (
    GradedSubspace,
    SpanBuilder,
    fraction_left_kernel,
    fraction_nullspace,
    fraction_solve,
)
from test_subspace import reference_nullspace_complement


# -- the tuple matrices of the former pairs module, kept as references ----------
#
# A matrix was a tuple of Fraction tuples with its own arithmetic; pairs now
# holds every matrix as an element of the M_n context.  The helpers and the
# tuple versions of tilde_power, center, char_poly and the witness test below
# are that former code, against which the element code is compared.


def unit(n, i, j):
    """The matrix unit E_(i+1, j+1) of M_n, as an element."""
    return StructureContext.matrix_algebra(n).basis_element(i * n + j)


def mat(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def mat_zero(n):
    return tuple((Fraction(0),) * n for _ in range(n))


def mat_identity(n):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_commutator(a, b):
    return mat_add(mat_mul(a, b), mat_scale(-1, mat_mul(b, a)))


def mat_pow(a, k):
    out = mat_identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def mat_to_vector(a):
    n = len(a)
    return {i * n + j: a[i][j] for i in range(n) for j in range(n) if a[i][j]}


def vector_to_mat(vec, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for idx, v in vec.items() if isinstance(vec, dict) else vec:
        rows[idx // n][idx % n] = Fraction(v)
    return mat(rows)


def mat_inverse(a):
    n = len(a)
    cols = []
    for j in range(n):
        rhs = [Fraction(1 if i == j else 0) for i in range(n)]
        sol = fraction_solve([list(r) for r in a], rhs)
        if sol is None:
            raise UnsupportedError("matrix is singular")
        cols.append(sol)
    inv = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    if mat_mul(inv, a) != mat_identity(n):
        raise UnsupportedError("matrix is singular")
    return inv


def rows_of(x):
    """The tuple matrix of an element of M_n."""
    return vector_to_mat(x.coeffs, math.isqrt(x.ctx.dim_algebra))


def reference_sym_power(pair, k):
    """The former tilde_power: the memoized polarization recursion on tuples."""
    basis = [rows_of(b) for b in pair.g_basis]
    memo = {(): mat_identity(pair.n)}

    def sym(ms):
        if ms not in memo:
            total = mat_zero(pair.n)
            for pos, x in enumerate(ms):
                if pos and ms[pos - 1] == x:
                    continue
                total = mat_add(total, mat_mul(basis[x], sym(ms[:pos] + ms[pos + 1:])))
            memo[ms] = total
        return memo[ms]

    b = SpanBuilder(pair.mctx.ambient)
    for combo in itertools.combinations_with_replacement(range(len(basis)), k):
        b.add(mat_to_vector(sym(combo)))
    return b.finalize()


def reference_center(pair):
    """The former center: left kernel of the commutator table, on tuples."""
    n = pair.n
    basis = [vector_to_mat(v, n) for v in pair.envelope().vectors()]
    rows = []
    for c in basis:
        row = []
        for b in basis:
            comm = mat_commutator(c, b)
            row.extend(comm[i][j] for i in range(n) for j in range(n))
        rows.append(row)
    vecs = []
    for combo in fraction_left_kernel(rows) if basis else []:
        z = mat_zero(n)
        for coef, c in zip(combo, basis):
            if coef:
                z = mat_add(z, mat_scale(coef, c))
        vecs.append(mat_to_vector(z))
    return GradedSubspace.span(pair.mctx.ambient, vecs)


def reference_char_poly(a):
    """The former Faddeev-LeVerrier loop on tuples."""
    n = len(a)
    am = mat(a)
    m = mat_identity(n)
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am_m = mat_mul(am, m)
        ck = -sum(am_m[i][i] for i in range(n)) / k
        coeffs.append(ck)
        m = mat_add(am_m, mat_scale(ck, mat_identity(n)))
    return coeffs


def reference_witness(pair, h0):
    """The former strongly_graded_witness on tuples; "unsupported" when the
    characteristic polynomial of ad h0 does not split."""
    n = pair.n
    basis = [rows_of(b) for b in pair.g_basis]
    h0 = rows_of(h0)

    def coords(m):
        rows = [[b[i][j] for b in basis] for i in range(n) for j in range(n)]
        return fraction_solve(rows, [m[i][j] for i in range(n) for j in range(n)])

    if coords(h0) is None:
        return "outside g"
    dim = len(basis)
    ad = [coords(mat_commutator(h0, b)) for b in basis]
    admat = [[ad[j][i] for j in range(dim)] for i in range(dim)]
    poly, roots = reference_char_poly(admat), []
    while len(poly) > 1:
        root = _find_rational_root(poly)
        if root is None:
            return "unsupported"
        roots.append(root)
        poly = _deflate(poly, root)
    eigenspaces = {
        c: fraction_nullspace([[admat[i][j] - (c if i == j else 0) for j in range(dim)]
                               for i in range(dim)])
        for c in sorted(set(roots))
    }
    if sum(map(len, eigenspaces.values())) != dim:
        return False

    def realize(vec):
        z = mat_zero(n)
        for coef, b in zip(vec, basis):
            if coef:
                z = mat_add(z, mat_scale(coef, b))
        return z

    brackets = [mat_to_vector(mat_commutator(realize(va), realize(vb)))
                for c, vecs in eigenspaces.items() if c != 0 and -c in eigenspaces
                for va in vecs for vb in eigenspaces[-c]]
    null = [mat_to_vector(realize(v)) for v in eigenspaces.get(Fraction(0), [])]
    amb = pair.mctx.ambient
    return GradedSubspace.span(amb, brackets) == GradedSubspace.span(amb, null)


def witness_verdict(pair, h0):
    try:
        return pair.strongly_graded_witness(h0)
    except UnsupportedError:
        return "unsupported"
    except ValueError:
        return "outside g"


# -- builders -----------------------------------------------------------------


def test_sl_dimensions_and_compatibility():
    for n in (2, 3, 4):
        pair = make_sl(n)
        assert pair.g.dim == n * n - 1


def test_gl_is_everything():
    pair = make_gl(3)
    assert pair.g.dim == 9 and pair.pair_type() == 1


def test_orthogonal_dimension_n3():
    assert make_orthogonal(3).g.dim == 3


def test_symplectic_dimension_4():
    assert make_symplectic(4).g.dim == 10


def test_dependent_basis_rejected():
    e = [[1, 0], [0, 0]]
    with pytest.raises(ValueError):
        CompatiblePair(2, [e, e])


def test_non_lie_basis_rejected():
    # span{E12, E21} is not closed under the bracket
    with pytest.raises(ValueError):
        CompatiblePair(2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])


def test_pair_by_name():
    assert pair_by_name("sl:3").name == "sl:3"
    assert pair_by_name("jordan:4").g.dim == 1
    with pytest.raises(ValueError):
        pair_by_name("weyl:3")


def test_pair_from_json(tmp_path):
    import json

    payload = {
        "n": 2,
        "name": "half-diag",
        "g_basis": [[["1/2", 0], [0, "-1/2"]]],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload))
    pair = pair_by_name(str(path))
    assert pair.name == "half-diag" and pair.g.dim == 1
    assert pair.g.contains_vector(matrix(2, [[1, 0], [0, -1]]).coeffs)


# -- sl2 irreducible representation ----------------------------------------------


def test_sl2_irrep_relations():
    for n in (2, 3, 4, 5):
        e, f, h = sl2_irrep_matrices(n)
        assert commutator(h, e) == e * 2
        assert commutator(h, f) == f * -2
        assert commutator(e, f) == h


def test_casimir_scalar():
    for n in (2, 3, 4, 5):
        e, f, h = sl2_irrep_matrices(n)
        cas = mul(e, f) * 2 + mul(f, e) * 2 + mul(h, h)
        assert cas == e.ctx.one() * (n * n - 1)


# -- abelian nilpotent pair -------------------------------------------------------


def test_abelian_pair_properties():
    pair = make_abelian_nilpotent(3)
    n_mat = pair.g_basis[0]
    assert pair.bracket_power(1).is_zero()
    assert (n_mat**3).is_zero() and not (n_mat**2).is_zero()
    for k in (1, 2):
        assert pair.g_power(k).dim == 1
    assert pair.g_power(3).is_zero()


# -- powers and type ----------------------------------------------------------------


def test_g_power_basics():
    sl2 = make_sl(2)
    assert sl2.g_power(1) == sl2.g
    # the identity shows up in degree two
    assert sl2.g_power(2).contains_vector(sl2.mctx.one().coeffs)
    assert sl2.g_power(2).dim == 4
    ir3 = make_sl2_irrep(3)
    assert ir3.g_power(2).dim == 9


def test_powers_stop_at_the_first_repeat(monkeypatch):
    # g^2 = g^3 = M_2 for sl_2: no power past g^3 and no bracket past [g, g^2]
    # is formed, however high the exponent asked for; the brackets are formed
    # by the pair's filtration memo
    pair = make_sl(2)
    formed = []
    for module, name in ((pairs, "op_product"), (commfilt, "op_bracket")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            formed.append(name) or real(*args))
    assert pair.g_power(10**6) == pair.g_power(2) and pair.g_power(2).dim == 4
    assert pair.bracket_power(10**6) == pair.bracket_power(2) == pair.g
    assert pair.power_stabilization() == 2
    assert formed.count("op_product") <= 3 and formed.count("op_bracket") <= 3


def test_period_two_powers_end_in_a_perfectness_verdict():
    # so:2: g = span J, g^2 = span 1 (J^2 = -1), g^3 = span J again
    pair = pair_by_name("so:2")
    assert pair.power_stabilization() == 1 and pair.power_period() == 2
    powers = [pair.g_power(k) for k in range(1, 8)]
    assert powers[0::2] == [pair.g] * 4 and powers[1::2] == [pair.g_power(2)] * 3
    assert pair.g_power(2) != pair.g and pair.g_power(10**6) == pair.g_power(2)
    assert pair.g_power(10**6 + 1) == pair.g
    # [g, g^2] g + (g^2 meet g^3) = 0, not g^3 = g
    assert pair.is_perfect() == (False, 2)


def test_pair_types():
    assert make_gl(2).pair_type() == 1
    assert make_sl(2).pair_type() == 2
    assert make_sl(3).pair_type() == 2
    assert make_orthogonal(3).pair_type() == 2
    assert make_orthogonal(4).pair_type() == 2
    assert make_symplectic(4).pair_type() == 2
    assert make_sl2_irrep(4).pair_type() == 3
    assert make_abelian_nilpotent(3).pair_type() == INFINITE


def test_envelope_of_jordan_block():
    pair = make_abelian_nilpotent(3)
    assert pair.envelope().dim == 2


def reference_pair_type(pair):
    """The former pair_type loop: its own partial sums, stopped after two
    steps that add nothing."""
    acc, m, stale = pair.g, 1, 0
    while True:
        if acc == pair.algebra:
            return m
        grown = acc.sum(pair.g_power(m + 1))
        stale = stale + 1 if grown == acc else 0
        if stale >= 2:
            return INFINITE
        acc = grown
        m += 1


def reference_envelope(pair):
    """The former envelope loop: add powers until one adds nothing."""
    acc, k = pair.g, 1
    while True:
        k += 1
        grown = acc.sum(pair.g_power(k))
        if grown == acc:
            return acc
        acc = grown


@pytest.mark.parametrize("spec", [
    "gl:1", "gl:2", "gl:3", "sl:2", "sl:3", "so:3", "so:4", "sp:2", "sp:4",
    "sl2irrep:2", "sl2irrep:3", "sl2irrep:4", "jordan:2", "jordan:3", "jordan:4",
    [[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
], ids=str)
def test_pair_type_and_envelope_match_the_former_loops(spec):
    build = pair_by_name if isinstance(spec, str) else make_orthogonal_degenerate
    pair, fresh = build(spec), build(spec)
    assert pair.pair_type() == reference_pair_type(fresh)
    assert pair.envelope() == reference_envelope(fresh)
    assert build(spec).envelope() == pair.envelope()  # built without pair_type first


# -- pure powers by polarization ------------------------------------------------------


def test_tilde_power_abelian_equals_power():
    pair = make_abelian_nilpotent(4)
    for k in (2, 3):
        assert pair.tilde_power(k) == pair.g_power(k)


def test_tilde_power_is_contained():
    for pair in (make_sl(2), make_orthogonal(3)):
        for k in (2, 3):
            assert pair.tilde_power(k).issubset(pair.g_power(k))


def reference_tilde_power(pair, k):
    """The permutation sum: every distinct ordering of every k-multiset."""
    basis = [rows_of(b) for b in pair.g_basis]
    b = SpanBuilder(pair.mctx.ambient)
    for combo in itertools.combinations_with_replacement(range(len(basis)), k):
        total = mat_zero(pair.n)
        for perm in set(itertools.permutations(combo)):
            prod = basis[perm[0]]
            for idx in perm[1:]:
                prod = mat_mul(prod, basis[idx])
            total = mat_add(total, prod)
        b.add(mat_to_vector(total))
    return b.finalize()


@pytest.mark.parametrize(
    "name, kmax", [("sl:3", 4), ("sp:4", 3), ("so:4", 4), ("sl2irrep:4", 4), ("jordan:3", 4)]
)
def test_tilde_power_matches_permutation_sum(name, kmax):
    pair = pair_by_name(name)
    for k in range(2, kmax + 1):
        new, ref = pair.tilde_power(k), reference_tilde_power(pair, k)
        assert new == ref
        assert new.to_jsonable() == ref.to_jsonable()


def test_pure_power_identity():
    # pure powers plus the overlap with the previous power give the full power
    for pair in (make_sl2_irrep(3), make_sl(2), make_symplectic(4),
                 make_orthogonal(3), make_gl(2), make_abelian_nilpotent(4)):
        for k in (2, 3, 4):
            lhs = pair.tilde_power(k).sum(
                pair.g_power(k - 1).intersect(pair.g_power(k))
            )
            assert lhs == pair.g_power(k)


def test_commutators_of_powers_collapse():
    from nclie.subspace import op_bracket

    for pair in (make_sl(2), make_sl(3), make_orthogonal(3), make_orthogonal(4),
                 make_symplectic(4), make_sl2_irrep(3), make_gl(2),
                 make_abelian_nilpotent(3)):
        for k in (1, 2, 3):
            for m in (1, 2, 3):
                lhs = op_bracket(pair.mctx, pair.g_power(k + 1), pair.g_power(m))
                assert lhs.issubset(pair.bracket_power(k + m))


# -- perfectness -------------------------------------------------------------------------


def test_perfect_pairs():
    for pair in (make_sl(3), make_sl2_irrep(2), make_sl2_irrep(3), make_sl2_irrep(4),
                 make_sl2_irrep(5), make_orthogonal(3), make_symplectic(4)):
        ok, first = pair.is_perfect()
        assert ok and first is None


def test_jordan3_perfect_regression():
    # the length-3 nilpotent block satisfies the perfectness recursion because
    # its third power vanishes; frozen as a regression value
    ok, _ = make_abelian_nilpotent(3).is_perfect()
    assert ok
    # the length-4 block fails at k = 2
    ok, first = make_abelian_nilpotent(4).is_perfect()
    assert not ok and first == 2


# -- centers ------------------------------------------------------------------------------


def test_center_parts_sl2():
    sl2 = make_sl(2)
    z2 = sl2.center_part(2)
    assert z2.dim == 1 and z2.contains_vector(sl2.mctx.one().coeffs)
    assert sl2.center_part(1).is_zero()


def test_center_decomposition_semisimple():
    for pair in (make_sl2_irrep(3), make_orthogonal(3), make_sl(2)):
        for k in (2, 3):
            plus = pair.bracket_power(k)
            zk = pair.center_part(k)
            assert plus.sum(zk) == pair.g_power(k)
            assert plus.intersect(zk).is_zero()


@pytest.mark.parametrize("name", ["sp:4", "sl2irrep:4"])
def test_center_forms_each_commutator_once(monkeypatch, name):
    # one commutator per unordered pair of distinct envelope basis elements:
    # not one per matrix entry of each, and not [b, c] beside [c, b]
    pair = pair_by_name(name)
    dim = pair.envelope().dim
    calls = []
    real = pairs.commutator
    monkeypatch.setattr(pairs, "commutator", lambda a, b: calls.append(1) or real(a, b))
    assert pair.center().to_jsonable() == reference_center(pair).to_jsonable()
    assert len(calls) == dim * (dim - 1) // 2 > 0


# -- strong grading witness -----------------------------------------------------------------


def test_witness_sl2_cartan():
    pair = make_sl2_irrep(2)
    assert pair.strongly_graded_witness(sl2_irrep_matrices(2)[2])


def test_witness_sl3_diagonal():
    pair = make_sl(3)
    # rows from outside are accepted as they are
    assert pair.strongly_graded_witness([[1, 0, 0], [0, 0, 0], [0, 0, -1]])


def test_witness_fails_for_abelian():
    pair = make_abelian_nilpotent(3)
    assert not pair.strongly_graded_witness(pair.g_basis[0])


def test_witness_nonsplit_unsupported():
    # an elliptic rotation inside the antidiagonal-form orthogonal algebra has
    # characteristic polynomial x^3 + c x with no rational splitting
    pair = make_orthogonal(3)
    basis = pair.g_basis
    found = False
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            cand = basis[i] - basis[j]
            try:
                pair.strongly_graded_witness(cand)
            except UnsupportedError:
                found = True
    assert found


def test_witness_must_lie_in_g():
    with pytest.raises(ValueError):
        make_sl(2).strongly_graded_witness(make_sl(2).mctx.one())


def test_builtin_witness_candidates():
    # semisimple families carry a working split witness; the reductive and
    # nilpotent ones carry a candidate that honestly fails condition (ii)
    for pair in (make_sl(2), make_sl(3), make_orthogonal(3), make_orthogonal(4),
                 make_symplectic(4), make_sl2_irrep(3), make_sl2_irrep(4)):
        assert pair.strongly_graded_witness(pair.witness_candidate)
    for pair in (make_gl(2), make_abelian_nilpotent(3)):
        assert not pair.strongly_graded_witness(pair.witness_candidate)


def test_powers_inside_envelope():
    for pair in (make_sl(2), make_abelian_nilpotent(4), make_orthogonal(3)):
        env = pair.envelope()
        cumulative = pair.g
        prev_dim = cumulative.dim
        for k in (2, 3, 4):
            assert pair.g_power(k).issubset(env)
            cumulative = cumulative.sum(pair.g_power(k))
            assert cumulative.dim >= prev_dim
            prev_dim = cumulative.dim


# -- degenerate orthogonal pairs -----------------------------------------------------------------


def test_degenerate_nondegenerate_form_gives_full_algebra():
    pair = make_orthogonal_degenerate([[0, 1], [1, 0]])
    assert pair.algebra.dim == 4


def test_degenerate_zero_form():
    pair = make_orthogonal_degenerate([[0, 0], [0, 0]])
    assert pair.algebra.dim == 4 and pair.g.dim == 4


def test_degenerate_rank1_on_plane():
    pair = make_orthogonal_degenerate([[1, 0], [0, 0]])
    assert pair.algebra.dim == 3
    assert pair.g.dim == 2
    assert pair.g.issubset(pair.algebra)


def test_degenerate_rank3_is_type_2():
    pair = make_orthogonal_degenerate(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    )
    assert pair.pair_type() == 2


@pytest.mark.parametrize("phi", [
    [[1, 0], [0, 0]],
    [[0, 0], [0, 0]],
    [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    [[0, 2, 1], [-2, 0, 3], [-1, -3, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
    [[2, 1, 0, 1], [1, 2, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]],
])
def test_degenerate_stabilizer_matches_reference_complement(phi):
    n = len(phi)
    kernel = reference_nullspace_complement(mat(phi), n)
    comp = reference_nullspace_complement(kernel, n) if kernel else []
    if kernel:
        assert fraction_nullspace(kernel) == comp
    constraints = [
        [functional[a] * w[b] for a in range(n) for b in range(n)]
        for w in kernel for functional in comp
    ]
    if constraints:
        basis = reference_nullspace_complement(constraints, n * n)
        expected = GradedSubspace.span(make_gl(n).mctx.ambient,
                                       [mat_to_vector(vector_to_mat(enumerate(v), n)) for v in basis])
    else:
        expected = make_gl(n).algebra
    pair = make_orthogonal_degenerate(phi)
    assert pair.algebra == expected


def test_degenerate_rejects_mixed_form():
    with pytest.raises(ValueError):
        make_orthogonal_degenerate([[1, 1], [0, 1]])


# -- exact matrix helpers ------------------------------------------------------------------------


def test_matrix_inverse_and_charpoly():
    a = [[2, 1], [1, 1]]
    assert rows_of(inverse(matrix(2, a))) == mat([[1, -1], [-1, 2]])
    assert char_poly(a) == [Fraction(1), Fraction(-3), Fraction(1)]
    assert char_poly([]) == reference_char_poly([]) == [Fraction(1)]
    assert rational_eigenvalues([[1, 0], [0, 5]]) == [Fraction(1), Fraction(5)]
    assert rational_eigenvalues([[0, -1], [1, 0]]) is None


def test_matrix_input_boundary():
    x = matrix(2, [["1/2", 0], [0, Fraction(-3, 4)]])
    assert x.ctx == StructureContext.matrix_algebra(2)
    assert x.coeffs == {0: Fraction(1, 2), 3: Fraction(-3, 4)}
    assert matrix(2, x) is x
    for bad in ([[1, 0]], [[1, 0], [0]], [[1, 0], [0, 1], [0, 0]], unit(3, 0, 1)):
        with pytest.raises(ValueError, match="basis matrices must be 2 x 2"):
            matrix(2, bad)


def square_pair(n):
    entries = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(entries, entries)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(square_pair), st.integers(0, 4))
def test_element_arithmetic_matches_tuple_reference(rows, k):
    a_rows, b_rows = rows
    n = len(a_rows)
    a, b = matrix(n, a_rows), matrix(n, b_rows)
    ra, rb = mat(a_rows), mat(b_rows)
    assert rows_of(mul(a, b)) == mat_mul(ra, rb)
    assert rows_of(commutator(a, b)) == mat_commutator(ra, rb)
    assert rows_of(a**k) == mat_pow(ra, k)
    try:
        expected = mat_inverse(ra)
    except UnsupportedError:
        with pytest.raises(NonUnitError):
            inverse(a)
    else:
        assert rows_of(inverse(a)) == expected


FAMILIES = ("gl:2", "sl:3", "so:4", "sp:4", "sl2irrep:4", "jordan:3")


@pytest.mark.parametrize("name", FAMILIES)
def test_family_matches_tuple_reference(name):
    pair = pair_by_name(name)
    for k in (2, 3, 4):
        assert pair.tilde_power(k).to_jsonable() == reference_sym_power(pair, k).to_jsonable()
    assert pair.center().to_jsonable() == reference_center(pair).to_jsonable()
    dense = sum((b * (i + 1) for i, b in enumerate(pair.g_basis)), pair.mctx.zero())
    for x in pair.g_basis + (pair.witness_candidate, dense):
        assert char_poly(rows_of(x)) == reference_char_poly(rows_of(x))
    assert witness_verdict(pair, pair.witness_candidate) == reference_witness(
        pair, pair.witness_candidate)
    for x in pair.g_basis + (dense, pair.mctx.one()):
        assert witness_verdict(pair, x) == reference_witness(pair, x)


# -- the matrix context against the one it replaced ----------------------------------


def reference_matrix_mul_basis(n, i, j):
    """The former MatrixContext.mul_basis: E_ab E_cd = [b == c] E_ad."""
    a, b = divmod(i, n)
    c, d = divmod(j, n)
    if b != c:
        return ()
    return ((a * n + d, 1),)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_algebra_matches_matrix_context(n):
    from nclie.coeffalg import StructureContext

    ctx = StructureContext.matrix_algebra(n)
    assert ctx.ambient.blocks == ((0, n * n),) and ctx.unital and ctx.integral
    for i, j in itertools.product(range(n * n), repeat=2):
        got = ctx.mul_basis(i, j)
        assert got == reference_matrix_mul_basis(n, i, j)
        assert all(type(c) is int for _, c in got)
    assert ctx.one().to_vector() == mat_to_vector(mat_identity(n))
    assert make_gl(n).mctx == ctx
