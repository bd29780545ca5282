import itertools
from fractions import Fraction

import pytest

from nclie.pairs import (
    INFINITE,
    CompatiblePair,
    UnsupportedError,
    char_poly,
    make_abelian_nilpotent,
    make_gl,
    make_orthogonal,
    make_orthogonal_degenerate,
    make_sl,
    make_sl2_irrep,
    make_symplectic,
    mat,
    mat_add,
    mat_commutator,
    mat_identity,
    mat_inverse,
    mat_is_zero,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_to_vector,
    mat_zero,
    pair_by_name,
    rational_eigenvalues,
    sl2_irrep_matrices,
)
from nclie.subspace import SpanBuilder


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
    assert pair.g.contains_vector(mat_to_vector(mat([[1, 0], [0, -1]])))


# -- sl2 irreducible representation ----------------------------------------------


def test_sl2_irrep_relations():
    for n in (2, 3, 4, 5):
        e, f, h = sl2_irrep_matrices(n)
        assert mat_commutator(h, e) == mat_scale(2, e)
        assert mat_commutator(h, f) == mat_scale(-2, f)
        assert mat_commutator(e, f) == h


def test_casimir_scalar():
    for n in (2, 3, 4, 5):
        e, f, h = sl2_irrep_matrices(n)
        cas = mat_add(
            mat_add(mat_scale(2, mat_mul(e, f)), mat_scale(2, mat_mul(f, e))),
            mat_mul(h, h),
        )
        assert cas == mat_scale(n * n - 1, mat_identity(n))


# -- abelian nilpotent pair -------------------------------------------------------


def test_abelian_pair_properties():
    pair = make_abelian_nilpotent(3)
    n_mat = pair.g_basis[0]
    assert pair.bracket_power(1).is_zero()
    assert mat_is_zero(mat_pow(n_mat, 3))
    for k in (1, 2):
        assert pair.g_power(k).dim == 1
    assert pair.g_power(3).is_zero()


# -- powers and type ----------------------------------------------------------------


def test_g_power_basics():
    sl2 = make_sl(2)
    assert sl2.g_power(1) == sl2.g
    # the identity shows up in degree two
    assert sl2.g_power(2).contains_vector(mat_to_vector(mat_identity(2)))
    assert sl2.g_power(2).dim == 4
    ir3 = make_sl2_irrep(3)
    assert ir3.g_power(2).dim == 9


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
    b = SpanBuilder(pair.mctx.ambient)
    for combo in itertools.combinations_with_replacement(range(len(pair.g_basis)), k):
        total = mat_zero(pair.n)
        for perm in set(itertools.permutations(combo)):
            prod = pair.g_basis[perm[0]]
            for idx in perm[1:]:
                prod = mat_mul(prod, pair.g_basis[idx])
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
    assert z2.dim == 1 and z2.contains_vector(mat_to_vector(mat_identity(2)))
    assert sl2.center_part(1).is_zero()


def test_center_decomposition_semisimple():
    for pair in (make_sl2_irrep(3), make_orthogonal(3), make_sl(2)):
        for k in (2, 3):
            plus = pair.bracket_power(k)
            zk = pair.center_part(k)
            assert plus.sum(zk) == pair.g_power(k)
            assert plus.intersect(zk).is_zero()


# -- strong grading witness -----------------------------------------------------------------


def test_witness_sl2_cartan():
    pair = make_sl2_irrep(2)
    assert pair.strongly_graded_witness(sl2_irrep_matrices(2)[2])


def test_witness_sl3_diagonal():
    pair = make_sl(3)
    assert pair.strongly_graded_witness(mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]]))


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
            cand = mat_sub(basis[i], basis[j])
            try:
                pair.strongly_graded_witness(cand)
            except UnsupportedError:
                found = True
    assert found


def test_witness_must_lie_in_g():
    with pytest.raises(ValueError):
        make_sl(2).strongly_graded_witness(mat_identity(2))


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


def test_degenerate_rejects_mixed_form():
    with pytest.raises(ValueError):
        make_orthogonal_degenerate([[1, 1], [0, 1]])


# -- exact matrix helpers ------------------------------------------------------------------------


def test_matrix_inverse_and_charpoly():
    a = mat([[2, 1], [1, 1]])
    assert mat_mul(a, mat_inverse(a)) == mat_identity(2)
    assert char_poly(a) == [Fraction(1), Fraction(-3), Fraction(1)]
    assert rational_eigenvalues(mat([[1, 0], [0, 5]])) == [Fraction(1), Fraction(5)]
    assert rational_eigenvalues(mat([[0, -1], [1, 0]])) is None


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
