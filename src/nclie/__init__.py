"""Exact computations with current Lie algebras over noncommutative rings.

The package computes, entirely in rational arithmetic, the Lie subalgebra of
F (x) M_n generated by F (x) g for a matrix Lie algebra g and a truncated
free (or structure-constant) coefficient algebra F, together with the
commutator-filtration ideals of F, closed-form upper bounds for the closure,
perfectness tests, and diagonal membership criteria for the groups acting on
these algebras, each verified against an independent bracket-saturation
oracle.
"""

from .coeffalg import (
    AlgElement,
    ContextMismatchError,
    FreeContext,
    NonUnitError,
    ParseError,
    StructureContext,
    commutator,
    inverse,
    mul,
    parse,
)
from .commfilt import FiltrationCache, ideal_IklS, lie_generated, two_sided_ideal
from .current import (
    TensorContext,
    TypeMismatchError,
    abelian_closure_form,
    lie_closure,
    lower_bound_terms,
    overline_bound,
    semisimple_closed_form,
    simple_coefficients_form,
    sl2_closed_form,
    tensor_mul,
    tilde_bound,
    type2_formula,
)
from .groups import (
    BudgetExhaustedError,
    DiagonalUnit,
    DifferenceTable,
    PremiseViolatedError,
    cartan_criterion_classical,
    cartan_criterion_sl2,
    conjecture_probe,
    conjugate,
    conjugation_expansion,
    difference_derivative,
    ek_basis,
    elementary_generators,
    fk_basis,
    from_delta_to_d_check,
    homogeneity_check_dij,
    homogeneity_check_dm,
    in_group_direct,
    inverse_table_check,
    is_stable_nilpotent,
    solve_m_from_h,
    stabilization_conditions,
)
from .pairs import (
    CompatiblePair,
    INFINITE,
    UnsupportedError,
    make_abelian_nilpotent,
    make_gl,
    make_orthogonal,
    make_orthogonal_degenerate,
    make_sl,
    make_sl2_irrep,
    make_symplectic,
    pair_by_name,
)
from .subspace import Ambient, GradedSubspace, SpanBuilder, bracket_saturate, op_bracket, op_product

__version__ = "0.1.0"
