"""Which nclie functions the traced run wraps, and the per-layer metrics.

Each wrapped function is charged to one group.  A `_s` metric of a group is
its self time (span minus child spans) unless the group is listed in
INCLUSIVE, where it is the duration of its outermost spans; a `_calls`
metric counts outermost spans, so a call nested in another call of the same
group is not counted twice.

The metrics cover the timed part of the instance, which `wall_s` measures.
The groups in SETUP cover set-up as well, since they build what set-up
hands over (in verify-all the command itself builds its pairs).
"""

from __future__ import annotations

import importlib
import sys

from tracer import Target

MODULES = ("subspace", "coeffalg", "commfilt", "pairs", "current", "groups", "cli")

SUITES = (
    "filtration-identities", "bounds-chain", "perfect-equality", "closed-forms",
    "cartan-classical", "cartan-sl2", "difference-calculus",
)

INCLUSIVE = ("current.closure", "current.bound", "pairs.build", "coeffalg.context_build")
SETUP = ("pairs.build", "coeffalg.context_build")
SETUP_RUN = "setup"

# group -> {module: [function or Class.method, ...]}
GROUPS = {
    "subspace.insert": {"subspace": ["SpanBuilder.add", "SpanBuilder.add_tracked",
                                     "SpanBuilder.add_block_row"]},
    "subspace.finalize": {"subspace": ["SpanBuilder.finalize"]},
    "subspace.saturate": {"subspace": ["bracket_saturate"]},
    "subspace.bilinear": {"subspace": ["op_product", "op_bracket"]},
    "subspace.lattice": {"subspace": ["subspace_sum", "GradedSubspace.sum",
                                      "GradedSubspace.intersect"]},
    "subspace.member": {"subspace": [
        "GradedSubspace.contains_vector", "GradedSubspace.contains_block_row",
        "GradedSubspace.contains_all_block_rows", "GradedSubspace.contains_vectors",
        "GradedSubspace.nullspace_matrix", "GradedSubspace.issubset", "GradedSubspace.__eq__",
    ]},
    "subspace.closed_check": {"subspace": ["bracket_closed"]},
    "subspace.dense_solve": {"subspace": ["fraction_rref", "fraction_nullspace",
                                          "fraction_left_kernel", "fraction_solve"]},
    "coeffalg.mul": {"coeffalg": ["mul", "commutator"]},
    "coeffalg.inverse": {"coeffalg": ["inverse"]},
    "coeffalg.context_build": {"coeffalg": ["FreeContext.__init__", "StructureContext.__init__"]},
    "commfilt.ideal": {"commfilt": [
        "FiltrationCache.__init__", "FiltrationCache.commutator_space",
        "FiltrationCache.ideal_Ikl", "FiltrationCache.ideal_Ik_le", "FiltrationCache.ideal_Ik",
        "ideal_IklS", "lie_generated", "two_sided_ideal",
    ]},
    "pairs.power": {"pairs": [
        "CompatiblePair.g_power", "CompatiblePair.bracket_power", "CompatiblePair.envelope",
        "CompatiblePair.center", "CompatiblePair.center_part", "CompatiblePair.is_perfect",
        "CompatiblePair.pair_type", "CompatiblePair.power_stabilization",
    ]},
    "pairs.tilde_power": {"pairs": ["CompatiblePair.tilde_power"]},
    "pairs.build": {"pairs": ["pair_by_name"]},
    "current.tensor_span": {"current": ["tensor_product_span"]},
    "current.closure": {"current": ["lie_closure"]},
    "current.bound": {"current": [
        "tilde_bound", "overline_bound", "f_dot_g", "f_langle_g_filtered", "type2_formula",
        "semisimple_closed_form", "sl2_closed_form", "abelian_closure_form",
        "simple_coefficients_form", "lower_bound_terms",
    ]},
    "current.tensor_mul": {"current": ["tensor_mul"]},
    "groups.direct": {"groups": ["in_group_direct"]},
    "groups.conjugate": {"groups": ["DiagonalUnit.conjugate", "conjugate"]},
    "groups.criterion": {"groups": ["cartan_criterion_classical", "cartan_criterion_sl2"]},
    "groups.diffcalc": {"groups": [
        "difference_derivative", "DifferenceTable.verify_recursion",
        "DifferenceTable.memberships", "DifferenceTable.all_member",
        "homogeneity_check_dm", "homogeneity_check_dij", "inverse_table_check",
        "from_delta_to_d_check", "conjugation_expansion", "expected_expansion",
        "solve_m_from_h", "stabilization_conditions",
    ]},
    "cli.suite_s": {"cli": ["run_suite"]},
    "cli": {"cli": [
        "main", "cmd_verify", "cmd_compute", "cmd_cartan", "suite_filtration_identities",
        "suite_bounds_chain", "suite_perfect_equality", "suite_closed_forms", "suite_cartan",
        "suite_difference_calculus", "sl_trace_form", "orthogonal_form", "battery_diagonals",
        "random_word_element", "random_element", "random_unit", "random_bracket_element",
        "random_ideal_element", "degree_table",
    ]},
}


def _offered_rows(span, *args, **kwargs):
    # rows held just before canonicalization: what the insertions stored
    return {"rows_stored": sum(span.dims())}


def _bigint_rows(result, *args, **kwargs):
    return {"bigint_rows": sum(m.shape[0] for _, _, m in result.block_rows() if m.dtype == object)}


def _span_products(tctx, fsub, asub):
    return {"tensor_span_products": fsub.dim * asub.dim}


HOOKS = {
    "SpanBuilder.finalize": {"before": _offered_rows, "after": _bigint_rows},
    "tensor_product_span": {"before": _span_products},
    "run_suite": {"label": lambda name, *args, **kwargs: name},
}


def modules():
    return {name: importlib.import_module(f"nclie.{name}") for name in MODULES}


def namespaces():
    """Every nclie namespace a wrapped function can be bound in."""
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "nclie" or name.startswith("nclie.")) and mod is not None]


def targets() -> list[Target]:
    mods = modules()
    out = []
    for group, by_module in GROUPS.items():
        for modname, attrs in by_module.items():
            for attr in attrs:
                owner = mods[modname]
                cls, _, meth = attr.rpartition(".")
                if cls:
                    owner = getattr(owner, cls)
                out.append(Target(owner, meth, group, **HOOKS.get(attr, {})))
    return out


def _group(totals, group):
    return totals.get(group, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})


def metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced instance, by the names in BENCHMARK.json."""
    timed = tracer.group_totals(skip_runs=(SETUP_RUN,))
    whole = tracer.group_totals()
    out: dict[str, float] = {}
    for group in GROUPS:
        if group == "cli.suite_s":
            continue
        g = _group(whole if group in SETUP else timed, group)
        key = "incl_s" if group in INCLUSIVE else "self_s"
        out[f"{group}_s"] = g[key]
        out[f"{group}_calls"] = g["calls"]
    out["cli.self_s"] = out.pop("cli_s")
    for suite in SUITES:
        out[f"cli.suite_s.{suite}"] = _group(timed, f"cli.suite_s.{suite}")["incl_s"]
    offered = out["subspace.insert_calls"]
    stored = tracer.counted("rows_stored", skip_runs=(SETUP_RUN,))
    out["subspace.vectors_offered"] = offered
    out["subspace.rows_stored"] = stored
    out["subspace.stored_frac"] = stored / offered if offered else 0.0
    out["subspace.bigint_rows"] = tracer.counted("bigint_rows", skip_runs=(SETUP_RUN,))
    out["current.tensor_span_products"] = tracer.counted("tensor_span_products",
                                                         skip_runs=(SETUP_RUN,))
    return {k: out[k] for k in PER_LAYER_TRACED}


PER_LAYER_TRACED = (
    "subspace.vectors_offered", "subspace.rows_stored", "subspace.stored_frac",
    "subspace.insert_s", "subspace.finalize_s", "subspace.saturate_s", "subspace.saturate_calls",
    "subspace.bilinear_s", "subspace.bilinear_calls", "subspace.lattice_s",
    "subspace.member_s", "subspace.member_calls", "subspace.closed_check_s",
    "subspace.bigint_rows", "subspace.dense_solve_s",
    "coeffalg.mul_calls", "coeffalg.mul_s", "coeffalg.inverse_calls", "coeffalg.inverse_s",
    "coeffalg.context_build_s",
    "commfilt.ideal_calls", "commfilt.ideal_s",
    "pairs.power_calls", "pairs.power_s", "pairs.tilde_power_s", "pairs.build_s",
    "current.tensor_span_calls", "current.tensor_span_s", "current.tensor_span_products",
    "current.closure_s", "current.bound_s", "current.tensor_mul_calls", "current.tensor_mul_s",
    "groups.direct_calls", "groups.direct_s", "groups.conjugate_s", "groups.criterion_s",
    "groups.diffcalc_s",
    *(f"cli.suite_s.{s}" for s in SUITES),
    "cli.self_s",
)
