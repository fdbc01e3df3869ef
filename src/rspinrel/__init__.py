"""Exact-arithmetic divisor relations on moduli of stable curves.

The library assembles the codimension-1 relations produced by the shifted
r-spin field theory on the moduli space of genus-g stable curves with n
markings, extracts their per-power-of-r consequences, pulls the genus-2
relation back along forgetful maps, and verifies everything against the known
complete set of degree-2 relations.  All arithmetic is exact: rationals and
polynomials in r, with roots of unity as remainders modulo cyclotomic ones.

The names below are importable from the package itself, but a submodule is
loaded only when one of its names is first asked for (PEP 562), so a process
that runs one CLI subcommand loads only the modules that subcommand uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cohft": ("p_polynomial", "p_polynomial_symbolic", "p_row", "r_inverse_entry",
              "topological_value"),
    "matrix_oracles": (
        "IdempotentReport", "StructureConstants", "SystemDetReport", "determinant",
        "idempotent_check", "quantum_structure_constants", "r_forward_entry",
        "r_forward_matrix", "r_inverse_matrix", "system_matrix_det",
    ),
    "oracles": (
        "DivisorClass", "GraphContribution", "GraphTerm", "StableGraph", "Vertex",
        "canonical_divisor", "delta_irr", "delta_sep", "divisor_class_of",
        "divisor_generators", "edge_constant_term", "enumerate_contributing_graphs",
        "graph_contribution_terms", "kappa1", "psi",
    ),
    "relations": (
        "BasisMismatchError", "Provenance", "RelationSet", "SpanReport",
        "ac_relations", "admissible_leg_vectors", "assembled_relation_set",
        "ppz_relation_set", "relation_row", "spans_equal",
    ),
    "rpoly": ("InterpolationError", "Rational", "RPoly", "poly_interpolate"),
    "selftest": ("CriterionResult", "run_acceptance"),
    "strata": ("DegreeGateError", "PhiDegreeReport", "StabilityError", "UnsupportedGenusError",
               "generator_names", "phi_degree", "witten_degree"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
