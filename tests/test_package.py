"""The package namespace: every exported name resolves lazily to the object
in its home module, and ``import rspinrel`` alone loads no submodule."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rspinrel

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# Every name the package exports, by its home module, written out here
# independently of ``rspinrel._EXPORTS`` so that a name dropped from or added
# to the package shows up as a test change.
EXPORTED = {
    "cohft": (
        "PhiDegreeReport", "RSpinTheory", "p_polynomial", "p_polynomial_symbolic",
        "p_row", "phi_degree", "r_inverse_entry", "topological_value", "witten_degree",
    ),
    "oracles": (
        "GraphContribution", "GraphTerm", "IdempotentReport", "RationalMatrix",
        "StableGraph", "StructureConstants", "SystemDetReport", "Vertex",
        "canonical_divisor", "determinant", "divisor_class_of",
        "enumerate_contributing_graphs", "graph_contribution_terms", "idempotent_check",
        "quantum_structure_constants", "r_forward_entry", "r_forward_matrix",
        "r_inverse_matrix", "rank_and_solve", "system_matrix_det",
    ),
    "relations": (
        "AssemblyError", "BasisMismatchError", "DegreeGateError", "Provenance",
        "RelationSet", "SpanReport", "ac_relations", "admissible_leg_vectors",
        "assembled_relation_set", "edge_constant_term", "ppz_relation_set",
        "relation_row", "spans_equal",
    ),
    "rpoly": ("InterpolationError", "Rational", "RPoly", "poly_interpolate"),
    "selftest": ("CriterionResult", "run_acceptance"),
    "strata": (
        "DivisorClass", "StabilityError", "UnsupportedGenusError",
        "delta_irr", "delta_sep", "divisor_generators", "generator_names",
        "kappa1", "psi",
    ),
}


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in EXPORTED.items() for name in names],
)
def test_exported_name_is_the_home_module_object(module, name):
    home = importlib.import_module(f"rspinrel.{module}")
    assert getattr(rspinrel, name) is getattr(home, name)


# The class-keyed relation layer, retired: RelationSet is the only relation
# type, and it writes no basis of its own.
REMOVED = ("Relation", "DenseRelationSet", "assemble_relation", "extract_r_coefficients",
           "pullback_genus2", "_genus2_base", "_extract")


MODULES = ["rspinrel"] + [f"rspinrel.{path.stem}" for path in sorted(
    (Path(ROOT) / "src" / "rspinrel").glob("*.py")) if path.stem != "__init__"]


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_exist_in_no_module(module):
    module = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_relation_set_writes_no_basis():
    relations = importlib.import_module("rspinrel.relations")
    relation_set = relations.RelationSet((1, 2), [], [])
    assert not [name for name in ("basis", "_basis", "of", "relations", "_over_features")
                if hasattr(relation_set, name)]
    assert not hasattr(importlib.import_module("rspinrel.linalg"), "RationalMatrix")


def test_star_import_names_unchanged():
    assert sorted(rspinrel.__all__) == sorted(
        name for names in EXPORTED.values() for name in names
    )


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rspinrel.no_such_name
    with pytest.raises(ImportError):
        from rspinrel import no_such_name  # noqa: F401


def test_bare_import_loads_no_submodule():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, rspinrel; "
         "print(sorted(m for m in sys.modules if m.startswith('rspinrel.')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"
