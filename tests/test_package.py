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
        "p_polynomial", "p_polynomial_symbolic", "p_row", "r_inverse_entry", "topological_value",
    ),
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
        "BasisMismatchError", "Provenance", "RelationSet",
        "SpanReport", "ac_relations", "admissible_leg_vectors", "assembled_relation_set",
        "ppz_relation_set", "relation_row", "spans_equal",
    ),
    "rpoly": ("InterpolationError", "Rational", "RPoly", "poly_interpolate"),
    "selftest": ("CriterionResult", "run_acceptance"),
    "strata": (
        "DegreeGateError", "PhiDegreeReport", "StabilityError", "UnsupportedGenusError",
        "generator_names", "phi_degree", "witten_degree",
    ),
}


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in EXPORTED.items() for name in names],
)
def test_exported_name_is_the_home_module_object(module, name):
    home = importlib.import_module(f"rspinrel.{module}")
    assert getattr(rspinrel, name) is getattr(home, name)


# Retired names: the class-keyed relation layer (RelationSet is the only
# relation type, and it writes no basis of its own), the genus-2 pullback
# check, the matrix type and nullspace that only tests read, and the second
# polynomial type and determinant algorithm (RPoly divides exactly), and the
# theory wrapper (every function of r takes plain r).
REMOVED = ("Relation", "DenseRelationSet", "assemble_relation", "extract_r_coefficients",
           "pullback_genus2", "_genus2_base", "_extract", "AssemblyError", "RationalMatrix",
           "rank_and_solve", "CyclotomicField", "_poly_divmod", "_minor_expansion_det",
           "_bareiss_det", "RSpinTheory")


MODULES = ["rspinrel"] + [f"rspinrel.{path.stem}" for path in sorted(
    (Path(ROOT) / "src" / "rspinrel").glob("*.py")) if path.stem != "__init__"]


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_exist_in_no_module(module):
    module = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_cohft_holds_no_gate_name():
    # The degree gate lives in strata alone.
    cohft = importlib.import_module("rspinrel.cohft")
    gate = ("DegreeGateError", "PhiDegreeReport", "phi_degree", "witten_degree")
    assert [name for name in gate if hasattr(cohft, name)] == []


def test_relation_set_writes_no_basis():
    relations = importlib.import_module("rspinrel.relations")
    relation_set = relations.RelationSet((1, 2), [], [])
    assert not [name for name in ("basis", "_basis", "of", "relations", "_over_features")
                if hasattr(relation_set, name)]
    assert not hasattr(importlib.import_module("rspinrel.linalg"), "RationalMatrix")


def test_class_layer_left_strata():
    # The divisor classes and their basis are oracles; strata keeps the names.
    strata = importlib.import_module("rspinrel.strata")
    moved = ("DivisorClass", "psi", "kappa1", "delta_irr", "delta_sep", "divisor_generators",
             "_divisor_generators")
    assert [name for name in moved if hasattr(strata, name)] == []


def test_edge_constant_term_left_relations():
    # The recursion's edge term is an oracle; the relation path reads P_1 in
    # closed form and imports no P recursion.
    relations = importlib.import_module("rspinrel.relations")
    assert not [name for name in ("edge_constant_term", "r_inverse_entry", "topological_value")
                if hasattr(relations, name)]
    from rspinrel import edge_constant_term
    assert edge_constant_term is importlib.import_module("rspinrel.oracles").edge_constant_term


def test_star_import_names_unchanged():
    assert sorted(rspinrel.__all__) == sorted(
        name for names in EXPORTED.values() for name in names
    )


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rspinrel.no_such_name
    with pytest.raises(ImportError):
        from rspinrel import no_such_name  # noqa: F401


def cold_submodules(statement):
    """The rspinrel submodules a cold process has loaded after ``statement``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {statement}; "
         "print(sorted(m for m in sys.modules if m.startswith('rspinrel.')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return result.stdout.strip()


def test_bare_import_loads_no_submodule():
    assert cold_submodules("import rspinrel") == "[]"


def test_cohft_alone_loads_no_strata():
    # pm-table loads cohft alone; the degree gate lives in strata.
    assert cold_submodules("import rspinrel.cohft") == "['rspinrel.cohft']"
