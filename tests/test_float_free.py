"""The package computes in exact arithmetic: no float literal, no ``float(...)``
call and no ``math`` function outside the integer ones.

A stand-in for a linter rule, in the standard library only.  The one place a
float may appear is a timing: the value assigned to ``elapsed_ms`` or
``elapsed_s``, or given under that name as a keyword argument or dict key,
which reports ``time.perf_counter`` differences and is outside the results.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rspinrel"

INTEGER_MATH = {"gcd", "lcm", "isqrt", "prod"}
TIMINGS = {"elapsed_ms", "elapsed_s"}


def timing_nodes(tree):
    """Every node of an expression that computes a timing."""
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id in TIMINGS for t in node.targets):
                values.append(node.value)
        elif isinstance(node, ast.keyword) and node.arg in TIMINGS:
            values.append(node.value)
        elif isinstance(node, ast.Dict):
            values += [value for key, value in zip(node.keys, node.values)
                       if isinstance(key, ast.Constant) and key.value in TIMINGS]
    return {id(inner) for value in values for inner in ast.walk(value)}


def float_uses(path):
    """The float literals, ``float(...)`` calls and non-integer ``math``
    names of the file, with their lines, timings aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = timing_nodes(tree)
    math_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names
                  if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"literal {node.value!r} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"float() (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in INTEGER_MATH):
            found.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"math.{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name not in INTEGER_MATH]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_is_float_free(path):
    assert float_uses(path) == []


@pytest.mark.parametrize("source,found", [
    ("x = 0.5\n", ["literal 0.5 (line 2)"]),
    ("x = 1e3 * 2j\n", ["literal 1000.0 (line 2)", "literal 2j (line 2)"]),
    ("def f(n):\n    return float(n)\n", ["float() (line 3)"]),
    ("from math import gcd, sqrt\n", ["math.sqrt (line 2)"]),
    ("import math as m\ny = m.log(2) + m.gcd(4, 6)\n", ["math.log (line 3)"]),
    ("y = math.floor(math.lcm(2, 3) / 2)\n", ["math.floor (line 2)"]),
    ("x: float = 2\n", []),
    ("elapsed_ms = round(1e3 * (time.perf_counter() - start), 3)\n", []),
    ("record = {'elapsed_s': float(t), 'n': 1.5}\n", ["literal 1.5 (line 2)"]),
    ("report(elapsed_ms=0.0, total=0.0)\n", ["literal 0.0 (line 2)"]),
])
def test_detects_a_float(tmp_path, source, found):
    module = tmp_path / "sample.py"
    module.write_text("import math, time\n" + source)
    assert float_uses(module) == found
