"""Every module-level import in the package is used by its module, every
import inside a function is used by that function, and every module-level
private function or class is used somewhere in the package.

Stand-ins for a linter's unused-import and dead-code rules, in the standard
library only: deleting code must not leave its imports or helpers behind.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rspinrel"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = (name for name in imported if name not in used)
    return sorted(f"{name} (line {imported[name]})" for name in unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path) == []


def test_detects_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import gcd, lcm\n"
        "def f(x: os.PathLike) -> int:\n"
        "    return gcd(x, 2)\n"
    )
    assert unused_imports(module) == ["lcm (line 3)", "system (line 2)"]


def unused_function_imports(path):
    """Imports made inside a function (or method) that the function never
    names; an import in a nested function must be used in that function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        used = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add(f"{func.name}: {name} (line {node.lineno})")
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_function_level_imports_are_used(path):
    assert unused_function_imports(path) == []


def test_detects_an_unused_function_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os\n"
        "def used():\n"
        "    from math import gcd\n"
        "    return gcd(4, 6)\n"
        "def unused():\n"
        "    from math import gcd, lcm as least\n"
        "    return gcd(4, 6)\n"
        "class Table:\n"
        "    def build(self):\n"
        "        import json\n"
        "        return os.sep\n"
        "def outer():\n"
        "    from math import comb\n"
        "    def inner():\n"
        "        from math import perm\n"
        "        return comb(4, 2)\n"
        "    return perm\n"
    )
    assert unused_function_imports(module) == [
        "build: json (line 10)", "inner: perm (line 15)", "unused: least (line 6)",
    ]


def test_detects_a_function_import_left_behind_in_the_package(tmp_path):
    # Dropping the call that reads polynomials must flag its import.
    source = (SRC / "relations.py").read_text()
    call = "self._polys[total, key] = poly_interpolate("
    assert source.count(call) == 1
    module = tmp_path / "relations.py"
    module.write_text(source.replace(call, "self._polys[total, key] = tuple("))
    found = unused_function_imports(module)
    assert len(found) == 1 and found[0].startswith("symbolic: poly_interpolate (line ")


def unreferenced_private_definitions(paths):
    """Module-level private functions and classes that no statement of the
    given modules names, other than their own definition."""
    defined, used = {}, {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
                node.name.startswith("_") and not node.name.startswith("__")
            ):
                defined[path.name, node.name] = node
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    name = child.id
                elif isinstance(child, ast.Attribute):
                    name = child.attr
                elif isinstance(child, ast.alias):
                    name = child.name
                else:
                    continue
                used.setdefault(name, set()).add(node)
    return sorted(
        f"{module}:{name} (line {node.lineno})"
        for (module, name), node in defined.items()
        if not used.get(name, set()) - {node}
    )


def test_module_level_private_definitions_are_used():
    assert unreferenced_private_definitions(sorted(SRC.glob("*.py"))) == []


def test_detects_an_unused_private_definition(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "def _recursive(x):\n"
        "    return _recursive(x - 1) if x else 0\n"
        "class _Unused:\n"
        "    pass\n"
        "def _imported():\n"
        "    pass\n"
        "def _called_by_method():\n"
        "    pass\n"
        "class _Table:\n"
        "    def build(self):\n"
        "        return _called_by_method()\n"
        "def __getattr__(name):\n"
        "    pass\n"
    )
    second.write_text(
        "from first import _imported\n"
        "import first\n"
        "table = first._Table()\n"
    )
    assert unreferenced_private_definitions([first, second]) == [
        "first.py:_Unused (line 3)", "first.py:_recursive (line 1)",
    ]


# What the oracles may take from the library's relation assembly: the error
# type, the edge entries and the four per-family sums.  An oracle written from
# the feature path (_RelationTable, _feature_row, _expand) would check that
# code against itself.
ORACLE_IMPORTS_FROM_RELATIONS = {
    "AssemblyError", "_edge_entries", "_leg_sum", "_dilaton_sum", "_loop_sum", "_separating_sum",
}


def names_imported_from(path, module):
    """Every name the file imports from ``module`` (relative or absolute), at
    any depth, with ``module`` itself for a plain import of it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                names.update(alias.name for alias in node.names)
            elif node.module in (None, "rspinrel"):
                names.update(module for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            names.update(module for alias in node.names if alias.name.endswith(f".{module}"))
    return names


def test_oracles_import_only_the_per_family_sums_from_relations():
    assert names_imported_from(SRC / "oracles.py", "relations") == ORACLE_IMPORTS_FROM_RELATIONS


@pytest.mark.parametrize("statement", [
    "from .relations import _expand\n",
    "from rspinrel.relations import _RelationTable\n",
    "def f():\n    from .relations import _feature_row\n",
    "from . import relations\n",
    "import rspinrel.relations\n",
])
def test_detects_an_oracle_written_from_the_feature_path(tmp_path, statement):
    source = (SRC / "oracles.py").read_text()
    module = tmp_path / "oracles.py"
    module.write_text(source + "\n" + statement)
    found = names_imported_from(module, "relations")
    assert found > ORACLE_IMPORTS_FROM_RELATIONS
