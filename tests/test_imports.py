"""Every module-level import in the package is used by its module, and
every module-level private function or class is used somewhere in the package.

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
