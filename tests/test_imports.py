"""Every module-level import in the package is used by its module.

A stand-in for a linter's unused-import rule, in the standard library only:
deleting code must not leave its imports behind.
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
