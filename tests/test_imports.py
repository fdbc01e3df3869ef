"""Every module-level import in the package is used by its module, every
import inside a function is used by that function, and every module-level
private function or class is used somewhere in the package.

Stand-ins for a linter's unused-import and dead-code rules, in the standard
library only: deleting code must not leave its imports or helpers behind.
"""

import ast
import tokenize
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
    # Dropping the call that builds polynomials must flag its import: the
    # poly_interpolate call in cohft.p_polynomial_symbolic becomes a tuple call.
    tree = ast.parse((SRC / "cohft.py").read_text())
    symbolic = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                    and node.name == "p_polynomial_symbolic")
    calls = [node.func for node in ast.walk(symbolic) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "poly_interpolate"]
    assert len(calls) == 1
    calls[0].id = "tuple"
    module = tmp_path / "cohft.py"
    module.write_text(ast.unparse(tree))
    found = unused_function_imports(module)
    assert len(found) == 1 and found[0].startswith("p_polynomial_symbolic: poly_interpolate (line ")


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


def string_constants(path, text):
    """How many string constants in the file's AST are ``text`` or hold it as
    a whole line, as a stored help text holds "options:"; comments, and
    docstrings that mention it within a line, do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sum(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and text in node.value.split("\n") for node in ast.walk(tree))


def test_one_writer_builds_the_json_record():
    # cli._emit writes the record's skeleton; no subcommand writes its own.
    assert string_constants(SRC / "cli.py", "schema_version") == 1


@pytest.mark.parametrize("statement", [
    'record = {"schema_version": SCHEMA_VERSION, "command": "relations"}\n',
    'def f(record):\n    record["schema_version"] = 1\n',
    'def f():\n    return dict([("schema_version", 1)])\n',
])
def test_detects_a_second_record_writer(tmp_path, statement):
    module = tmp_path / "cli.py"
    module.write_text((SRC / "cli.py").read_text() + "\n# schema_version\n" + statement)
    assert string_constants(module, "schema_version") == 2


def callers(path, name):
    """The functions of the file, each by its name ("<lambda>" for a lambda,
    "<module>" outside any), that call ``name`` or an attribute so named in
    their own bodies, not in a function nested there."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_one_encoder_writes_the_json_record():
    # cli._json_pieces encodes every record a piece at a time; no other code
    # in the front end encodes one, whole or in part.
    assert callers(SRC / "cli.py", "dumps") == {"_json_pieces"}


@pytest.mark.parametrize("statement, caller", [
    ('def _write_whole(dumps, record):\n'
     '    sys.stdout.write(dumps(record, sort_keys=True))\n', "_write_whole"),
    ('def _emit_text(record):\n    import json\n'
     '    return json.dumps(record, sort_keys=True)\n', "_emit_text"),
    ('_whole = lambda dumps, record: dumps(record, sort_keys=True)\n', "<lambda>"),
], ids=["function", "json-attribute", "lambda"])
def test_detects_a_second_record_encoder(tmp_path, statement, caller):
    module = tmp_path / "cli.py"
    module.write_text((SRC / "cli.py").read_text() + "\n" + statement)
    assert callers(module, "dumps") == {"_json_pieces", caller}


def test_one_table_describes_the_cli():
    # cli._help lays out every help text from the option table; no
    # subcommand's help is stored as text.
    assert string_constants(SRC / "cli.py", "options:") == 1


@pytest.mark.parametrize("statement", [
    '_HELP = {"selftest": """usage: rspinrel selftest [-h]\n\noptions:\n"""}\n',
    'def f(lines):\n    lines.append("options:")\n',
])
def test_detects_a_stored_help_text(tmp_path, statement):
    module = tmp_path / "cli.py"
    module.write_text((SRC / "cli.py").read_text() + "\n# options:\n" + statement)
    assert string_constants(module, "options:") == 2


# What either oracle module may take from the library's relation assembly:
# nothing.  The contraction lives in the oracles, and an oracle written from
# the assembly (_numeric_keys, _feature_row, _expand) would check that code
# against itself.
ORACLE_IMPORTS_FROM_RELATIONS = set()
ORACLE_MODULES = ["oracles.py", "matrix_oracles.py"]


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


@pytest.mark.parametrize("name", ORACLE_MODULES)
def test_oracles_import_nothing_from_relations(name):
    assert names_imported_from(SRC / name, "relations") == ORACLE_IMPORTS_FROM_RELATIONS


@pytest.mark.parametrize("name", ORACLE_MODULES)
@pytest.mark.parametrize("statement", [
    "from .relations import _expand\n",
    "from rspinrel.relations import _RelationTable\n",
    "def f():\n    from .relations import _feature_row\n",
    "from . import relations\n",
    "import rspinrel.relations\n",
])
def test_detects_an_oracle_written_from_the_feature_path(tmp_path, statement, name):
    source = (SRC / name).read_text()
    module = tmp_path / name
    module.write_text(source + "\n" + statement)
    found = names_imported_from(module, "relations")
    assert found > ORACLE_IMPORTS_FROM_RELATIONS


# The command line is the front end and no library module reads it: under
# ``python -m rspinrel.cli`` it runs as __main__, so importing rspinrel.cli
# would compile it a second time, with a second UsageError that main() does
# not catch.
@pytest.mark.parametrize("path", sorted(path for path in SRC.glob("*.py") if path.name != "cli.py"),
                         ids=lambda p: p.name)
def test_no_library_module_imports_the_cli(path):
    assert names_imported_from(path, "cli") == set()


@pytest.mark.parametrize("statement,found", [
    ("from .cli import UsageError\n", {"UsageError"}),
    ("def f():\n    from rspinrel.cli import main\n", {"main"}),
    ("from . import cli\n", {"cli"}),
    ("import rspinrel.cli\n", {"cli"}),
])
def test_detects_a_library_module_importing_the_cli(tmp_path, statement, found):
    module = tmp_path / "relations.py"
    module.write_text((SRC / "relations.py").read_text() + "\n" + statement)
    assert names_imported_from(module, "cli") == found


# The divisor-class layer, which lives in the oracles: the modules every
# relation command runs neither define nor read it.
CLASS_LAYER = {"DivisorClass", "divisor_generators", "psi", "kappa1", "delta_irr", "delta_sep"}


def class_layer_names(path):
    """The names of the class layer that the file defines, imports or reads
    as an attribute, at any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
            found.update(alias.asname for alias in node.names if alias.asname)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & CLASS_LAYER


@pytest.mark.parametrize("name", ["strata.py", "relations.py", "cli.py"])
def test_relation_path_holds_no_class_layer(name):
    assert class_layer_names(SRC / name) == set()


@pytest.mark.parametrize("source,found", [
    ("from .oracles import divisor_generators\n", {"divisor_generators"}),
    ("def f():\n    from rspinrel.oracles import psi as make\n    return make(1)\n", {"psi"}),
    ("import rspinrel.oracles as o\nbasis = o.divisor_generators(1, 2)\n", {"divisor_generators"}),
    ("class DivisorClass:\n    pass\n", {"DivisorClass"}),
    ("kappa1 = 'kappa1'\n", {"kappa1"}),
])
def test_detects_the_class_layer(tmp_path, source, found):
    module = tmp_path / "sample.py"
    module.write_text("from .strata import check_space\n" + source)
    assert class_layer_names(module) == found


def test_lex_subsets_takes_only_n():
    tree = ast.parse((SRC / "strata.py").read_text())
    [func] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_lex_subsets"]
    args = func.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["n"]
    assert args.vararg is None and args.kwarg is None


def theory_parameters(path):
    """Each function in the file, at any depth, that takes a parameter named
    ``theory``: every function of r takes plain r, with no wrapper object."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if any(param and param.arg == "theory" for param in params):
                found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("name", sorted(path.name for path in SRC.glob("*.py")))
def test_no_function_takes_a_theory(name):
    assert theory_parameters(SRC / name) == []


def test_detects_a_theory_parameter(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def entry(m, a, b, r):\n"
        "    return m\n"
        "def inverse(m, a, b, theory):\n"
        "    return m\n"
        "class Table:\n"
        "    def metric(self, *, theory=None):\n"
        "        async def inner(x, /, theory):\n"
        "            return x\n"
        "def wrapped(*theory):\n"
        "    return theory\n"
    )
    assert theory_parameters(module) == [
        "inverse (line 3)", "wrapped (line 9)", "metric (line 6)", "inner (line 7)",
    ]


# ``fractions`` and the two modules it imports.  The modules every command
# loads import them only inside the functions that build a Fraction, so a
# table, a genus >= 3 set, --help and a usage refusal never load them.
RATIONAL_MODULES = {"fractions", "decimal", "numbers"}


def load_time_rational_imports(path):
    """The lines that import a rational module when the file loads: at module
    level, or in an ``if``, ``try``, ``with`` or class body there, but not
    under ``if TYPE_CHECKING:``, which never runs."""
    lines = []

    def visit(statements):
        for node in statements:
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] in RATIONAL_MODULES for alias in node.names):
                    lines.append(node.lineno)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module.split(".")[0] in RATIONAL_MODULES:
                    lines.append(node.lineno)
            elif isinstance(node, ast.If):
                names = {getattr(node.test, "id", None), getattr(node.test, "attr", None)}
                if "TYPE_CHECKING" not in names:
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body + node.orelse + node.finalbody)
                for handler in node.handlers:
                    visit(handler.body)
            elif isinstance(node, (ast.With, ast.ClassDef)):
                visit(node.body)

    visit(ast.parse(path.read_text(), filename=str(path)).body)
    return lines


@pytest.mark.parametrize("name", ["cli.py", "cohft.py", "relations.py", "strata.py", "linalg.py"])
def test_command_modules_load_no_rationals(name):
    assert load_time_rational_imports(SRC / name) == []


@pytest.mark.parametrize("source,lines", [
    ("from fractions import Fraction\n", [2]),
    ("import fractions as fr, os\n", [2]),
    ("import decimal\nimport numbers\n", [2, 3]),
    ("try:\n    from fractions import Fraction\nexcept ImportError:\n"
     "    from decimal import Decimal\n", [3, 5]),
    ("if os.name:\n    pass\nelse:\n    from fractions import Fraction\n", [5]),
    ("class Table:\n    from fractions import Fraction\n", [3]),
    ("if TYPE_CHECKING:\n    from fractions import Fraction\n", []),
    ("if typing.TYPE_CHECKING:\n    import numbers\n", []),
    ("def f():\n    from fractions import Fraction\n    return Fraction(1)\n", []),
    ("from .fractions import Fraction\n", []),
])
def test_detects_a_load_time_rational_import(tmp_path, source, lines):
    module = tmp_path / "sample.py"
    module.write_text("import os\n" + source)
    assert load_time_rational_imports(module) == lines


# README's "Library layout" table: one row per library module, the package
# file and the command line aside, and no row for a module that is gone.
README = SRC.parent.parent / "README.md"


def layout_rows(text):
    """The first cell of each body row of the "Library layout" table."""
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("|")]
    return [cell.strip("`") for cell in cells[2:]]


def library_modules():
    return sorted(f"rspinrel.{path.stem}" for path in SRC.glob("*.py")
                  if path.stem not in ("__init__", "cli"))


def test_readme_layout_has_one_row_per_module():
    assert sorted(layout_rows(README.read_text())) == library_modules()


@pytest.mark.parametrize("edit", ["stale", "duplicate", "missing"])
def test_detects_a_layout_table_out_of_step(edit):
    text = README.read_text()
    row = next(line for line in text.splitlines() if line.startswith("| `rspinrel.strata`"))
    if edit == "stale":
        text = text.replace(row, row + "\n| `rspinrel.cyclotomic` | cyclotomic polynomials |")
    elif edit == "duplicate":
        text = text.replace(row, row + "\n" + row)
    else:
        text = text.replace(row + "\n", "")
    assert sorted(layout_rows(text)) != library_modules()


# Compiling a module costs a step of memory once it passes 4,096 tokens,
# counted as below.  Measured with tracemalloc around compile() on CPython
# 3.11, on oracles.py padded with assignments: 4,093 and 4,096 tokens peak at
# 1.50 MB, 4,097 and 4,102 at 1.68 MB.  A cold process compiles every module
# it loads, so each one stays below the step.
TOKEN_STEP = 4096


def token_count(path):
    """The file's tokens, less comments and non-logical newlines."""
    with tokenize.open(path) as source:
        return sum(token.type not in (tokenize.COMMENT, tokenize.NL)
                   for token in tokenize.generate_tokens(source.readline))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_below_the_compile_step(path):
    assert token_count(path) < TOKEN_STEP


def test_detects_a_module_past_the_compile_step(tmp_path):
    source = (SRC / "oracles.py").read_text()
    base = token_count(SRC / "oracles.py")
    module = tmp_path / "oracles.py"
    # Comments and blank lines do not count; each assignment is four tokens.
    module.write_text(source + "# padding\n\n" * 2000)
    assert token_count(module) == base
    pads = (TOKEN_STEP - base) // 4 + 1
    module.write_text(source + "".join(f"_pad{i} = {i}\n" for i in range(pads)))
    assert TOKEN_STEP <= token_count(module) == base + 4 * pads
