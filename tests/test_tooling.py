"""Source-level rules for the package itself."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "hyperlab").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no verification may rest on one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def private_imports(trees):
    """(file, name) of each ``_``-prefixed name a module imports from a
    sibling module of the package."""
    return sorted((file, alias.name) for file, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("hyperlab"))
                  for alias in node.names if alias.name.startswith("_"))


def test_no_private_names_cross_module_boundaries():
    # a module reaches another's internals only through its public names
    assert private_imports(_source_trees()) == []


def test_private_import_check_flags_one():
    tree = ast.parse("from .cayley_dickson import CDElement, _table\n"
                     "from hyperlab.exact import _lift\n"
                     "from __future__ import annotations\n")
    assert private_imports({"grid.py": tree}) == [("grid.py", "_lift"),
                                                  ("grid.py", "_table")]


def test_cli_import_leaves_sympy_out():
    # sympy is a test-only oracle; a fresh interpreter shows what the CLI loads
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hyperlab.cli; "
            "print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_a_leaf_request_builds_no_tree():
    # run reads "table --level 0" with the table parser alone; the whole
    # argparse tree is for argv that no leaf owns, so it is never built here
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from hyperlab import cli; "
            "cli.build_parser = None; r = cli.run(['table', '--level', '0']); "
            "print(r.code, cli._parser.cache_info().currsize, cli._leaf.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "0", "1"]


def numpy_imports(tree):
    """Line of each import of numpy in ``tree``, at any depth."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level
            and (node.module or "").split(".")[0] == "numpy"]


def test_cli_imports_no_numpy():
    # cli.py parses, dispatches and prints; the library modules own the
    # arrays, so that a request that needs none can skip numpy's import
    assert numpy_imports(_source_trees()["cli.py"]) == []


def test_numpy_import_check_flags_function_local_imports():
    tree = ast.parse("import json\nfrom . import grid\n"
                     "def f():\n    import numpy as np\n    from numpy.linalg import svd\n")
    assert numpy_imports(tree) == [4, 5]


def json_dumps_calls(tree):
    """Line of each call of ``json.dumps``, or of ``dumps`` imported from
    json, in ``tree``."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for alias in node.names if alias.name == "dumps"}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                 or isinstance(node.func, ast.Name) and node.func.id in imported)]


def test_one_json_encoder():
    # cli._to_json writes every payload; json.dumps is the tests' oracle
    calls = {file: json_dumps_calls(tree) for file, tree in _source_trees().items()}
    assert {file: lines for file, lines in calls.items() if lines} == {}


def test_json_dumps_check_flags_both_spellings():
    tree = ast.parse("import json\nfrom json import dumps as d\n"
                     "json.dumps(1)\nd(2)\njson.loads('1')\n")
    assert json_dumps_calls(tree) == [3, 4]


def _loaded(node):
    """Every name and attribute name that ``node`` loads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreached(trees):
    """(file, name) of each module-level function or class of ``trees``
    ({file name: module AST}) that no chain of loaded names reaches from the
    roots: the names ``__init__.py`` imports, every definition in ``cli.py``
    and the names that module-level statements load."""
    defs, roots = {}, set()
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append((file, node))
                if file == "cli.py":
                    roots.add(node.name)
            elif file == "__init__.py" and isinstance(node, ast.ImportFrom):
                roots.update(alias.asname or alias.name for alias in node.names)
            else:
                roots.update(_loaded(node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, ()):
                todo.extend(_loaded(node))
    return sorted((file, name) for name, nodes in defs.items() if name not in reached
                  for file, _ in nodes)


def _source_trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_src_holds_only_what_the_cli_and_the_api_reach():
    # test oracles and fixtures live in tests/, and wrappers that only tests
    # call are not kept
    assert unreached(_source_trees()) == []


def test_reachability_flags_test_helpers_put_back():
    # each oracle and fixture whose name the package neither defines nor
    # loads, put back into a library module, is reported
    trees = _source_trees()
    known = {name for tree in trees.values() for name in _loaded(tree)}
    known.update(node.name for tree in trees.values() for node in tree.body
                 if isinstance(node, DEFINITIONS))
    bodies = {file: ast.parse((TESTS / file).read_text()).body
              for file in ("oracles.py", "fixtures.py")}
    helpers = [node for body in bodies.values() for node in body
               if isinstance(node, DEFINITIONS) and node.name not in known]
    # every fixture is among them, so the check covers the moved code
    assert {node.name for node in bodies["fixtures.py"] if isinstance(node, DEFINITIONS)} \
        <= {node.name for node in helpers}
    trees["heyting.py"].body.extend(helpers)
    assert unreached(trees) == sorted(("heyting.py", node.name) for node in helpers)


def benchmark_lookups():
    """(module, dotted attribute) of each program name the benchmark reads
    by name: every target ``perfbench/spans.py`` wraps, and the recursive
    product and element reader that ``perfbench/checks.py`` re-multiplies
    zero divisors with."""
    path = TESTS.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS] + [
        ("cayley_dickson", "cd_multiply_recursive"),
        ("cayley_dickson", "CDElement.from_json_dict"),
        ("cayley_dickson", "CDElement.is_zero"),
    ]


def resolve(module, attr):
    found = importlib.import_module(f"hyperlab.{module}")
    for part in attr.split("."):
        found = getattr(found, part)
    return found


@pytest.mark.parametrize("module, attr", benchmark_lookups())
def test_benchmark_lookups_resolve(module, attr):
    # a rename fails here, not only in the benchmark's traced runs
    assert callable(resolve(module, attr))


def test_lookup_check_flags_a_rename():
    with pytest.raises(AttributeError):
        resolve("cayley_dickson", "CDElement.from_json")
