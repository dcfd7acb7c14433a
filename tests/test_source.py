"""Rules that hold for the package source, and its README, as a whole."""

import ast
import dataclasses
import re
import sys
from pathlib import Path

import mcislab
from mcislab.solvers import SolveStats

ROOT = Path(__file__).resolve().parents[1]


def _nodes():
    """Every node of the package's syntax trees, with its module path and the
    top-level statement it lies in."""
    modules = sorted(Path(mcislab.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                yield path, top, node


def test_no_guard_relies_on_assert():
    # python -O strips assert statements, so a guard written as one vanishes
    found = [f"{path.name}:{node.lineno}" for path, _, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_runtime_imports_are_standard_library():
    # the runtime package must install and run with nothing but the interpreter
    found = []
    for path, _, node in _nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    assert found == []


def test_no_module_reads_the_environment():
    # what the package does depends on its arguments and input files alone;
    # os.environ, os.getenv and `from os import environ` all show up here
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path, _, node in _nodes()
        if {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)} & names
    ]
    assert found == []


def test_no_module_imports_a_name_it_never_reads():
    # an __init__.py's imports are its exports; __future__ imports are directives
    bound, read = set(), set()
    for path, _, node in _nodes():
        if path.name == "__init__.py":
            continue
        if isinstance(node, ast.Name):
            read.add((path.stem, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound |= {(path.stem, (alias.asname or alias.name).partition(".")[0]) for alias in node.names}
    assert sorted(f"{module}.{name}" for module, name in bound - read) == []


def test_no_private_helper_is_left_unread():
    # a module-level private def or class that no other top-level statement of
    # the package reads is dead code; reads from tests do not keep it alive
    defined, readers = {}, {}
    for path, top, node in _nodes():
        if node is top and isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_"):
            defined[f"{path.name}:{top.lineno} {top.name}"] = (top.name, top)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name:
            readers.setdefault(name, set()).add(top)
    found = [where for where, (name, owner) in defined.items() if not readers.get(name, set()) - {owner}]
    assert found == []


def test_no_private_class_sets_an_attribute_left_unread():
    # an attribute that a private class sets on self and no code of the
    # package reads is dead state, such as a memo table a refactor left behind
    stored, read = {}, set()
    for path, top, node in _nodes():
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(top, ast.ClassDef) and top.name.startswith("_") and getattr(node.value, "id", None) == "self":
            stored.setdefault(node.attr, f"{path.name}:{node.lineno} {top.name}.{node.attr}")
    assert [where for name, where in stored.items() if name not in read] == []


def test_only_the_one_breadth_first_search_builds_a_deque():
    # graphs._levels is the package's one graph traversal; a deque built
    # anywhere else is a second breadth-first search creeping back in
    found = [
        f"{path.stem}.{getattr(top, 'name', '')}:{node.lineno}"
        for path, top, node in _nodes()
        if isinstance(node, ast.Call)
        and "deque" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]
    assert [where for where in found if not where.startswith("graphs._levels:")] == []


def test_solvers_memoizes_only_through_its_table():
    # solvers._Table is the one memo of the solvers: a functools cache beside
    # it is a second set of books, and a slower one on the FPT's hot tables
    found = []
    for path, _, node in _nodes():
        if path.stem != "solvers":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {node.module if isinstance(node, ast.ImportFrom) else None, *[a.name for a in node.names]}
        else:
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if names & {"functools", "cache", "lru_cache", "cached_property"}:
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _own_nodes(func):
    """The nodes of a function's body, leaving out those of functions nested in it."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_only_the_depth_first_driver_and_the_vertex_layer_walk_a_stack_of_iterators():
    # solvers.depth_first is the one stack of child iterators; the vertex layer
    # keeps its index loop, which a generator per level slowed by 8-16%.  next()
    # on a subscripted stack in any other function is a second driver by hand
    found = sorted(
        f"{path.stem}.{node.name}"
        for path, _, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "next"
            and call.args and isinstance(call.args[0], ast.Subscript)
            for call in _own_nodes(node)
        )
    )
    assert found == ["solvers._embeddings", "solvers.depth_first"]


def _calls_itself(node):
    """Whether a function's body calls a name or attribute of its own name,
    other than the parent class's method through ``super()``."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id == node.name:
            return True
        if isinstance(func, ast.Attribute) and func.attr == node.name:
            base = func.value
            if not (isinstance(base, ast.Call) and getattr(base.func, "id", None) == "super"):
                return True
    return False


def test_nothing_in_the_package_recurses():
    # every search keeps its own stack, so no input's depth can raise
    # RecursionError; nested functions count too
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, _, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)
    ]
    assert found == []


def test_every_solve_counter_is_named_in_the_readme():
    # `solve --json` prints every SolveStats field; the README says what each counts
    readme = (ROOT / "README.md").read_text()
    missing = [f.name for f in dataclasses.fields(SolveStats) if f"`{f.name}`" not in readme]
    assert missing == []


def test_every_module_parses_at_the_python_floor():
    # the interpreter running the tests may be newer than requires-python;
    # parsing at the floor rejects syntax the floor lacks (except*, type aliases)
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    for path in sorted(Path(mcislab.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=version)
