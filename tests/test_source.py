"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import mcislab


def test_no_guard_relies_on_assert():
    # python -O strips assert statements, so a guard written as one vanishes
    modules = sorted(Path(mcislab.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
