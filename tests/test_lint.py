"""Static checks on the package source."""

import ast
from pathlib import Path

import freesub


def test_no_assert_statements():
    # `python -O` strips assert statements, so a certification written as one
    # would silently stop running; checks must raise explicitly
    files = sorted(Path(freesub.__file__).parent.rglob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
