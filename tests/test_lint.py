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


def _package_trees():
    for path in sorted(Path(freesub.__file__).parent.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_one_packing_helper():
    # Kronecker packing (int <-> bytes) lives in poly.kronecker alone: a
    # second packer would carry its own slot bound, and a slot too narrow
    # corrupts products without any error
    inside, outside = [], []
    for path, tree in _package_trees():
        helper = set()
        if path.name == "poly.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "kronecker":
                    helper |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"):
                (inside if id(node) in helper else outside).append(f"{path.name}:{node.lineno}")
    assert inside
    assert outside == []


def test_int_digit_limit_is_set_in_cli_only():
    # the limit on int -> str conversion is process-wide: it is lifted, and
    # restored, in one place that prints exact counts
    name = "set_int_max_str_digits"
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.alias) and node.name == name)
        or (isinstance(node, ast.Constant) and node.value == name)
    ]
    assert found
    assert [f for f in found if not f.startswith("cli.py:")] == []
