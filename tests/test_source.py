"""Checks on the package source itself."""

import ast
import pathlib

import tropmirror


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one would
    # silently stop running; checks in the package raise explicitly
    found = []
    for path in sorted(pathlib.Path(tropmirror.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
