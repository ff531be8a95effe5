"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import artlab

SOURCES = sorted(Path(artlab.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
