"""Source rules: invariants in src/msfam raise real errors, never `assert`,
which `python -O` strips."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "msfam").glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_sources_hold_no_assert():
    assert SOURCES
    found = {path.name: lines for path in SOURCES
             if (lines := assert_lines(path.read_text()))}
    assert found == {}


def test_assert_checker_flags_an_assert():
    assert assert_lines("assert n >= 1, 'n must be positive'\n") == [1]
