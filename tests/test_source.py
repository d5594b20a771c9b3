"""Source rules: invariants in src/msfam raise real errors, never `assert`,
which `python -O` strips; every top-level import is read in its module; and
README names every violation type that search.py writes into a report."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "msfam").glob("*.py"))


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


def unread_imports(source: str) -> list[str]:
    """The names that top-level imports of source bind and source never
    reads, sorted.  __future__ imports and imports on a line marked
    `# noqa: F401` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_sources_read_every_import():
    """__init__.py is exempt: its imports are the package's re-exports."""
    found = {path.name: names for path in SOURCES
             if path.name != "__init__.py" and (names := unread_imports(path.read_text()))}
    assert found == {}


def test_import_checker_flags_an_unread_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import sys\nfrom math import comb, factorial\n"
              "from operator import or_  # noqa: F401\nprint(sys.argv, comb)\n")
    assert unread_imports(source) == ["factorial", "os", "osp"]


def violation_types(source: str) -> list[str]:
    """The string values under a "type" key in the dict literals of source, sorted."""
    return sorted({value.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Dict)
                   for key, value in zip(node.keys, node.values)
                   if isinstance(key, ast.Constant) and key.value == "type"
                   and isinstance(value, ast.Constant) and isinstance(value.value, str)})


def undocumented(source: str, readme: str) -> list[str]:
    """The violation types of source that readme never names in backquotes."""
    return [name for name in violation_types(source) if f"`{name}`" not in readme]


def test_readme_names_every_violation_type():
    source = (ROOT / "src" / "msfam" / "search.py").read_text()
    assert len(violation_types(source)) == 6
    assert undocumented(source, (ROOT / "README.md").read_text()) == []


def test_violation_type_checker_flags_an_undocumented_type():
    source = ('found = [{"type": "bound-exceeded", "size": 3}, {"kind": "not-a-type"}]\n'
              'entry = {**found[0], "type": "made-up"}\n')
    assert violation_types(source) == ["bound-exceeded", "made-up"]
    assert undocumented(source, "lists `bound-exceeded` and made-up") == ["made-up"]
