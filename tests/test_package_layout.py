"""Every named fixture is a packaged file, and one method writes
divide-map/1 documents.

``fixture(name)`` reads ``divides/fixtures/<name in lower case>.json``; an
installed package carries those files only if pyproject's package-data
globs take them in.  The generators build their maps from branch walks
with no document in between, so ``generators.py`` holds no format string,
and ``divide_map.py`` holds it only where ``map_from_document`` checks a
document's format and where ``DivideMap.to_document`` writes one.
"""

import ast
import fnmatch
from pathlib import Path

import pytest

from divides import fixture_names

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divides"


def test_one_packaged_file_per_fixture():
    tomllib = pytest.importorskip("tomllib")
    data = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = data["tool"]["setuptools"]["package-data"]["divides"]
    files = sorted(p.name for p in (PACKAGE / "fixtures").iterdir())
    assert files == sorted(f"{name.lower()}.json" for name in fixture_names())
    for name in files:
        assert any(fnmatch.fnmatch(f"fixtures/{name}", g) for g in globs), name


def format_string_lines(name):
    """The module's syntax tree and the lines of its "divide-map/1"
    literals."""
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return tree, [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and node.value == "divide-map/1"]


def test_format_string_only_in_the_builder():
    assert format_string_lines("generators.py")[1] == []
    tree, lines = format_string_lines("divide_map.py")
    check, = [node for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "map_from_document"]
    writer, = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "DivideMap"
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and node.name == "to_document"]
    assert len(lines) == 2
    assert [n for n in lines
            if not (check.lineno <= n <= check.end_lineno
                    or writer.lineno <= n <= writer.end_lineno)] == []
    assert sum(check.lineno <= n <= check.end_lineno for n in lines) == 1
