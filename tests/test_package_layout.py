"""Every named fixture is a packaged file, and one builder writes the
divide-map/1 documents of the generators.

``fixture(name)`` reads ``divides/fixtures/<name in lower case>.json``; an
installed package carries those files only if pyproject's package-data
globs take them in.  ``generators.py`` emits its documents through
``_branch_document`` alone, so the format string sits in that builder.
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


def test_format_string_only_in_the_builder():
    path = PACKAGE / "generators.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builder, = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_branch_document"]
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "divide-map/1"]
    assert len(lines) == 1
    assert all(builder.lineno <= n <= builder.end_lineno for n in lines), lines
