"""The package has no runtime dependencies, builds no ``Fraction`` and
guards nothing with ``assert``.

Every import in ``src/divides`` is relative, ``__future__`` or a standard
library module, and ``fractions`` is never imported: exact arithmetic in
the library runs on Python ints.  No module holds an ``assert`` statement,
since ``python -O`` strips them: invariant guards raise real errors.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "divides"
MODULES = sorted(SRC.glob("*.py"))


def imported(tree):
    """(level, top-level module name) of every import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.level, (node.module or "").partition(".")[0]


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for level, name in imported(tree):
        if level:
            continue
        assert name != "fractions", f"{path.name} imports fractions"
        assert name == "__future__" or name in sys.stdlib_module_names, \
            f"{path.name} imports {name}, not a standard library module"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"
