"""The package has no runtime dependencies, builds no ``Fraction``, keeps
floating point out of its exact modules and guards nothing with
``assert``.

Every import in ``src/divides`` is relative, ``__future__`` or a standard
library module, and ``fractions`` is never imported: exact arithmetic in
the library runs on Python ints.  The modules that compute invariants
hold no true division, no float literal and no call of ``float`` or
``round``.  No module holds an ``assert`` statement, since ``python -O``
strips them: invariant guards raise real errors.  Every name a module
imports is read in it.  ``packed`` raises nothing and tests no type: its
rows are checked once, by ``seifert._check_rows`` at the public entry.
No module memoizes through ``functools.cache`` or ``lru_cache``: every
workload repeats its inputs, so a process-wide cache would let one call
reuse another's work.  State per divide belongs to its record
(``divide_map.lazy``), and state per slot width to the kernel call.
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


def bound_imports(tree):
    """(line, name) of every name an import binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    # a module reads each name it imports: no leftover import outlives the
    # code that used it (__init__.py imports to re-export)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [(line, name) for line, name in bound_imports(tree)
              if name not in read]
    assert unread == [], f"{path.name} imports names it never reads: {unread}"


EXACT = ["divide_map.py", "dynkin.py", "packed.py", "seifert.py", "walks.py"]


def floating(node):
    """Whether an ast node divides truly, is a float literal or calls
    ``float`` or ``round``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round"))


@pytest.mark.parametrize("name", EXACT)
def test_no_floating_point_in_exact_modules(name):
    path = SRC / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if floating(node)]
    assert lines == [], f"{name} has floating point on lines {lines}"


def test_packed_checks_nothing():
    # the packed kernels take rows that seifert._check_rows passed; a type
    # test or a raise here would be a second guard on the same input
    path = SRC / "packed.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [(node.lineno, type(node).__name__) for node in ast.walk(tree)
             if isinstance(node, ast.Raise)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("type", "isinstance")]
    assert found == [], f"packed.py checks its input at {found}"


def process_caches(tree):
    """(line, name) of every ``functools.cache`` or ``lru_cache`` a module
    imports or reads: ``from functools import cache``, or an attribute
    read off a name that ``import functools`` binds, under any alias."""
    caches = {"cache", "lru_cache"}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name in caches)
        elif (isinstance(node, ast.Attribute) and node.attr in caches
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_process_wide_cache(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = list(process_caches(tree))
    assert found == [], f"{path.name} caches across calls at {found}"
