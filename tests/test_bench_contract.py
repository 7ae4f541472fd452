"""The library names the benchmark binds still exist.

``bench/tracer.py`` wraps the functions its ``LAYERS`` table names,
looked up as ``divides.<layer>.<name>``, and ``bench/workloads.py`` calls
the package through ``dv.<name>``, ``self.dv.<name>`` and
``getattr(dv, family)``.  A rename in the library would otherwise surface
only when the benchmark runs.  The bench files are read as source and
never imported or executed here.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divides

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _module_constant(path, name):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path.name}")


LAYERS = _module_constant(BENCH / "tracer.py", "LAYERS")
OBSERVED = _module_constant(BENCH / "tracer.py", "OBSERVED")


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_functions_exist(layer):
    module = importlib.import_module(f"divides.{layer}")
    for name in LAYERS[layer]:
        assert inspect.isfunction(getattr(module, name, None)), \
            f"divides.{layer}.{name}"


def test_package_import_loads_every_traced_layer():
    # Tracer.install looks each layer up in sys.modules, so ``import
    # divides`` alone, in a fresh interpreter, must load every one
    code = "import sys, divides\nprint(*sorted(sys.modules))\n"
    src = str(Path(divides.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    loaded = set(out.stdout.split())
    assert [layer for layer in sorted(LAYERS)
            if f"divides.{layer}" not in loaded] == []


def test_observed_functions_are_traced():
    for qualified in OBSERVED:
        layer, name = qualified.split(".")
        assert name in LAYERS[layer], qualified


def _is_dv(node):
    return (isinstance(node, ast.Name) and node.id == "dv"
            or isinstance(node, ast.Attribute) and node.attr == "dv")


def test_workload_package_names_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and _is_dv(node.value)}
    # FamilyScale looks its generators up with getattr(dv, family)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "families"
                for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    assert {"build_report", "run_corpus", "zigzag"} <= names
    for name in sorted(names):
        assert hasattr(divides, name), f"divides.{name}"
