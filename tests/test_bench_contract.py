"""The library names the benchmark binds still exist.

``bench/tracer.py`` wraps the functions its ``LAYERS`` table names,
looked up as ``divides.<layer>.<name>``, and ``bench/workloads.py`` calls
the package through ``dv.<name>``, ``self.dv.<name>`` and
``getattr(dv, family)``.  Both read fields, methods and JSON keys off
the results.  A rename in the library would otherwise surface only when
the benchmark runs.  The bench files are read as source and never
imported or executed here.
"""

import ast
import importlib
import io
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


# what the workloads and bench/run.py read off the library's results:
# attributes by the local name the bench gives the result, and the keys of
# the report JSON and of a map document
READS = {
    "st": ("connected", "cellular", "simple", "delta"),    # classify
    "cnt": ("mu", "e", "f"),                               # counts
    "summary": ("ok",),                                    # run_corpus
    "result": ("rejections",),                             # gen_chords
}
REPORT_KEYS = {"checks", "mu", "delta", "simple", "cellular",
               "lambda_formula", "lambda_trace"}
DOCUMENT_KEYS = {"crossings", "edges"}


def _bench_reads():
    """(local name, attribute) and (local name, string key) loads."""
    attrs, keys = set(), set()
    for name in ("workloads.py", "run.py"):
        tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name):
                attrs.add((node.value.id, node.attr))
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Load) and \
                    isinstance(node.slice, ast.Constant) and \
                    isinstance(node.slice.value, str):
                base = node.value
                while isinstance(base, ast.Subscript):    # out[1]["mu"]
                    base = base.value
                if isinstance(base, ast.Name):
                    keys.add((base.id, node.slice.value))
    return attrs, keys


def test_bench_reads_are_pinned():
    # a read the bench adds on these results must be pinned here too
    attrs, keys = _bench_reads()
    assert {(v, a) for v, a in attrs if v in READS} == \
        {(v, a) for v, names in READS.items() for a in names}
    assert {k for v, k in keys if v in ("d", "out")} == REPORT_KEYS
    assert {k for v, k in keys if v == "doc"} == DOCUMENT_KEYS


def test_pinned_reads_exist():
    m = divides.zigzag(3)
    faces = divides.compute_faces(m)
    results = {"st": divides.classify(m, faces),
               "cnt": divides.counts(divides.build_gamma(m, faces)),
               "summary": divides.run_corpus(1, 5, 1, csv_out=io.StringIO()),
               "result": divides.gen_chords(5, 1)}
    for var, names in READS.items():
        for name in names:
            assert hasattr(results[var], name), f"{var}.{name}"
    assert results["summary"].ok() is True
    assert type(results["result"].rejections) is int
    report = divides.build_report(divides.from_chords(results["result"]),
                                  source="contract")
    assert REPORT_KEYS <= set(report.to_json_dict())
    assert DOCUMENT_KEYS <= set(m.to_document())
