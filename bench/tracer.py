"""Span tracer that wraps the library's public functions from outside.

The library binds names with ``from .x import f``, so one function object
can sit in several module namespaces (``divides.seifert.char_poly`` and
``divides.report.char_poly``, and ``divides.char_poly`` itself).  The
tracer rebinds every one of them, so inner calls such as
``verify_theorem -> char_poly`` and ``build_report -> verify_theorem``
land inside the trace.

Spans are kept in flat arrays (no per-span objects for the garbage
collector to scan) and written out when the run ends.  A span's self time
is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# layer (module of src/divides) -> its public functions on the timed paths;
# cli and render are cold and not wrapped
LAYERS = {
    "generators": ("gen_chords", "chords_from_document", "from_chords",
                   "chords_to_map_document", "crossing_count", "zigzag",
                   "coil"),
    "divide_map": ("map_from_document", "compute_faces", "classify"),
    "dynkin": ("build_gamma", "counts", "body_euler", "check_flag_edges",
               "has_multi_edge", "gamma_to_dot"),
    "seifert": ("matrix_N", "monodromy_matrix", "lefschetz_number",
                "char_poly", "signature", "trace_powers",
                "newton_power_sums", "verify_theorem"),
    "walks": ("adjacency",),
    "report": ("build_report", "run_corpus"),
}

# functions whose results the work counters read
OBSERVED = ("generators.gen_chords", "seifert.matrix_N", "seifert.char_poly")

OP = "op"       # root span of one benchmark op


def package_modules() -> list:
    return [mod for name, mod in sys.modules.items()
            if name == "divides" or name.startswith("divides.")]


def rebind(old, new) -> list:
    """Point every ``divides.*`` attribute holding ``old`` at ``new``.

    Returns the undo records for ``restore``.
    """
    undo = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def restore(undo: list) -> None:
    for mod, attr, old in reversed(undo):
        setattr(mod, attr, old)


class Tracer:
    """Records one span per call of every function in ``LAYERS``."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.op = -1
        self.results: list = []      # (name, result) of OBSERVED, this op
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for layer, fns in LAYERS.items():
            home = sys.modules[f"divides.{layer}"]
            for fn in fns:
                target = getattr(home, fn, None)
                if target is not None:
                    self._undo += rebind(target,
                                         self._wrap(f"{layer}.{fn}", target))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def wrap_op(self, op):
        """The benchmark op under a root span; each call is a new op id."""
        traced = self._wrap(OP, op)

        def run(key):
            self.op += 1
            self.results = []
            return traced(key)
        return run

    def _wrap(self, name, fn):
        names, start, end, parent, op_of = \
            self.names, self.start, self.end, self.parent, self.op_of
        stack = self._stack
        observed = name in OBSERVED
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observed:
                self.results.append((name, result))
            return result
        return traced

    def totals(self) -> dict[str, list[int]]:
        """Span name -> [self time in ns, call count]."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            t = out.setdefault(name, [0, 0])
            t[0] += self.end[i] - self.start[i] - child[i]
            t[1] += 1
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON lines after a header line.

        A span's id, which ``parent`` refers to, counts the span lines from 0.
        """
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                            "parent", "op"]}) + "\n")
            for row in zip(self.names, self.start, self.end, self.parent,
                           self.op_of):
                fh.write(json.dumps(row) + "\n")
