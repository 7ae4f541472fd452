"""Self-test of the benchmark.

    python3 bench/selftest.py

A tiny clean run of each workload on the default seed passes the golden
gate; the same run with an injected fault fails it.  The faults perturb a
result in every module that binds the function, the way a real bug would
reach the library's callers: ``char_poly`` for corpus and chord_report
(the pattern of the library's acceptance criterion 9), ``counts`` for
family_scale, which never reaches the algebra.  Tiny plain and traced runs
report exactly the metrics BENCHMARK.json names, with its units, and two
``char_poly`` calls per chord report.  Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import tracer
from hostspeed import Sampler
from workloads import WORKLOADS, load_goldens

TINY_OPS = {"corpus": 30, "chord_report": 3, "family_scale": 2}


def perturbed_char_poly(real):
    def char_poly(t):
        coeffs = real(t)
        return [coeffs[0] + 1] + coeffs[1:]
    return char_poly


def perturbed_counts(real):
    def counts(gamma):
        cnt = real(gamma)
        return dataclasses.replace(cnt, f=cnt.f + 1)
    return counts


FAULTS = {"corpus": ("seifert", "char_poly", perturbed_char_poly),
          "chord_report": ("seifert", "char_poly", perturbed_char_poly),
          "family_scale": ("dynkin", "counts", perturbed_counts)}


def tiny_run(name: str, fault: bool) -> int:
    """Failed ops in a tiny run of the workload on the default seed."""
    dv = run.import_divides()
    wl = WORKLOADS[name](dv, run.DEFAULT_SEED, load_goldens(name))
    undo = []
    if fault:
        module, fn, perturb = FAULTS[name]
        real = getattr(sys.modules[f"divides.{module}"], fn)
        undo = tracer.rebind(real, perturb(real))
    try:
        loop = run.run_ops(wl, lambda ops, _: ops >= TINY_OPS[name])
    finally:
        tracer.restore(undo)
    return len(loop.failures)


def tiny_metrics(name: str) -> tuple[dict, dict]:
    """End-to-end and per-layer metrics of a tiny plain and traced run."""
    wl = WORKLOADS[name](run.import_divides(), run.DEFAULT_SEED,
                         load_goldens(name))
    stop = lambda ops, _: ops >= TINY_OPS[name]   # noqa: E731
    with Sampler() as speed:
        plain = run.run_ops(wl, stop)
    traced, t, per_input = run.traced_loop(wl, stop)
    return (run.end_to_end(plain, speed, 0.0),
            run.per_layer(plain, traced, t, per_input))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems = []
    for name in WORKLOADS:
        if not load_goldens(name).get("seeds", {}).get(str(run.DEFAULT_SEED)):
            problems.append(f"{name}: no goldens for the default seed")
        clean = tiny_run(name, fault=False)
        faulty = tiny_run(name, fault=True)
        print(f"{name}: clean run {clean} failed, "
              f"fault injected {faulty} failed of {TINY_OPS[name]}")
        if clean:
            problems.append(f"{name}: clean run failed the golden gate")
        if not faulty:
            problems.append(f"{name}: injected fault went unnoticed")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        e2e, layers = tiny_metrics(name)
        for kind, got in (("end_to_end", e2e), ("per_layer", layers)):
            named = [m["name"] for m in spec[kind]]
            if sorted(named) != sorted(got):
                problems.append(f"{name}: BENCHMARK.json {kind} differs "
                                f"from the run's metrics: "
                                f"{sorted(set(named) ^ set(got))}")
            units = {m["name"]: m["unit"] for m in spec[kind]}
            problems += [f"{name}: unit of {k} is {u}, not {units[k]}"
                         for k, (_, u) in got.items()
                         if k in units and units[k] != u]
        if name == "chord_report":
            calls = layers["seifert.char_poly.calls_per_op"][0]
            if calls != 2:
                problems.append(f"chord_report: {calls} char_poly calls per "
                                "op, expected 2")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
