"""Benchmark of the divides library: three workloads, end to end and per layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

``--workload`` is ``corpus``, ``chord_report``, ``family_scale`` or ``all``
(the default: each workload in its own fresh process, one after another).
The library is imported from ``src/`` of the checkout this file sits in.

One run sets up several times (fresh import, inputs, warm-up), runs a
single-threaded closed loop of ops for at least ``--seconds`` seconds and
100 ops, over whole cycles of the workload's inputs, and sets up as many
times again; ``setup_s`` is the median of all the set-ups.  Every op is
checked (see workloads.py); a failed op counts in ``failed``.

The latency metrics are in reference passes, not in ms: each op's latency
over the time that fixed reference work took on the host around it (see
hostspeed.py).  On a shared host the speed of the same code drifts by up to
2x for minutes at a time, and the ratio cancels that drift.  Throughput and
latency in ms are printed and kept in the result file too, not gated: they
carry the drift, and the reference passes (about 3% of the loop's time).

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` the run does an untraced loop for
half the time and then the same ops traced, and the JSON carries the
per-layer metrics of the traced loop, the work counters and the tracing
overhead.  Each run also writes a result file, and a traced run its spans,
under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Sampler
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, load_goldens

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 3   # before the timed loop, and as many again after it
MIN_OPS = 100       # so at least 10 samples lie beyond op_p90_ref
PRINTED_FAILURES = 5


def import_divides():
    """A fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "divides" or n.startswith("divides.")]:
        del sys.modules[name]
    dv = importlib.import_module("divides")
    if Path(dv.__file__).resolve().parent != SRC / "divides":
        raise ImportError(f"divides imported from {dv.__file__}, "
                          f"not from {SRC}")
    return dv


def set_up(name: str, seed: int):
    """Set the workload up SETUP_REPEATS times; return it and the times."""
    cls = WORKLOADS[name]
    goldens = load_goldens(name)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(import_divides(), seed, goldens)
        for key in range(wl.warm_up_ops):
            attempt(wl.op, key)
        times.append(time.perf_counter() - t0)
    return wl, times


def attempt(op, key):
    """(output, None) or (None, error text): an op that raises is a failed op."""
    try:
        return op(key), None
    except Exception as exc:        # any error of the program fails the op
        return None, f"{type(exc).__name__}: {exc}"


class Loop:
    """Latencies and failures of one closed loop of ops."""

    def __init__(self):
        self.start_ns: list[int] = []
        self.latency_ns: list[int] = []
        self.failures: list[tuple[int, str]] = []     # (op index, problem)
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def ops(self) -> int:
        return len(self.latency_ns)


def run_ops(wl, stop, op=None, on_output=None) -> Loop:
    """Closed loop: op i runs on input i % cycle until stop(ops, elapsed)."""
    op = op or wl.op
    loop = Loop()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    i = 0
    while True:
        key = i % wl.cycle
        start = time.perf_counter_ns()
        out, error = attempt(op, key)
        loop.latency_ns.append(time.perf_counter_ns() - start)
        loop.start_ns.append(start)
        problem = error or wl.check(key, out)
        if problem:
            loop.failures.append((i, problem))
        elif on_output is not None:
            on_output(key, out)
        i += 1
        if stop(i, time.perf_counter() - t0):
            break
    loop.wall_s = time.perf_counter() - t0
    loop.cpu_s = time.process_time() - cpu0
    return loop


def whole_cycles(wl, seconds: float):
    """Stop after `seconds` and MIN_OPS, at the end of a cycle of inputs.

    A run over whole cycles does the same mix of work for every seed.  The
    cap keeps a pathologically slow program inside the run's time limit.
    """
    cap = 2 * seconds + 10

    def stop(ops, elapsed):
        return elapsed >= cap or (ops % wl.cycle == 0 and ops >= MIN_OPS
                                  and elapsed >= seconds)
    return stop


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(loop: Loop, speed: Sampler, setup_s: float) -> dict:
    cost = [speed.cost(start, ns)
            for start, ns in zip(loop.start_ns, loop.latency_ns)]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (statistics.median(cost), "ref"),
        "op_p90_ref": (p90(cost), "ref"),
        "op_mean_ref": (statistics.fmean(cost), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }


def in_ms(loop: Loop) -> dict:
    """Throughput and latency in ms, the host's drift included."""
    ms = [ns / 1e6 for ns in loop.latency_ns]
    return {
        "ops_per_s": (loop.ops / loop.wall_s, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90(ms), "ms"),
        "cpu_ms_per_op": (1000 * loop.cpu_s / loop.ops, "ms"),
    }


def work_counters(per_input: dict) -> dict:
    """Exact work counts over the distinct inputs of the traced loop."""
    rows = list(per_input.values()) or [dict.fromkeys(
        ("mu", "delta", "nnz", "bits", "instances", "rejections"), 0)]
    instances = sum(r["instances"] for r in rows)
    rejections = sum(r["rejections"] for r in rows)
    return {
        "size.mu_mean": statistics.fmean(r["mu"] for r in rows),
        "size.delta_mean": statistics.fmean(r["delta"] for r in rows),
        "size.N_nnz_mean": statistics.fmean(r["nnz"] for r in rows),
        "size.charpoly_max_bits": max(r["bits"] for r in rows),
        # share of gen_chords samples kept; 1 when nothing was generated
        "generators.accept_ratio":
            instances / (instances + rejections) if instances else 1.0,
    }


def nonzeros(x) -> int:
    """Nonzero integers in a matrix held as nested lists or dicts."""
    if isinstance(x, int):
        return int(x != 0)
    return sum(nonzeros(v) for v in (x.values() if isinstance(x, dict) else x))


def input_counters(wl, out, results) -> dict:
    """Counters of one op, read from its output and the observed results."""
    mu, delta = wl.sizes(out)
    row = {"mu": mu, "delta": delta, "nnz": 0, "bits": 0,
           "instances": 0, "rejections": 0}
    for name, result in results:
        if name == "seifert.matrix_N" and not row["nnz"]:
            row["nnz"] = nonzeros(result)
        elif name == "seifert.char_poly":
            row["bits"] = max([row["bits"]]
                              + [abs(c).bit_length() for c in result])
        elif name == "generators.gen_chords":
            row["instances"] += 1
            row["rejections"] += result.rejections
    return row


def traced_loop(wl, stop):
    """The ops under the tracer: the loop, the tracer and per-input counters."""
    tracer = Tracer()
    per_input: dict[int, dict] = {}

    def record(key, out):
        if key not in per_input:
            per_input[key] = input_counters(wl, out, tracer.results)

    tracer.install()
    try:
        loop = run_ops(wl, stop, op=tracer.wrap_op(wl.op), on_output=record)
    finally:
        tracer.uninstall()
    return loop, tracer, per_input


def per_layer(plain: Loop, traced: Loop, tracer: Tracer,
              per_input: dict) -> dict:
    """Self time and calls per op of every wrapped function and layer,
    the work counters, and the tracing overhead against the plain loop."""
    n = traced.ops
    totals = tracer.totals()
    metrics = {}
    for layer, fns in LAYERS.items():
        layer_ns = 0
        for fn in fns:
            self_ns, calls = totals.get(f"{layer}.{fn}", (0, 0))
            layer_ns += self_ns
            metrics[f"{layer}.{fn}.self_ms_per_op"] = (self_ns / 1e6 / n, "ms")
            metrics[f"{layer}.{fn}.calls_per_op"] = (calls / n, "count")
        metrics[f"{layer}.self_ms_per_op"] = (layer_ns / 1e6 / n, "ms")
    units = {"size.charpoly_max_bits": "bits",
             "generators.accept_ratio": "ratio"}
    for name, value in work_counters(per_input).items():
        metrics[name] = (value, units.get(name, "count"))
    metrics["trace.overhead_frac"] = (
        1 - (traced.ops / traced.wall_s) / (plain.ops / plain.wall_s), "ratio")
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "git_commit": git_commit(),
    }


def counter_flags(name: str, seed: int, counters: dict, previous) -> list:
    """Counters that differ from the golden or from the previous traced run.

    The counters depend only on the workload's inputs, so a difference
    between two runs of one seed means the workload changed.
    """
    refs = []
    golden = load_goldens(name).get("seeds", {}).get(str(seed))
    if golden:
        refs.append(("golden", golden["counters"]))
    if previous:
        refs.append(("previous run", previous.get("counters", {})))
    return [f"{k} = {v!r}, {label} {ref[k]!r}"
            for label, ref in refs for k, v in counters.items()
            if k in ref and ref[k] != v]


def run_one(args) -> dict:
    wl, setup_times = set_up(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    result_path = RESULTS / f"{stem}.json"
    extra, ungated = {}, {}
    if args.trace:
        plain = run_ops(wl, whole_cycles(wl, args.seconds / 2))
        traced, tracer, per_input = traced_loop(
            wl, lambda ops, _: ops >= plain.ops)
        loops = (plain, traced)
        metrics = per_layer(plain, traced, tracer, per_input)
        counters = work_counters(per_input)
        tracer.write(RESULTS / f"{stem}-spans.jsonl.gz")
        result_path = RESULTS / f"{stem}-trace.json"
        previous = (json.loads(result_path.read_text())
                    if result_path.is_file() else None)
        flags = counter_flags(args.workload, args.seed, counters, previous)
        for flag in flags:
            print(f"FLAG counters differ: {flag}", file=sys.stderr)
        extra = {"counters": counters, "counter_flags": flags,
                 "untraced_ops_per_s": plain.ops / plain.wall_s}
    else:
        with Sampler() as speed:
            loop = run_ops(wl, whole_cycles(wl, args.seconds))
        # set up again after the loop, so that the median samples the
        # host's speed over the whole run; the old set-up goes first, so
        # that the new one takes no more memory than the first ones did
        del wl
        wl, again = set_up(args.workload, args.seed)
        loops = (loop,)
        metrics = end_to_end(loop, speed,
                             statistics.median(setup_times + again))
        ungated = in_ms(loop)
        extra = {"in_ms": {k: {"value": v, "unit": u}
                           for k, (v, u) in ungated.items()},
                 "reference_passes": len(speed.durations)}
    attempted = sum(lp.ops for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args, attempted)
    result_path.write_text(json.dumps(
        {"environment": env, **result, **extra,
         "failures": failures[:100]}, indent=2) + "\n")

    print(f"{args.workload}: seed {args.seed}, {attempted} ops "
          f"({wl.cycle} inputs per cycle), python {env['python']}, "
          f"nproc {env['nproc']}, commit {env['git_commit']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"  {name + ' (not gated)':<48} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<48} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} ops failed)")
    for i, problem in failures[:PRINTED_FAILURES]:
        print(f"  failed op {i}: {problem}")
    return result


def run_all(args) -> int:
    """Every workload in its own fresh process; a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}",
                  file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import_divides()
    except ImportError as exc:
        print(f"error: cannot import divides from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
