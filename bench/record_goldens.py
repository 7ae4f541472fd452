"""Record the golden outputs of every workload for the two golden seeds.

    python3 bench/record_goldens.py

Writes ``bench/goldens/<workload>.json``: for the default seed and the
held-out seed, the digest of every input's output (the corpus CSV row, the
sha256 of the JSON report, the sha256 of the DOT output) and the work
counters of a traced cycle; for family_scale also the seed-independent
invariants.  Record only at a commit whose outputs are known good: the
committed goldens come from the library's initial release.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import GOLDEN_DIR, WORKLOADS


def record(name: str, seed: int) -> tuple[list, dict]:
    """Output digests and work counters of one traced cycle of inputs."""
    wl = WORKLOADS[name](run.import_divides(), seed, {})
    loop, _, per_input = run.traced_loop(wl, lambda ops, _: ops >= wl.cycle)
    if loop.failures:
        sys.exit(f"{name} seed {seed}: {loop.failures[0][1]}")
    # with no goldens loaded, the check keeps each input's first digest
    return ([wl.first_seen[k] for k in range(wl.cycle)],
            run.work_counters(per_input))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        goldens = {"recorded_at": run.git_commit(), "seeds": {}}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            digests, counters = record(name, seed)
            goldens["seeds"][str(seed)] = {"counters": counters,
                                           "outputs": digests}
            if name == "family_scale":
                goldens["invariants"] = [d[:-1] for d in digests]
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(goldens, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
