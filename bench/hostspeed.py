"""The host's speed, sampled by timing fixed reference work during a loop.

On a shared host the same code runs up to 2x slower for seconds or whole
minutes at a time, and a run's CPU time slows with it, so latencies of
separate runs are not comparable.  While a loop of ops runs, a timer
signal interrupts it every 40 ms, also in the middle of an op, and times
one pass of fixed reference work.  An op's cost is its latency, less the
passes that ran inside it, divided by the mean pass time around it: in
that ratio the host's speed at the moment cancels, and what is left moves
only with the work the program does.

Contention slows different kinds of work by different amounts, so the
reference work is close to the library's own: pure-Python loops over
lists of lists, with integers that grow big.  Rational arithmetic, big
integer dot products and scattered reads of a large list tracked the
workloads' slowdowns less well.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

EVERY_S = 0.04
AROUND_NS = 100_000_000     # passes this close to an op count for its cost
N = 10                      # the reference matrix is N x N


def reference_matrix() -> list[list[int]]:
    rng = random.Random(0)
    return [[1 if i == j else rng.choice((-1, 0, 0, 1)) for j in range(N)]
            for i in range(N)]


def reference_work(t: list[list[int]]) -> list[list[int]]:
    """The Faddeev-LeVerrier steps of t's characteristic polynomial."""
    m = [[int(i == j) for j in range(N)] for i in range(N)]
    for k in range(1, N + 1):
        product = [[0] * N for _ in range(N)]
        for row, out in zip(t, product):
            for x, m_row in zip(row, m):
                if x:
                    for j in range(N):
                        out[j] += x * m_row[j]
        m = product
        a = -sum(m[i][i] for i in range(N)) // k
        for i in range(N):
            m[i][i] += a
    return m


class Sampler:
    """Times the reference work every EVERY_S seconds while it is entered."""

    def __init__(self):
        self.matrix = reference_matrix()
        self.starts: list[int] = []
        self.durations: list[int] = []
        self._previous = None
        reference_work(self.matrix)
        self._tick(None, None)      # so that even an empty loop has a pass

    def _tick(self, signum, frame):
        start = time.perf_counter_ns()
        reference_work(self.matrix)
        self.starts.append(start)
        self.durations.append(time.perf_counter_ns() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, start: int, latency: int) -> float:
        """An op's latency, less the passes in it, in mean reference passes."""
        end = start + latency
        inside = slice(bisect.bisect_left(self.starts, start),
                       bisect.bisect_left(self.starts, end))
        around = slice(bisect.bisect_left(self.starts, start - AROUND_NS),
                       bisect.bisect_left(self.starts, end + AROUND_NS))
        reference = statistics.fmean(self.durations[around]
                                     or self.durations)
        return (latency - sum(self.durations[inside])) / reference
