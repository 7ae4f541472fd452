"""Side-by-side data: monodromy traces and closed walks on the diagram.

Whether the traces of the monodromy iterates can be expressed through the
walk generating function of the diagram is an open question; this module
only emits the exact paired table and asserts nothing beyond Tr(M) = 0 and
the handshake identity Tr(M^2) = 2e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynkin import Gamma
from .seifert import (K_CAP, K_DEFAULT, Rows, check_k, matrix_N,
                      monodromy_matrix, trace_powers)


@dataclass(frozen=True)
class WalkTable:
    """Rows (k, Tr(T^k), 1 - Tr(T^k), Tr(M^k)) for k = 1..K."""
    rows: tuple[tuple[int, int, int, int], ...]

    def to_csv(self) -> str:
        lines = ["k,tr_T_k,lefschetz_k,tr_M_k"]
        for row in self.rows:
            lines.append(",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def adjacency(gamma: Gamma) -> Rows:
    """Symmetric adjacency matrix of the diagram, M = N + tN, as sparse
    rows built from the edge list as ``matrix_N`` builds N: each edge
    (i, j) adds 1 to M[i][j] and to M[j][i]."""
    m = [{} for _ in range(gamma.mu)]
    for e in gamma.edges:
        i, j = e.i - 1, e.j - 1
        m[i][j] = m[i].get(j, 0) + 1
        m[j][i] = m[j].get(i, 0) + 1
    return m


def walk_table(gamma: Gamma, k: int = K_DEFAULT) -> WalkTable:
    k = max(1, min(check_k(k), K_CAP))
    n = matrix_N(gamma)
    t = monodromy_matrix(n)
    pairs = zip(trace_powers(t, k, n), trace_powers(adjacency(gamma), k))
    return WalkTable(rows=tuple((i, tr_t, 1 - tr_t, tr_m)
                                for i, (tr_t, tr_m) in enumerate(pairs, 1)))
