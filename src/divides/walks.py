"""The adjacency matrix of the Dynkin diagram, for ``seifert.walk_table``."""

from __future__ import annotations

from .dynkin import Gamma


def adjacency(gamma: Gamma) -> list[dict[int, int]]:
    """Symmetric adjacency matrix of the diagram, M = N + tN, as sparse
    rows built from the edge arrays as ``seifert.matrix_N`` builds N: each
    edge k adds 1 to M[i][j] and to M[j][i], (i, j) = (lo[k], hi[k]) - 1."""
    m = [{} for _ in range(gamma.mu)]
    for i, j in zip(gamma.lo, gamma.hi):
        i, j = i - 1, j - 1
        m[i][j] = m[i].get(j, 0) + 1
        m[j][i] = m[j].get(i, 0) + 1
    return m
