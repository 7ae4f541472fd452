"""The adjacency matrix M, for ``bench/tracer.py``'s ``walks`` layer; no
timed path calls it, as ``seifert.walk_table`` builds M from the record."""

from __future__ import annotations

from .dynkin import Gamma
from .seifert import _symmetrized, matrix_N


def adjacency(gamma: Gamma) -> list[dict[int, int]]:
    """Symmetric adjacency matrix of the diagram, M = N + tN, as sparse
    rows: ``seifert._symmetrized`` with d = 0 on ``matrix_N(gamma)``."""
    return _symmetrized(matrix_N(gamma), 0)
