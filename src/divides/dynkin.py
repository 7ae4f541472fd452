"""The geometric Dynkin diagram of a signed divide.

Vertices are one basepoint per region plus the double points, numbered
1..mu: first the basepoints of Minus regions (in canonical region order),
then the double points (in input order), then the Plus basepoints.  Edges
come in two species: one per region sector at a double point, and one per
segment whose two sides are both regions (those two regions necessarily
carry opposite signs).  The diagram is three counts and its edge list:
n_minus, n_double and n_plus fix each vertex's kind by its index, every
edge runs from a lower to a higher vertex, and an edge repeated k times
is an entry k of the strictly upper triangular intersection matrix
assembled downstream.  Nothing here is quadratic in mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .divide_map import MINUS, PLUS, DivideError, DivideMap, Faces

SECTOR = "sector"
SEGMENT = "segment"


class GammaEdge(NamedTuple):
    species: str        # SECTOR or SEGMENT
    i: int              # vertex indices, i < j
    j: int


@dataclass(frozen=True)
class Gamma:
    edges: tuple[GammaEdge, ...]
    n_minus: int        # vertices 1..n_minus
    n_double: int       # then n_double vertices, then n_plus
    n_plus: int

    @property
    def mu(self) -> int:
        return self.n_minus + self.n_double + self.n_plus

    @cached_property
    def _sector_ends(self) -> list[tuple[list[int], list[int]]]:
        """Per double point, its Minus and its Plus sector ends.

        Each list holds basepoint vertex indices with multiplicity: a region
        meeting a double point in two sectors appears twice.  Built on first
        use and kept, so ``counts`` and ``check_flag_edges`` share one scan.
        """
        ends: list[tuple[list[int], list[int]]] = \
            [([], []) for _ in range(self.n_double)]
        for e in self.edges:
            if e.species != SECTOR:
                continue
            if e.i <= self.n_minus:         # minus basepoint -- double point
                ends[e.j - self.n_minus - 1][0].append(e.i)
            else:                           # double point -- plus basepoint
                ends[e.i - self.n_minus - 1][1].append(e.j)
        return ends


@dataclass(frozen=True)
class GammaCounts:
    mu: int
    e: int
    f: int


def build_gamma(m: DivideMap, faces: Faces) -> Gamma:
    """Assemble the diagram from the signed faces of a divide."""
    signs = faces.signs
    minus_regions = [fi for fi in faces.regions if signs[fi] == MINUS]
    plus_regions = [fi for fi in faces.regions if signs[fi] == PLUS]
    n_minus = len(minus_regions)

    # base[fi]: vertex index of region fi's basepoint, 0 for an Outer face
    base = [0] * len(signs)
    for v, fi in enumerate(minus_regions, 1):
        base[fi] = v
    for v, fi in enumerate(plus_regions, n_minus + m.delta + 1):
        base[fi] = v

    edges: list[GammaEdge] = []
    dart_face = faces.dart_face
    # the crossings' rotations follow the endpoints', in input order
    for d, rotation in enumerate(m.rotations[len(m.endpoints):], n_minus + 1):
        for dart in rotation:
            b = base[dart_face[dart]]
            if b:
                i, j = (b, d) if b < d else (d, b)
                edges.append(GammaEdge(SECTOR, i, j))

    segment_darts = dart_face[:2 * m.n_divide_edges]
    for f1, f2 in zip(segment_darts[::2], segment_darts[1::2]):
        b1, b2 = base[f1], base[f2]
        if not (b1 and b2):
            continue
        # minus basepoints are numbered first, plus basepoints last
        if (b1 <= n_minus) == (b2 <= n_minus):
            raise DivideError("2-coloring inconsistency: a segment joins "
                              "two regions of one sign")
        i, j = (b1, b2) if b1 < b2 else (b2, b1)    # i is the Minus one
        edges.append(GammaEdge(SEGMENT, i, j))

    return Gamma(
        edges=tuple(edges),
        n_minus=n_minus,
        n_double=m.delta,
        n_plus=len(plus_regions),
    )


def counts(gamma: Gamma) -> GammaCounts:
    """mu, edge count e (with multiplicity), and flag count f.

    A flag is a pair of sector edges at one double point, one to a Minus
    basepoint and one to a Plus basepoint; f is the total with
    multiplicity.
    """
    f = sum(len(minus) * len(plus) for minus, plus in gamma._sector_ends)
    return GammaCounts(mu=gamma.mu, e=len(gamma.edges), f=f)


def has_multi_edge(gamma: Gamma) -> bool:
    """True if any pair of Gamma vertices is joined by several edges."""
    pairs = {(e.i, e.j) for e in gamma.edges}
    return len(pairs) < len(gamma.edges)


def body_euler(m: DivideMap, faces: Faces) -> int:
    """Euler characteristic of the body: double points plus closed regions.

    As a cell complex the body has every double point as a 0-cell, the
    segments with at least one region side as 1-cells, and the regions as
    2-cells.
    """
    region = set(faces.regions)
    n_segment_darts = 2 * m.n_divide_edges
    sides = zip(faces.dart_face[0:n_segment_darts:2],
                faces.dart_face[1:n_segment_darts:2])
    region_sides = sum(1 for f1, f2 in sides if f1 in region or f2 in region)
    return m.delta - region_sides + faces.region_count()


def check_flag_edges(gamma: Gamma) -> list[tuple[int, int, int]]:
    """Flags whose closing edge is missing.

    Returns every triple (minus vertex, double vertex, plus vertex) with a
    sector edge on both sides but no segment edge joining the basepoints.
    Empty whenever the triangle construction underlying the Euler count
    applies (in particular on simple cellular divides).
    """
    closed = {(e.i, e.j) for e in gamma.edges if e.species == SEGMENT}
    return sorted({(b, gamma.n_minus + d + 1, p)
                   for d, (minus, plus) in enumerate(gamma._sector_ends)
                   for b in minus for p in plus if (b, p) not in closed})


def gamma_to_dot(gamma: Gamma) -> str:
    """Deterministic Graphviz DOT rendering of the diagram.

    Minus basepoints are boxes labeled "-", double points circles labeled
    by their vertex index, Plus basepoints boxes labeled "+".  Segment
    edges are dashed to distinguish the two species.
    """
    first_double = gamma.n_minus + 1
    first_plus = first_double + gamma.n_double
    # kind[v]: the name prefix of vertex v (kind[0] is unused)
    kind = "m" * first_double + "d" * gamma.n_double + "p" * gamma.n_plus
    lines = ["graph gamma {", "  node [fontsize=10];"]
    lines += [f'  m{v} [shape=box, label="-"];'
              for v in range(1, first_double)]
    lines += [f'  d{v} [shape=circle, label="{v}"];'
              for v in range(first_double, first_plus)]
    lines += [f'  p{v} [shape=box, label="+"];'
              for v in range(first_plus, gamma.mu + 1)]
    for e in sorted(gamma.edges, key=lambda e: (e.i, e.j, e.species)):
        style = " [style=dashed]" if e.species == SEGMENT else ""
        lines.append(f"  {kind[e.i]}{e.i} -- {kind[e.j]}{e.j}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
