"""The geometric Dynkin diagram of a signed divide.

Vertices are one basepoint per region plus the double points, numbered
1..mu: first the basepoints of Minus regions (in canonical region order),
then the double points (in input order), then the Plus basepoints.  Edges
come in two species: one per region sector at a double point, and one per
segment whose two sides are both regions (those two regions necessarily
carry opposite signs).  ``Gamma`` holds the edges as two int arrays, and
n_minus, n_double and n_plus fix each vertex's kind by its index.  An edge
repeated k times is an entry k of the strictly upper triangular
intersection matrix assembled downstream; nothing here is quadratic in mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from .divide_map import MINUS, PLUS, DivideError, DivideMap, Faces


@dataclass(frozen=True)
class Gamma:
    """Edge k joins vertex lo[k] to hi[k] > lo[k], once per multiplicity;
    edges 0..n_sector-1 are the sector edges, the rest the segment edges.
    Readers scan the two arrays themselves; nothing is cached beside them."""
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    n_sector: int
    n_minus: int        # vertices 1..n_minus
    n_double: int       # then n_double vertices, then n_plus
    n_plus: int

    @property
    def mu(self) -> int:
        return self.n_minus + self.n_double + self.n_plus


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
    # and for the outside of the disk, the last walk
    base = [0] * (len(signs) + 1)
    for v, fi in enumerate(minus_regions, 1):
        base[fi] = v
    for v, fi in enumerate(plus_regions, n_minus + m.delta + 1):
        base[fi] = v

    lo: list[int] = []
    hi: list[int] = []
    dart_walk = m.dart_walk
    # the crossings' rotations follow the endpoints', in input order
    for d, rotation in enumerate(m.rotations[len(m.endpoints):], n_minus + 1):
        for dart in rotation:
            b = base[dart_walk[dart]]
            if b:
                lo.append(b if b < d else d)
                hi.append(d if b < d else b)
    n_sector = len(lo)

    segment_darts = dart_walk[:2 * m.n_divide_edges]
    for f1, f2 in zip(segment_darts[::2], segment_darts[1::2]):
        b1, b2 = base[f1], base[f2]
        if not (b1 and b2):
            continue
        # minus basepoints are numbered first, plus basepoints last
        if (b1 <= n_minus) == (b2 <= n_minus):
            raise DivideError("2-coloring inconsistency: a segment joins "
                              "two regions of one sign")
        lo.append(b1 if b1 < b2 else b2)    # the Minus one
        hi.append(b2 if b1 < b2 else b1)

    return Gamma(tuple(lo), tuple(hi), n_sector=n_sector, n_minus=n_minus,
                 n_double=m.delta, n_plus=len(plus_regions))


def counts(gamma: Gamma) -> GammaCounts:
    """mu, edge count e (with multiplicity), and flag count f.

    A flag is a pair of sector edges at one double point, one to a Minus
    basepoint and one to a Plus basepoint: f is the sum over double points
    of (Minus sector edges) * (Plus sector edges), with multiplicity.
    """
    nm, ns = gamma.n_minus, gamma.n_sector
    # per vertex index: a double point's Minus and its Plus sector edges
    minus, plus = [0] * (gamma.mu + 1), [0] * (gamma.mu + 1)
    for i, j in zip(gamma.lo[:ns], gamma.hi[:ns]):
        if i <= nm:                         # minus basepoint -- double point
            minus[j] += 1
        else:                               # double point -- plus basepoint
            plus[i] += 1
    f = sum(map(mul, minus, plus))
    return GammaCounts(mu=gamma.mu, e=len(gamma.lo), f=f)


def has_multi_edge(gamma: Gamma) -> bool:
    """True if any pair of Gamma vertices is joined by several edges."""
    return len(set(zip(gamma.lo, gamma.hi))) < len(gamma.lo)


def body_euler(m: DivideMap, faces: Faces) -> int:
    """Euler characteristic of the body: double points plus closed regions.

    As a cell complex the body has every double point as a 0-cell, the
    segments with at least one region side as 1-cells, and the regions as
    2-cells.
    """
    region = set(faces.regions)
    n_segment_darts = 2 * m.n_divide_edges
    sides = zip(m.dart_walk[0:n_segment_darts:2],
                m.dart_walk[1:n_segment_darts:2])
    region_sides = sum(1 for f1, f2 in sides if f1 in region or f2 in region)
    return m.delta - region_sides + faces.region_count()


def check_flag_edges(gamma: Gamma) -> list[tuple[int, int, int]]:
    """Flags whose closing edge is missing.

    Returns every triple (minus vertex, double vertex, plus vertex) with a
    sector edge on both sides but no segment edge joining the basepoints.
    Empty whenever the triangle construction underlying the Euler count
    applies (in particular on simple cellular divides).
    """
    nm, ns = gamma.n_minus, gamma.n_sector
    closed = set(zip(gamma.lo[ns:], gamma.hi[ns:]))
    lo, hi = gamma.lo[:ns], gamma.hi[:ns]      # the sector edges
    plus: dict[int, list[int]] = {}     # double point -> its Plus ends
    for d, p in zip(lo, hi):
        if d > nm:
            plus.setdefault(d, []).append(p)
    # each Minus sector edge (b, d) makes a flag with each Plus end at d
    return sorted({(b, d, p) for b, d in zip(lo, hi) if b <= nm
                   for p in plus.get(d, ()) if (b, p) not in closed})


def gamma_to_dot(gamma: Gamma) -> str:
    """Deterministic Graphviz DOT rendering of the diagram.

    Minus basepoints are boxes labeled "-", double points circles labeled
    by their vertex index, Plus basepoints boxes labeled "+".  Segment
    edges are dashed; edges sort by their ends, sector edges first.
    """
    first_double = gamma.n_minus + 1
    first_plus = first_double + gamma.n_double
    # name[v]: the node name of vertex v (name[0] is unused)
    name = [f"{kind}{v}" for v, kind in enumerate(
        "m" * first_double + "d" * gamma.n_double + "p" * gamma.n_plus)]
    lines = ["graph gamma {", "  node [fontsize=10];"]
    lines += [f'  {name[v]} [shape=box, label="-"];'
              for v in range(1, first_double)]
    lines += [f'  {name[v]} [shape=circle, label="{v}"];'
              for v in range(first_double, first_plus)]
    lines += [f'  {name[v]} [shape=box, label="+"];'
              for v in range(first_plus, gamma.mu + 1)]
    # one int per edge, (lo, hi, is_segment) in lexicographic order
    w, ns, lo, hi = gamma.mu + 1, gamma.n_sector, gamma.lo, gamma.hi
    keys = sorted([(i * w + j) << 1 for i, j in zip(lo[:ns], hi[:ns])]
                  + [(i * w + j) << 1 | 1 for i, j in zip(lo[ns:], hi[ns:])])
    for key in keys:
        i, j = divmod(key >> 1, w)
        style = " [style=dashed]" if key & 1 else ""
        lines.append(f"  {name[i]} -- {name[j]}{style};")
    lines.append("}\n")
    return "\n".join(lines)
