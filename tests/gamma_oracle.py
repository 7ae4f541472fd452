"""The dense A/B/C block route, kept as the oracle for the edge-list diagram.

Before the diagram became its edge list alone, each edge was also counted
in one of three dense multiplicity blocks: A (minus x double sectors),
B (double x plus sectors) and C (minus x plus segments).  These routines
assemble the blocks straight from the signed faces, independently of
``build_gamma``, and read N, the counts, the multi-edge test and the
missing flags off them the way the library used to.  Quadratic in mu, so
the tests run them on small diagrams only.
"""

from dataclasses import dataclass

import divides
from divides import MINUS, PLUS

from algebra_oracle import rows_of


@dataclass(frozen=True)
class Blocks:
    n_minus: int
    n_double: int
    n_plus: int
    A: tuple[tuple[int, ...], ...]   # minus x double sector multiplicities
    B: tuple[tuple[int, ...], ...]   # double x plus sector multiplicities
    C: tuple[tuple[int, ...], ...]   # minus x plus segment multiplicities

    @property
    def mu(self):
        return self.n_minus + self.n_double + self.n_plus


def corner_faces(m):
    """Face in each corner (v, i), from the walks alone.

    A walk that reaches vertex v along the twin of the dart at rotation
    position pos turns clockwise into the corner (v, (pos - 1) mod deg).
    """
    boundary = 2 * m.n_divide_edges
    corner = {}
    for fi, w in enumerate(m.face_walks):
        if min(w) >= boundary:
            fi = None                   # the face outside the disk
        for d in w:
            t = d ^ 1
            v = m.dart_vertex[t]
            deg = len(m.rotations[v])
            corner[(v, (m.dart_pos[t] - 1) % deg)] = fi
    return corner


def build_blocks(m, faces):
    """The three multiplicity blocks of the diagram of a signed divide."""
    minus_regions = [fi for fi in faces.regions
                     if faces.signs[fi] == MINUS]
    plus_regions = [fi for fi in faces.regions
                    if faces.signs[fi] == PLUS]
    minus_row = {fi: i for i, fi in enumerate(minus_regions)}
    plus_col = {fi: i for i, fi in enumerate(plus_regions)}
    n_minus, n_double, n_plus = \
        len(minus_regions), m.delta, len(plus_regions)

    A = [[0] * n_double for _ in range(n_minus)]
    B = [[0] * n_plus for _ in range(n_double)]
    C = [[0] * n_plus for _ in range(n_minus)]
    n_end = len(m.endpoints)
    corner_face = corner_faces(m)
    for c in range(m.delta):
        for corner in range(4):
            fi = corner_face[(n_end + c, corner)]
            if fi not in faces.regions:
                continue
            if faces.signs[fi] == MINUS:
                A[minus_row[fi]][c] += 1
            else:
                B[c][plus_col[fi]] += 1
    for k in range(m.n_divide_edges):
        f1, f2 = m.dart_walk[2 * k], m.dart_walk[2 * k + 1]
        if f1 not in faces.regions or f2 not in faces.regions:
            continue
        if faces.signs[f1] != MINUS:
            f1, f2 = f2, f1
        C[minus_row[f1]][plus_col[f2]] += 1
    return Blocks(n_minus, n_double, n_plus,
                  tuple(map(tuple, A)), tuple(map(tuple, B)),
                  tuple(map(tuple, C)))


def matrix_N(bl):
    nm, nd, np_ = bl.n_minus, bl.n_double, bl.n_plus
    n = [[0] * bl.mu for _ in range(bl.mu)]
    for b in range(nm):
        for d in range(nd):
            n[b][nm + d] = bl.A[b][d]
        for p in range(np_):
            n[b][nm + nd + p] = bl.C[b][p]
    for d in range(nd):
        for p in range(np_):
            n[nm + d][nm + nd + p] = bl.B[d][p]
    return n


def counts(bl):
    """(mu, e, f): e sums the blocks, f sums the entries of A*B."""
    e = sum(x for block in (bl.A, bl.B, bl.C) for row in block for x in row)
    f = 0
    for d in range(bl.n_double):
        left = sum(bl.A[b][d] for b in range(bl.n_minus))
        right = sum(bl.B[d][p] for p in range(bl.n_plus))
        f += left * right
    return bl.mu, e, f


def has_multi_edge(bl):
    return any(x > 1 for block in (bl.A, bl.B, bl.C)
               for row in block for x in row)


def check_flag_edges(bl):
    """(minus, double, plus) vertex triples of flags with no closing edge."""
    nm, nd = bl.n_minus, bl.n_double
    violations = []
    for b in range(nm):
        for d in range(nd):
            if bl.A[b][d] == 0:
                continue
            for p in range(bl.n_plus):
                if bl.B[d][p] > 0 and bl.C[b][p] == 0:
                    violations.append((b + 1, nm + d + 1, nm + nd + p + 1))
    return violations



def readings(m, faces):
    """Partition, N (as sparse rows), (mu, e, f), multi-edge and missing
    flags, from blocks."""
    bl = build_blocks(m, faces)
    return ((bl.n_minus, bl.n_double, bl.n_plus), rows_of(matrix_N(bl)),
            counts(bl), has_multi_edge(bl), check_flag_edges(bl))


def library_readings(m, faces):
    """The same readings from the library's edge-list diagram."""
    g = divides.build_gamma(m, faces)
    c = divides.counts(g)
    return ((g.n_minus, g.n_double, g.n_plus), divides.matrix_N(g),
            (c.mu, c.e, c.f), divides.has_multi_edge(g),
            divides.check_flag_edges(g))
