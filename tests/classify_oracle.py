"""The union-find route, kept as the oracle for the counting classifier.

Before ``classify`` read its flags off the face counts, it built a
union-find over the divide edges to decide connectivity and, for every
segment with Outer faces on both sides, another one over all edges but
that segment to count the double points on each side of the cut.  These
routines are that classifier, unchanged, plus the component count the
tests need to check the identity ``mu = 2 delta - r + C``.  Quadratic in
the number of edges, so the tests run them on small divides only.
"""

from divides import DivideStats


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def edge_ends(m):
    """The two end vertices of each divide edge, from its darts 2k, 2k + 1."""
    return list(zip(m.dart_vertex[0:2 * m.n_divide_edges:2],
                    m.dart_vertex[1:2 * m.n_divide_edges:2]))


def component_count(m):
    """Connected components of the graph spanned by the divide edges."""
    n_vertices = len(m.endpoints) + len(m.crossings)
    uf = _UnionFind(n_vertices)
    for a, b in edge_ends(m):
        uf.union(a, b)
    return len({uf.find(v) for v in range(n_vertices)})


def classify(m, faces):
    """Connectedness, cellularity and simplicity by union-find and cuts."""
    n_vertices = len(m.endpoints) + len(m.crossings)
    ends = edge_ends(m)
    uf = _UnionFind(n_vertices)
    for a, b in ends:
        uf.union(a, b)
    connected = len({uf.find(v) for v in range(n_vertices)}) == 1

    walks = ([m.dart_vertex[d] for d in m.face_walks[fi]]
             for fi in faces.regions)
    vertex_simple = all(len(set(w)) == len(w) for w in walks)
    cellular = connected and vertex_simple

    simple = connected and m.delta >= 1
    if simple:
        n_end = len(m.endpoints)
        for k in range(m.n_divide_edges):
            f1, f2 = m.dart_walk[2 * k], m.dart_walk[2 * k + 1]
            if f1 in faces.regions or f2 in faces.regions:
                continue    # not Outer on both sides
            cut = _UnionFind(n_vertices)
            for j, (a, b) in enumerate(ends):
                if j != k:
                    cut.union(a, b)
            a, b = ends[k]
            if cut.find(a) == cut.find(b):
                continue    # the segment lies on a cycle; no split
            side_a = cut.find(a)
            count_a = sum(1 for c in range(len(m.crossings))
                          if cut.find(n_end + c) == side_a)
            count_b = m.delta - count_a
            if count_a > 0 and count_b > 0:
                simple = False
                break

    return DivideStats(
        r=m.r,
        delta=m.delta,
        region_count=faces.region_count(),
        connected=connected,
        cellular=cellular,
        simple=simple,
        regions_vertex_simple=vertex_simple,
    )
