"""The two-scan front end, kept as the oracle for the one-trace map build.

Before the face trace kept a dart-to-walk table, the map build scanned the
rotations a second time for unused slots and for the face steps, the face
trace marked darts in ``seen`` flags, the branch trace kept a set of every
edge it walked, and ``compute_faces`` scattered the walks into a fresh
dart-to-face table and 2-colored the faces over adjacency lists built per
segment.  These routines are that front end, unchanged; the map they build
holds every field of ``DivideMap`` but the dart-to-walk table.
"""

from __future__ import annotations

from dataclasses import dataclass

from divides import MINUS, DivideError, Faces
from divides.divide_map import _check_planarity


@dataclass(frozen=True)
class OracleMap:
    endpoints: tuple[str, ...]
    crossings: tuple[str, ...]
    rotations: tuple[tuple[int, ...], ...]
    dart_vertex: tuple[int, ...]
    dart_pos: tuple[int, ...]
    face_walks: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.endpoints) // 2

    @property
    def n_divide_edges(self) -> int:
        return len(self.dart_vertex) // 2 - len(self.endpoints)

    @property
    def n_darts(self) -> int:
        return len(self.dart_vertex)


def map_from_document(doc) -> OracleMap:
    if not isinstance(doc, dict):
        raise DivideError("malformed document: expected a JSON object")
    if doc.get("format") != "divide-map/1":
        raise DivideError(
            f"malformed document: format is {doc.get('format')!r}, "
            "expected 'divide-map/1'")

    endpoints = doc.get("endpoints")
    crossings = doc.get("crossings", [])
    edges = doc.get("edges")
    if not isinstance(endpoints, list) or not isinstance(crossings, list) \
            or not isinstance(edges, list):
        raise DivideError("malformed document: endpoints/crossings/edges")

    labels = endpoints + crossings
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise DivideError(f"malformed document: bad label {lab!r}")
    index = {lab: v for v, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise DivideError("malformed document: duplicate label")

    n_end = len(endpoints)
    if n_end % 2 != 0 or n_end < 2:
        raise DivideError(
            f"odd endpoint count: {n_end} endpoints (need an even "
            "number, at least 2)")

    n_edge = len(edges)
    rotations = [[2 * (n_edge + j), None, 2 * (n_edge + (j - 1) % n_end) + 1]
                 for j in range(n_end)]
    rotations += [[None] * 4 for _ in crossings]

    d = 0
    for e in edges:
        if not isinstance(e, dict) or "a" not in e or "b" not in e:
            raise DivideError(f"malformed document: bad edge {e!r}")
        for pair in (e["a"], e["b"]):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[0], str) or pair[0] not in index
                    or type(pair[1]) is not int):
                raise DivideError(f"malformed document: bad attachment {pair!r}")
            lab, s = pair
            v = index[lab]
            rot = rotations[v]
            if v < n_end:
                if s != 0:
                    raise DivideError(
                        f"endpoint {lab!r} only exposes slot 0, got {s}")
                if rot[1] is not None:
                    raise DivideError(f"slot reuse at endpoint {lab!r}")
                rot[1] = d
            else:
                if not 0 <= s <= 3:
                    raise DivideError(
                        f"crossing {lab!r} slot {s} out of range 0..3")
                if rot[s] is not None:
                    raise DivideError(
                        f"slot reuse at crossing {lab!r} slot {s}")
                rot[s] = d
            d += 1

    n_darts = 2 * (n_edge + n_end)
    dart_vertex = [0] * n_darts
    dart_pos = [0] * n_darts
    step = [0] * n_darts
    for v, rot in enumerate(rotations):
        for i, d in enumerate(rot):
            if d is None:
                raise DivideError(
                    f"unused slot at endpoint {labels[v]!r}" if v < n_end
                    else f"unused slot at crossing {labels[v]!r} slot {i}")
            dart_vertex[d] = v
            dart_pos[d] = i
            step[d ^ 1] = rot[i - 1]

    m = OracleMap(
        endpoints=tuple(endpoints),
        crossings=tuple(crossings),
        rotations=tuple(tuple(rot) for rot in rotations),
        dart_vertex=tuple(dart_vertex),
        dart_pos=tuple(dart_pos),
        face_walks=trace_all_faces(step),
    )
    trace_branches(m)
    _check_planarity(m)
    return m


def trace_branches(m) -> list[tuple[int, ...]]:
    n_end = len(m.endpoints)
    used_edges: set[int] = set()
    branches = []
    for j in range(n_end):
        d0 = m.rotations[j][1]
        if d0 // 2 in used_edges:
            continue
        walk = []
        d = d0
        while True:
            walk.append(d)
            used_edges.add(d // 2)
            t = d ^ 1
            v = m.dart_vertex[t]
            if v < n_end:
                break
            d = m.rotations[v][(m.dart_pos[t] + 2) % 4]
        branches.append(tuple(walk))
    if len(used_edges) != m.n_divide_edges:
        raise DivideError("closed branch detected (circular component)")
    if len(branches) != m.r:
        raise DivideError(f"{len(branches)} branches traced, expected {m.r}")
    return branches


def trace_all_faces(step: list[int]) -> tuple:
    seen = [False] * len(step)
    walks = []
    for d0 in range(len(step)):
        if seen[d0]:
            continue
        walk = []
        d = d0
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = step[d]
        walks.append(tuple(walk))
    return tuple(walks)


def compute_faces(m) -> Faces:
    """Reads ``m.face_walks`` alone, so it runs on either kind of map."""
    boundary = 2 * m.n_divide_edges
    inside = m.face_walks[:-1]
    regions = tuple([fi for fi, w in enumerate(inside) if max(w) < boundary])

    endpoint_darts = {m.rotations[j][1] for j in range(len(m.endpoints))}
    if any(not endpoint_darts.isdisjoint(inside[fi]) for fi in regions):
        raise DivideError("a region walk touches an endpoint")

    dart_face = [-1] * m.n_darts
    for fi, w in enumerate(inside):
        for d in w:
            dart_face[d] = fi

    adj: list[list[int]] = [[] for _ in inside]
    for f1, f2 in zip(dart_face[0:boundary:2], dart_face[1:boundary:2]):
        if f1 == f2:
            raise DivideError("2-coloring inconsistency: a segment has the "
                              "same face on both sides")
        adj[f1].append(f2)
        adj[f2].append(f1)

    if regions:
        seed = regions[0]
    else:
        d = boundary
        seed = dart_face[d] if dart_face[d] != -1 else dart_face[d ^ 1]

    signs = [0] * len(inside)
    for start in (seed, *range(len(inside))):
        if signs[start] != 0:
            continue
        signs[start] = MINUS
        queue = [start]
        for fi in queue:
            opposite = -signs[fi]
            for fj in adj[fi]:
                if signs[fj] == 0:
                    signs[fj] = opposite
                    queue.append(fj)
                elif signs[fj] != opposite:
                    raise DivideError("2-coloring inconsistency across a "
                                      "divide segment")
    return Faces(signs=tuple(signs), regions=regions)
