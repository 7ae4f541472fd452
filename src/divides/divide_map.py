"""Combinatorial planar maps of divides.

A divide is a collection of immersed arcs in the unit disk: endpoints on
the boundary circle, interior intersections are transversal double points.
We encode one as a rotation system: endpoints expose a single attachment
slot, double points expose four slots in counterclockwise order, and every
slot is used by exactly one edge.  The *augmented* map adds the boundary
arcs between cyclically consecutive endpoints; tracing its faces both
certifies that the rotation system embeds in the disk (Euler count) and
yields the complement components needed downstream.

Dart conventions used throughout the package:

* edge ``k`` owns darts ``2k`` (its ``a`` end) and ``2k + 1`` (its ``b``
  end); boundary arcs are appended after the divide edges, so a dart is a
  boundary dart iff its edge index is ``>= len(map.edges)``;
* ``twin(d) == d ^ 1``;
* rotations are stored counterclockwise.  Face walks step from a dart to
  its twin and then to the next dart *clockwise* at the twin's vertex,
  which makes every augmented-map face appear exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

MINUS = -1
PLUS = 1

OUTER = "outer"
REGION = "region"


class DivideError(Exception):
    """A document or map violates a divide invariant."""


# ---------------------------------------------------------------------------
# the map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivideMap:
    """Validated divide as a combinatorial map, plus its augmented rotation.

    ``endpoints`` are labels in counterclockwise order along the disk
    boundary; vertex ids 0..2r-1 follow that order and crossings continue
    at 2r..2r+delta-1 in input order.  ``edges`` holds the divide edges
    only, as ((vertex, slot), (vertex, slot)) pairs.
    """

    endpoints: tuple[str, ...]
    crossings: tuple[str, ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    rotations: tuple[tuple[int, ...], ...]   # per vertex, darts ccw
    dart_vertex: tuple[int, ...]             # dart -> vertex id
    dart_pos: tuple[int, ...]                # dart -> index in its rotation
    # every face of the augmented map as its dart walk, traced once while
    # validating and read by compute_faces; determined by the rotations
    face_walks: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def r(self) -> int:
        return len(self.endpoints) // 2

    @property
    def delta(self) -> int:
        return len(self.crossings)

    @property
    def n_divide_edges(self) -> int:
        return len(self.edges)

    @property
    def n_darts(self) -> int:
        return 2 * (len(self.edges) + len(self.endpoints))

    def is_endpoint_vertex(self, v: int) -> bool:
        return v < len(self.endpoints)

    def is_boundary_dart(self, d: int) -> bool:
        return d // 2 >= len(self.edges)

    def vertex_label(self, v: int) -> str:
        if v < len(self.endpoints):
            return self.endpoints[v]
        return self.crossings[v - len(self.endpoints)]

    def to_document(self) -> dict:
        """Emit the divide-map/1 document for this map (canonical labels)."""
        return {
            "format": "divide-map/1",
            "endpoints": list(self.endpoints),
            "crossings": list(self.crossings),
            "edges": [
                {"a": [self.vertex_label(a[0]), a[1]],
                 "b": [self.vertex_label(b[0]), b[1]]}
                for a, b in self.edges
            ],
        }


def twin(d: int) -> int:
    return d ^ 1


def _build_map(endpoints, crossings, edges) -> DivideMap:
    """Assemble rotations for the augmented map and validate everything."""
    n_end = len(endpoints)
    n_cross = len(crossings)
    n_edge = len(edges)

    # slot tables: endpoints have 1 slot, crossings 4
    end_slot: list[int | None] = [None] * n_end
    cross_slots = [[None] * 4 for _ in range(n_cross)]

    for k, ((va, sa), (vb, sb)) in enumerate(edges):
        for d, (v, s) in ((2 * k, (va, sa)), (2 * k + 1, (vb, sb))):
            if v < n_end:
                if s != 0:
                    raise DivideError(
                        f"endpoint {endpoints[v]!r} only exposes slot 0, got {s}")
                if end_slot[v] is not None:
                    raise DivideError(
                        f"slot reuse at endpoint {endpoints[v]!r}")
                end_slot[v] = d
            else:
                c = v - n_end
                if not 0 <= s <= 3:
                    raise DivideError(
                        f"crossing {crossings[c]!r} slot {s} out of range 0..3")
                if cross_slots[c][s] is not None:
                    raise DivideError(
                        f"slot reuse at crossing {crossings[c]!r} slot {s}")
                cross_slots[c][s] = d

    for v, d in enumerate(end_slot):
        if d is None:
            raise DivideError(f"unused slot at endpoint {endpoints[v]!r}")
    for c, slots in enumerate(cross_slots):
        for s, d in enumerate(slots):
            if d is None:
                raise DivideError(
                    f"unused slot at crossing {crossings[c]!r} slot {s}")

    # boundary arcs: arc j joins endpoint j to endpoint (j+1) mod 2r,
    # darts 2*(n_edge+j) at j and 2*(n_edge+j)+1 at j+1
    def arc_dart_at_start(j):
        return 2 * (n_edge + j)

    def arc_dart_at_end(j):
        return 2 * (n_edge + j) + 1

    rotations: list[tuple[int, ...]] = []
    for j in range(n_end):
        succ_arc = arc_dart_at_start(j)
        pred_arc = arc_dart_at_end((j - 1) % n_end)
        # ccw as seen from inside the disk: arc to ccw successor, the
        # divide edge, arc to ccw predecessor
        rotations.append((succ_arc, end_slot[j], pred_arc))
    for slots in cross_slots:
        rotations.append(tuple(slots))

    n_darts = 2 * (n_edge + n_end)
    dart_vertex = [0] * n_darts
    dart_pos = [0] * n_darts
    for v, rot in enumerate(rotations):
        for i, d in enumerate(rot):
            dart_vertex[d] = v
            dart_pos[d] = i
    walks = _trace_all_faces(rotations, dart_vertex, dart_pos)

    # tuple(list), not tuple(generator): resizing fills CPython's free lists
    m = DivideMap(
        endpoints=tuple(endpoints),
        crossings=tuple(crossings),
        edges=tuple([(tuple(a), tuple(b)) for a, b in edges]),
        rotations=tuple(rotations),
        dart_vertex=tuple(dart_vertex),
        dart_pos=tuple(dart_pos),
        face_walks=walks,
    )

    trace_branches(m)          # rejects closed components
    _check_planarity(m)        # Euler count + unique all-arc face
    return m


def parse_json(data: str | bytes):
    """Decode JSON text, or UTF-8 bytes; any failure is a DivideError.

    That covers bytes that are not UTF-8, integers past Python's digit
    limit and nesting past the recursion limit.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DivideError(f"malformed document: {exc}") from None


def parse_divide(text: str) -> DivideMap:
    """Parse and fully validate a divide-map/1 document."""
    return map_from_document(parse_json(text))


def map_from_document(doc) -> DivideMap:
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

    for lab in list(endpoints) + list(crossings):
        if not isinstance(lab, str) or not lab:
            raise DivideError(f"malformed document: bad label {lab!r}")
    all_labels = list(endpoints) + list(crossings)
    if len(set(all_labels)) != len(all_labels):
        raise DivideError("malformed document: duplicate label")

    if len(endpoints) % 2 != 0 or len(endpoints) < 2:
        raise DivideError(
            f"odd endpoint count: {len(endpoints)} endpoints (need an even "
            "number, at least 2)")

    index = {lab: i for i, lab in enumerate(endpoints)}
    index.update({lab: len(endpoints) + i for i, lab in enumerate(crossings)})

    resolved = []
    for e in edges:
        if not isinstance(e, dict) or "a" not in e or "b" not in e:
            raise DivideError(f"malformed document: bad edge {e!r}")
        ends = []
        for key in ("a", "b"):
            pair = e[key]
            # type() rather than isinstance(): JSON true is not slot 1
            if (not isinstance(pair, list) or len(pair) != 2
                    or pair[0] not in index or type(pair[1]) is not int):
                raise DivideError(f"malformed document: bad attachment {pair!r}")
            ends.append((index[pair[0]], pair[1]))
        resolved.append(tuple(ends))

    return _build_map(list(endpoints), list(crossings), resolved)


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def trace_branches(m: DivideMap) -> list[tuple[int, ...]]:
    """Trace every branch endpoint-to-endpoint.

    At a crossing the strand entering slot i leaves through slot
    (i + 2) mod 4.  Returns one dart sequence per branch; raises if any
    divide edge is left over, which means the map contains a closed
    (circular) component.
    """
    n_end = len(m.endpoints)
    used_edges: set[int] = set()
    branches = []
    for j in range(n_end):
        d0 = m.rotations[j][1]          # the endpoint's divide dart
        if d0 // 2 in used_edges:
            continue
        walk = []
        d = d0
        while True:
            walk.append(d)
            used_edges.add(d // 2)
            t = twin(d)
            v = m.dart_vertex[t]
            if m.is_endpoint_vertex(v):
                break
            slot = m.dart_pos[t]
            d = m.rotations[v][(slot + 2) % 4]
        branches.append(tuple(walk))
    if len(used_edges) != m.n_divide_edges:
        raise DivideError("closed branch detected (circular component)")
    if len(branches) != m.r:
        raise DivideError(f"{len(branches)} branches traced, expected {m.r}")
    return branches


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def _trace_all_faces(rotations, dart_vertex, dart_pos) -> tuple:
    """All faces of the augmented map, each as its boundary dart walk."""
    seen = [False] * len(dart_vertex)
    walks = []
    for d0 in range(len(dart_vertex)):
        if seen[d0]:
            continue
        walk = []
        d = d0
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            t = twin(d)
            rot = rotations[dart_vertex[t]]
            d = rot[(dart_pos[t] - 1) % len(rot)]
        walks.append(tuple(walk))
    return tuple(walks)


def _check_planarity(m: DivideMap) -> None:
    n_vertices = len(m.endpoints) + len(m.crossings)
    n_edges = m.n_divide_edges + len(m.endpoints)   # divide edges + arcs
    euler = n_vertices - n_edges + len(m.face_walks)
    if euler != 2:
        raise DivideError(
            f"planarity failure (Euler check {euler} != 2): the rotation "
            "system does not embed in the disk")
    all_arc = [w for w in m.face_walks
               if all(m.is_boundary_dart(d) for d in w)]
    if len(all_arc) != 1:
        raise DivideError(
            f"expected exactly one all-boundary-arc face, found {len(all_arc)}")


@dataclass(frozen=True)
class Face:
    """One inside-disk face of the augmented map."""
    index: int
    darts: tuple[int, ...]   # boundary walk
    kind: str                # OUTER or REGION
    sign: int                # MINUS or PLUS


@dataclass(frozen=True)
class Faces:
    """All inside-disk faces of a divide, signed, with corner lookup.

    ``corner_face[(v, i)]`` is the face occupying the corner between
    rotation positions i and i+1 (ccw) at vertex v; for a crossing this is
    exactly the sector between slots i and (i+1) mod 4.  ``regions`` lists
    region face indices in canonical order (by smallest dart on the walk).
    """
    faces: tuple[Face, ...]
    dart_face: tuple[int, ...]               # dart -> face index (-1: outside)
    corner_face: dict
    regions: tuple[int, ...]

    def flipped(self) -> "Faces":
        """The same faces under the reversed sign normalization."""
        return Faces(
            faces=tuple(Face(f.index, f.darts, f.kind, -f.sign)
                        for f in self.faces),
            dart_face=self.dart_face,
            corner_face=self.corner_face,
            regions=self.regions,
        )

    def region_count(self) -> int:
        return len(self.regions)


def compute_faces(m: DivideMap) -> Faces:
    """Classify and 2-color the inside-disk faces, from ``m.face_walks``.

    Signs come from breadth-first 2-coloring of face adjacency across
    divide segments, normalized so that the face holding the lowest
    numbered dart of any region (or, with no regions, the inside face of
    the first boundary arc) is Minus.  ``Faces.flipped`` gives the
    opposite normalization.
    """
    # drop the unique all-boundary-arc face: the outside of the disk
    inside = []
    for w in m.face_walks:
        if all(m.is_boundary_dart(d) for d in w):
            continue
        inside.append(w)

    kinds = []
    for w in inside:
        if any(m.is_boundary_dart(d) for d in w):
            kinds.append(OUTER)
        else:
            kinds.append(REGION)
            # region walks stay clear of the boundary circle
            if any(m.is_endpoint_vertex(m.dart_vertex[d]) for d in w):
                raise DivideError("a region walk touches an endpoint")

    dart_face = [-1] * m.n_darts
    corner_face: dict = {}
    for fi, w in enumerate(inside):
        for d in w:
            dart_face[d] = fi
            t = twin(d)
            v = m.dart_vertex[t]
            pos = m.dart_pos[t]
            deg = len(m.rotations[v])
            corner_face[(v, (pos - 1) % deg)] = fi

    regions = sorted((fi for fi, k in enumerate(kinds) if k == REGION),
                     key=lambda fi: min(inside[fi]))

    # adjacency across divide segments only
    adj: list[set[int]] = [set() for _ in inside]
    for k in range(m.n_divide_edges):
        f1, f2 = dart_face[2 * k], dart_face[2 * k + 1]
        if f1 == f2:
            raise DivideError("2-coloring inconsistency: a segment has the "
                              "same face on both sides")
        adj[f1].add(f2)
        adj[f2].add(f1)

    if regions:
        seed = regions[0]
    else:
        # inside dart of the first boundary arc
        d = 2 * m.n_divide_edges
        seed = dart_face[d] if dart_face[d] != -1 else dart_face[twin(d)]

    signs = [0] * len(inside)
    order = [seed] + [fi for fi in range(len(inside)) if fi != seed]
    for start in order:
        if signs[start] != 0:
            continue
        signs[start] = MINUS
        queue = [start]
        while queue:
            fi = queue.pop(0)
            for fj in sorted(adj[fi]):
                if signs[fj] == 0:
                    signs[fj] = -signs[fi]
                    queue.append(fj)
                elif signs[fj] != -signs[fi]:
                    raise DivideError("2-coloring inconsistency across a "
                                      "divide segment")
    faces = tuple([
        Face(index=fi, darts=w, kind=kinds[fi], sign=signs[fi])
        for fi, w in enumerate(inside)
    ])
    return Faces(faces=faces, dart_face=tuple(dart_face),
                 corner_face=corner_face, regions=tuple(regions))


def segment_faces(m: DivideMap, faces: Faces, k: int) -> tuple[int, int]:
    """Face indices on the two sides of divide edge k."""
    return faces.dart_face[2 * k], faces.dart_face[2 * k + 1]


def walk_vertices(m: DivideMap, face: Face) -> list[int]:
    """Vertices visited by a face walk, one entry per corner."""
    return [m.dart_vertex[d] for d in face.darts]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivideStats:
    r: int
    delta: int
    region_count: int
    connected: bool
    cellular: bool
    simple: bool
    regions_vertex_simple: bool     # no region walk visits a vertex twice


def classify(m: DivideMap, faces: Faces) -> DivideStats:
    """Connectedness, cellularity and simplicity of a divide.

    Without the boundary arcs every Outer face joins the unbounded face,
    so the divide graph (2r + delta vertices, r + 2 delta edges) has
    regions + 1 faces and, by Euler's formula, r - delta + regions
    components:

    * connected: one component, i.e. ``mu = delta + regions`` equals
      ``2 delta - r + 1``;
    * cellular: connected and ``regions_vertex_simple``, i.e. no region
      walk visits a vertex twice (a repeat pinches the region closure,
      making it non-contractible);
    * simple: connected with at least one double point, and no segment
      admits an embedded arc through its interior splitting the double
      points into two non-empty sets.  Such an arc must run to the
      boundary on both sides, so only segments with two Outer sides
      qualify.  Such a segment has the unbounded face on both sides, so
      cutting it leaves each end on its own side, and an endpoint's side
      holds no double point: the split is non-trivial exactly when both
      ends are double points.
    """
    connected = faces.region_count() == m.delta - m.r + 1

    walks = (walk_vertices(m, faces.faces[fi]) for fi in faces.regions)
    vertex_simple = all(len(set(w)) == len(w) for w in walks)
    cellular = connected and vertex_simple

    def splits(k):
        f1, f2 = segment_faces(m, faces, k)
        (a, _), (b, _) = m.edges[k]
        return (faces.faces[f1].kind == faces.faces[f2].kind == OUTER
                and not m.is_endpoint_vertex(a)
                and not m.is_endpoint_vertex(b))

    simple = (connected and m.delta >= 1
              and not any(splits(k) for k in range(m.n_divide_edges)))

    return DivideStats(
        r=m.r,
        delta=m.delta,
        region_count=faces.region_count(),
        connected=connected,
        cellular=cellular,
        simple=simple,
        regions_vertex_simple=vertex_simple,
    )
