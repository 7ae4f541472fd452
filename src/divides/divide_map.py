"""Combinatorial planar maps of divides.

A divide is a collection of immersed arcs in the unit disk: endpoints on
the boundary circle, interior intersections are transversal double points.
We encode one as a rotation system: endpoints expose a single attachment
slot, double points expose four slots in counterclockwise order, and every
slot is used by exactly one edge.  The two builders only fill the slots:
``map_from_document`` puts each dart of a document in its slot as it reads
it, and ``map_from_walks`` does the same from integer branch walks, which
is how the generators hand over their divides.  Both end in ``_finish``,
which reads everything else off the filled rotations.  The *augmented*
map adds the boundary arcs between cyclically consecutive endpoints;
tracing its faces both certifies that the rotation system embeds in the
disk (Euler count) and yields the complement components needed
downstream.

Dart conventions used throughout the package:

* edge ``k`` owns darts ``2k`` (its ``a`` end) and ``2k + 1`` (its ``b``
  end); boundary arcs are appended after the divide edges, so a dart is a
  boundary dart iff ``d >= 2 * map.n_divide_edges``;
* the twin of dart ``d`` is ``d ^ 1``;
* rotations are stored counterclockwise.  Face walks step from a dart to
  its twin and then to the next dart *clockwise* at the twin's vertex,
  which makes every augmented-map face appear exactly once;
* the corner between rotation positions ``i`` and ``i + 1`` (ccw) at
  vertex ``v`` belongs to the face whose walk holds ``rotations[v][i]``:
  a walk turns into that dart out of the corner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

MINUS = -1
PLUS = 1


class DivideError(Exception):
    """A document or map violates a divide invariant."""


def need_int(who: str, name: str, x, least: int | None = None) -> None:
    """DivideError unless ``type(x) is int`` (no bool or float) and, when
    ``least`` is given, x >= least."""
    if type(x) is not int or (least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise DivideError(f"{who} needs an int {name}{bound}, got {x!r}")


class lazy:
    """``functools.cached_property`` without the lock it takes on Python
    3.11: built on first read and kept in the instance ``__dict__``."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.fn(obj))


# ---------------------------------------------------------------------------
# the map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivideMap:
    """Validated divide as a combinatorial map, plus its augmented rotation.

    ``endpoints`` are labels in counterclockwise order along the disk
    boundary; vertex ids 0..2r-1 follow that order and crossings continue
    at 2r..2r+delta-1 in input order.  Divide edge k is the dart pair
    2k, 2k + 1, its ends read off ``dart_vertex`` and ``dart_pos``.
    """

    endpoints: tuple[str, ...]
    crossings: tuple[str, ...]
    rotations: tuple[tuple[int, ...], ...]   # per vertex, darts ccw
    dart_vertex: tuple[int, ...]             # dart -> vertex id
    dart_pos: tuple[int, ...]                # dart -> index in its rotation
    # every face of the augmented map as its dart walk, and dart -> walk
    # index, traced once while validating; determined by the rotations
    face_walks: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    dart_walk: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def r(self) -> int:
        return len(self.endpoints) // 2

    @property
    def delta(self) -> int:
        return len(self.crossings)

    @property
    def n_divide_edges(self) -> int:
        return len(self.dart_vertex) // 2 - len(self.endpoints)

    @property
    def n_darts(self) -> int:
        return len(self.dart_vertex)

    def to_document(self) -> dict:
        """Emit the divide-map/1 document for this map (canonical labels)."""
        labels = self.endpoints + self.crossings
        n_end = len(self.endpoints)
        n_divide_darts = 2 * self.n_divide_edges
        # dart d leaves its vertex by slot dart_pos[d], or 0 at an endpoint
        ends = [[labels[v], s if v >= n_end else 0]
                for v, s in zip(self.dart_vertex[:n_divide_darts],
                                self.dart_pos[:n_divide_darts])]
        return {
            "format": "divide-map/1",
            "endpoints": list(self.endpoints),
            "crossings": list(self.crossings),
            "edges": [{"a": a, "b": b} for a, b in zip(ends[::2], ends[1::2])],
        }


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
    """Validate a divide-map/1 document and build its augmented map.

    One pass over the edges puts dart ``2k`` (the ``a`` end of edge ``k``)
    and ``2k + 1`` (its ``b`` end) in their slots, slot ``s`` of a
    crossing or an endpoint's one slot; ``_finish`` builds the rest.  Of
    several faults the first raised is the first in this order: document
    shape and labels; each edge in turn (shape, attachment, slot); unused
    slots by vertex; closed branches; planarity.
    """
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
    rotations = _empty_slots(n_end, len(crossings))
    d = 0              # the dart each attachment puts in its slot
    for e in edges:
        if not isinstance(e, dict) or "a" not in e or "b" not in e:
            raise DivideError(f"malformed document: bad edge {e!r}")
        for pair in (e["a"], e["b"]):
            # type() rather than isinstance(): JSON true is not slot 1
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[0], str)
                    or (v := index.get(pair[0])) is None
                    or type(pair[1]) is not int):
                raise DivideError(f"malformed document: bad attachment {pair!r}")
            lab, s = pair
            rot = rotations[v]
            if v < n_end:
                if s != 0:
                    raise DivideError(
                        f"endpoint {lab!r} only exposes slot 0, got {s}")
                if rot[0] is not None:
                    raise DivideError(f"slot reuse at endpoint {lab!r}")
            else:
                if not 0 <= s <= 3:
                    raise DivideError(
                        f"crossing {lab!r} slot {s} out of range 0..3")
                if rot[s] is not None:
                    raise DivideError(
                        f"slot reuse at crossing {lab!r} slot {s}")
            rot[s] = d
            d += 1
    return _finish(endpoints, crossings, rotations, d)


def map_from_walks(endpoints, crossings, branches) -> DivideMap:
    """Build the augmented map of a divide given as integer branch walks.

    ``endpoints`` and ``crossings`` are the labels, taken as given.  A
    branch is (start, visits, end), its ends endpoint indices and each
    visit a (crossing index, in slot, out slot); edges are numbered in walk
    order, so dart ``2k`` is the ``a`` end of edge ``k``, as in the
    document with one edge per step of each walk.  The darts go in their
    slots in that order, with the checks and messages of
    ``map_from_document``, and an index or slot out of range is a
    DivideError too; ``_finish`` builds the rest.
    """
    n_end = len(endpoints)
    n_cross = len(crossings)
    rotations = _empty_slots(n_end, n_cross)

    def at_endpoint(j, d):
        if not 0 <= j < n_end:
            raise DivideError(f"endpoint index {j!r} out of range")
        rot = rotations[j]
        if rot[0] is not None:
            raise DivideError(f"slot reuse at endpoint {endpoints[j]!r}")
        rot[0] = d

    d = 0              # the dart each step puts in its slot
    for start, visits, end in branches:
        at_endpoint(start, d)
        for c, s_in, s_out in visits:
            if not 0 <= c < n_cross:
                raise DivideError(f"crossing index {c!r} out of range")
            rot = rotations[n_end + c]
            for s in (s_in, s_out):
                d += 1
                if not 0 <= s <= 3:
                    raise DivideError(f"crossing {crossings[c]!r} slot {s} "
                                      "out of range 0..3")
                if rot[s] is not None:
                    raise DivideError(
                        f"slot reuse at crossing {crossings[c]!r} slot {s}")
                rot[s] = d
        d += 1
        at_endpoint(end, d)
        d += 1
    return _finish(endpoints, crossings, rotations, d)


def _empty_slots(n_end: int, n_cross: int) -> list[list]:
    """The rotations of a map with every slot empty (None): one slot per
    endpoint and four per crossing, as in the divide-map/1 format."""
    if n_end % 2 != 0 or n_end < 2:
        raise DivideError(
            f"odd endpoint count: {n_end} endpoints (need an even "
            "number, at least 2)")
    return ([[None] for _ in range(n_end)]
            + [[None] * 4 for _ in range(n_cross)])


def _finish(endpoints, crossings, rotations, placed: int) -> DivideMap:
    """The map once ``placed`` darts sit in distinct slots of
    ``rotations``, with its boundary arcs, dart tables and faces, after the
    checks that need the whole map: unused slots by vertex, closed
    branches, then planarity."""
    n_end = len(endpoints)
    # the darts sit in distinct slots: none is unused iff placed is the count
    if placed != n_end + 4 * len(crossings):
        labels = [*endpoints, *crossings]
        v = next(v for v, rot in enumerate(rotations) if None in rot)
        raise DivideError(
            f"unused slot at endpoint {labels[v]!r}" if v < n_end else
            f"unused slot at crossing {labels[v]!r} slot "
            f"{rotations[v].index(None)}")
    # One pass over the rotations.  Arc j is darts placed + 2j at endpoint
    # j and its twin at j + 1; ccw from inside the disk an endpoint holds
    # arc out, divide dart, arc in.  A face walk steps from d to the dart
    # clockwise of d ^ 1 at its vertex.
    n_darts = placed + 2 * n_end
    step = [0] * n_darts
    dart_vertex = [0] * n_darts
    dart_pos = [0] * n_darts
    arc_in = n_darts - 1           # at endpoint 0: the last arc's twin
    for j in range(n_end):
        x, = rotations[j]
        arc_out = placed + 2 * j
        rotations[j] = (arc_out, x, arc_in)
        step[arc_out ^ 1] = arc_in
        step[x ^ 1] = arc_out
        step[arc_in ^ 1] = x
        dart_vertex[arc_out] = dart_vertex[x] = dart_vertex[arc_in] = j
        dart_pos[x] = 1
        dart_pos[arc_in] = 2
        arc_in = arc_out + 1
    for v in range(n_end, len(rotations)):
        a, b, c, d = rotations[v]
        rotations[v] = (a, b, c, d)
        step[a ^ 1] = d
        step[b ^ 1] = a
        step[c ^ 1] = b
        step[d ^ 1] = c
        dart_vertex[a] = dart_vertex[b] = dart_vertex[c] = dart_vertex[d] = v
        dart_pos[b] = 1
        dart_pos[c] = 2
        dart_pos[d] = 3

    face_walks, dart_walk = _trace_all_faces(step)
    m = DivideMap(
        endpoints=tuple(endpoints),
        crossings=tuple(crossings),
        rotations=tuple(rotations),
        dart_vertex=tuple(dart_vertex),
        dart_pos=tuple(dart_pos),
        face_walks=face_walks,
        dart_walk=dart_walk,
    )
    trace_branches(m)          # rejects closed components
    _check_planarity(m)        # Euler count + unique all-arc face
    return m


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
    rotations, dart_vertex, dart_pos = m.rotations, m.dart_vertex, m.dart_pos
    reached = [False] * n_end       # the far endpoint of a traced branch
    walked = 0                      # no edge lies on two branches
    branches = []
    for j in range(n_end):
        if reached[j]:
            continue
        walk = []
        d = rotations[j][1]             # the endpoint's divide dart
        while True:
            walk.append(d)
            t = d ^ 1
            v = dart_vertex[t]
            if v < n_end:
                break
            d = rotations[v][dart_pos[t] ^ 2]
        reached[v] = True
        walked += len(walk)
        branches.append(tuple(walk))
    if walked != m.n_divide_edges:
        raise DivideError("closed branch detected (circular component)")
    if len(branches) != m.r:
        raise DivideError(f"{len(branches)} branches traced, expected {m.r}")
    return branches


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def _trace_all_faces(step: list[int]) -> tuple:
    """All faces of the augmented map as dart walks, and dart -> walk index.

    ``step[d]`` is the dart after ``d`` on its face walk.  Every walk
    starts at its smallest dart, and walks come in the order of those darts.
    """
    dart_walk = [None] * len(step)
    walks = []
    for d0 in range(len(step)):
        if dart_walk[d0] is not None:
            continue
        fi = len(walks)
        walk = []
        d = d0
        while dart_walk[d] is None:
            dart_walk[d] = fi
            walk.append(d)
            d = step[d]
        walks.append(tuple(walk))
    return tuple(walks), tuple(dart_walk)


def _check_planarity(m: DivideMap) -> None:
    n_vertices = len(m.endpoints) + len(m.crossings)
    n_edges = m.n_divide_edges + len(m.endpoints)   # divide edges + arcs
    euler = n_vertices - n_edges + len(m.face_walks)
    if euler != 2:
        raise DivideError(
            f"planarity failure (Euler check {euler} != 2): the rotation "
            "system does not embed in the disk")
    boundary = 2 * m.n_divide_edges      # the first boundary-arc dart
    # a walk starts at its smallest dart, so w[0] is min(w)
    all_arc = sum(1 for w in m.face_walks if w[0] >= boundary)
    if all_arc != 1:
        raise DivideError(
            f"expected exactly one all-boundary-arc face, found {all_arc}")


@dataclass(frozen=True)
class Faces:
    """All inside-disk faces of a divide, signed.

    Face fi is the walk ``m.face_walks[fi]`` and its sign is ``signs[fi]``;
    the face of dart d is ``m.dart_walk[d]``.  The inside faces are
    ``m.face_walks[:-1]``: walks come in order of their smallest dart,
    divide darts are numbered below boundary-arc darts, and every walk but
    the one all-arc walk (the outside of the disk, unique by the planarity
    check) holds a divide dart, so that walk is the last, index
    ``len(signs)``.  The face in the corner between rotation positions i
    and i+1 (ccw) at vertex v is ``m.dart_walk[m.rotations[v][i]]``; for a
    crossing that is exactly the sector between slots i and (i+1) mod 4.
    ``regions`` lists the faces whose walk holds no boundary-arc dart, in
    face index order; the other inside faces are Outer.
    """
    signs: tuple[int, ...]                   # face index -> MINUS or PLUS
    regions: tuple[int, ...]

    def flipped(self) -> "Faces":
        """The same faces under the reversed sign normalization."""
        return Faces(signs=tuple([-s for s in self.signs]),
                     regions=self.regions)

    def region_count(self) -> int:
        return len(self.regions)


def compute_faces(m: DivideMap) -> Faces:
    """Classify and 2-color the inside-disk faces, from ``m.face_walks``
    and ``m.dart_walk``; the faces keep no dart table of their own.

    Signs come from breadth-first 2-coloring of face adjacency across
    divide segments, normalized so that the face holding the lowest
    numbered dart of any region (or, with no regions, the inside face of
    the first boundary arc) is Minus.  ``Faces.flipped`` gives the
    opposite normalization.
    """
    boundary = 2 * m.n_divide_edges      # the first boundary-arc dart
    dart_walk = m.dart_walk
    # the last walk is the outside of the disk (see Faces); of the rest, a
    # face with no boundary-arc dart is a region
    inside = m.face_walks[:-1]
    outside = len(inside)
    outer = set(dart_walk[boundary:])
    regions = tuple([fi for fi in range(len(inside)) if fi not in outer])

    # region walks stay clear of the boundary circle
    if any(dart_walk[m.rotations[j][1]] not in outer
           for j in range(len(m.endpoints))):
        raise DivideError("a region walk touches an endpoint")

    # segment k has dart 2k on one side and 2k + 1 on the other
    for f1, f2 in zip(dart_walk[0:boundary:2], dart_walk[1:boundary:2]):
        if f1 == f2:
            raise DivideError("2-coloring inconsistency: a segment has the "
                              "same face on both sides")

    if regions:
        seed = regions[0]
    else:
        # inside dart of the first boundary arc
        d = boundary
        seed = dart_walk[d] if dart_walk[d] != outside else dart_walk[d ^ 1]

    signs = [0] * len(inside)
    for start in (seed, *range(len(inside))):
        if signs[start] != 0:
            continue
        signs[start] = MINUS
        queue = [start]
        for fi in queue:                 # the queue grows while it is read
            opposite = -signs[fi]
            # across each divide segment on the walk of fi
            for d in inside[fi]:
                if d >= boundary:
                    continue
                fj = dart_walk[d ^ 1]
                if signs[fj] == 0:
                    signs[fj] = opposite
                    queue.append(fj)
                elif signs[fj] != opposite:
                    raise DivideError("2-coloring inconsistency across a "
                                      "divide segment")
    return Faces(signs=tuple(signs), regions=regions)


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
    regions_vertex_simple: bool     # no region has two sectors at a vertex


def classify(m: DivideMap, faces: Faces) -> DivideStats:
    """Connectedness, cellularity and simplicity of a divide.

    Without the boundary arcs every Outer face joins the unbounded face,
    so the divide graph (2r + delta vertices, r + 2 delta edges) has
    regions + 1 faces and, by Euler's formula, r - delta + regions
    components:

    * connected: one component, i.e. ``mu = delta + regions`` equals
      ``2 delta - r + 1``;
    * cellular: connected and ``regions_vertex_simple``, i.e. no region
      holds two sectors at one double point (such a pair pinches the
      region closure, making it non-contractible).  It is tested once per
      double point: the two corners beside a segment are its two sides,
      which differ, so only opposite corners (slots 0 and 2, or 1 and 3)
      can share a face, and no region has a corner at an endpoint
      (``compute_faces`` enforces both);
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

    n_end = len(m.endpoints)
    region = set(faces.regions)
    dart_walk, dart_vertex = m.dart_walk, m.dart_vertex
    # the corner after slot i at a crossing lies in face dart_walk[rot[i]]
    vertex_simple = not any(
        dart_walk[a] == dart_walk[c] and dart_walk[a] in region
        or dart_walk[b] == dart_walk[d] and dart_walk[b] in region
        for a, b, c, d in m.rotations[n_end:])
    cellular = connected and vertex_simple

    # segment k joins the vertices of darts 2k and 2k + 1
    splits = (dart_walk[d] not in region and dart_walk[d + 1] not in region
              and dart_vertex[d] >= n_end and dart_vertex[d + 1] >= n_end
              for d in range(0, 2 * m.n_divide_edges, 2))
    simple = connected and m.delta >= 1 and not any(splits)

    return DivideStats(
        r=m.r,
        delta=m.delta,
        region_count=faces.region_count(),
        connected=connected,
        cellular=cellular,
        simple=simple,
        regions_vertex_simple=vertex_simple,
    )
