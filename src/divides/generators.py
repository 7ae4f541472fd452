"""Divide generators: random chord arrangements, families, fixtures.

Chords live on the rational unit circle via the tangent half-angle
parameterization t -> ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)); the point
(-1, 0) gets the parameter infinity.  Keeping every coordinate a Fraction
makes all incidence predicates exact, with no epsilon anywhere: a single
wrong sign would silently corrupt every downstream integer identity.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .divide_map import DivideError, DivideMap, map_from_document

# circle parameter: a Fraction, or None for the point (-1, 0)
Param = Fraction | None

_GRID = 10_000                 # parameter grid: u/(GRID - |u|), u in (-GRID, GRID]
_RESAMPLE_BUDGET = 100_000


def circle_point(t: Param) -> tuple[Fraction, Fraction]:
    if t is None:
        return Fraction(-1), Fraction(0)
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def _circular_key(t: Param):
    # infinity sits at angle pi == -pi, so it comes first going ccw
    return (0, Fraction(0)) if t is None else (1, t)


@dataclass(frozen=True)
class Chord:
    s: Param
    t: Param

    def params(self) -> tuple[Param, Param]:
        return (self.s, self.t)


@dataclass(frozen=True)
class ChordSet:
    chords: tuple[Chord, ...]
    rejections: int = 0      # resamples it took gen_chords to get here


def interleaved(a: Chord, b: Chord) -> bool:
    """Whether the two chords cross, by endpoint interleaving on the circle."""
    k1, k2 = sorted((_circular_key(a.s), _circular_key(a.t)))
    inside_b1 = k1 < _circular_key(b.s) < k2
    inside_b2 = k1 < _circular_key(b.t) < k2
    return inside_b1 != inside_b2


def crossing_count(cs: ChordSet) -> int:
    """Brute-force count of interleaved chord pairs (the oracle for delta)."""
    n = len(cs.chords)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if interleaved(cs.chords[i], cs.chords[j]))


def _intersection(a: Chord, b: Chord) -> tuple[Fraction, Fraction, Fraction]:
    """Intersection point of the two chord lines plus the parameter along a.

    Returns (x, y, u) with the point = P1 + u (P2 - P1) on chord a.
    Assumes the chords are not parallel (distinct circle chords that
    interleave never are).
    """
    p1 = circle_point(a.s)
    p2 = circle_point(a.t)
    q1 = circle_point(b.s)
    q2 = circle_point(b.t)
    da = (p2[0] - p1[0], p2[1] - p1[1])
    db = (q2[0] - q1[0], q2[1] - q1[1])
    denom = da[0] * db[1] - da[1] * db[0]
    if denom == 0:
        raise DivideError("general-position violation: parallel chords meet")
    rx, ry = q1[0] - p1[0], q1[1] - p1[1]
    u = (rx * db[1] - ry * db[0]) / denom
    return p1[0] + u * da[0], p1[1] + u * da[1], u


def _check_general_position(chords: list[Chord]) -> str | None:
    """None if the set is generic, else a description of the violation."""
    params = [t for c in chords for t in c.params()]
    keys = [_circular_key(t) for t in params]
    if len(set(keys)) != len(keys):
        return "duplicate circle parameter"
    pts = {}
    n = len(chords)
    for i in range(n):
        for j in range(i + 1, n):
            if interleaved(chords[i], chords[j]):
                x, y, _ = _intersection(chords[i], chords[j])
                pts[(i, j)] = (x, y)
    pairs = sorted(pts)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            i1, j1 = pairs[a]
            i2, j2 = pairs[b]
            if {i1, j1} & {i2, j2} and pts[pairs[a]] == pts[pairs[b]]:
                return "three chords concurrent"
    return None


def _grid_param(u: int) -> Param:
    # u in (-GRID, GRID]; u = GRID is the point (-1, 0).  The map
    # u / (GRID - |u|) keeps denominators <= GRID and spreads the grid
    # nearly uniformly in angle (density ratio at most 2).
    if u == _GRID:
        return None
    return Fraction(u, _GRID - abs(u))


def gen_chords(n: int, seed: int) -> ChordSet:
    """Deterministic random chord set in general position.

    Samples 2n parameters from a fixed rational grid with denominators at
    most 10^4 and resamples the whole set on any violation (exact sign
    tests only).  The rejection count is recorded on the result.
    """
    if n < 1:
        raise DivideError("need at least one chord")
    rng = random.Random(seed)
    for attempt in range(_RESAMPLE_BUDGET):
        params = [_grid_param(rng.randint(-_GRID + 1, _GRID))
                  for _ in range(2 * n)]
        chords = [Chord(params[2 * i], params[2 * i + 1]) for i in range(n)]
        if _check_general_position(chords) is None:
            return ChordSet(chords=tuple(chords), rejections=attempt)
    raise DivideError("resample budget exhausted while seeking general position")


def from_chords(cs: ChordSet) -> DivideMap:
    """Build the combinatorial map of a chord arrangement, exactly.

    Crossings are the pairwise intersections; each chord's crossings are
    ordered by the exact parameter along the chord, and the rotation at a
    crossing comes from the sign of the cross product of the two chord
    directions.  The result goes through full map validation.
    """
    violation = _check_general_position(list(cs.chords))
    if violation:
        raise DivideError(f"general-position violation: {violation}")
    return map_from_document(chords_to_map_document(cs))


def chords_to_map_document(cs: ChordSet) -> dict:
    chords = cs.chords
    n = len(chords)

    # endpoints in ccw circular order
    ends = []       # (key, chord index, which param)
    for i, c in enumerate(chords):
        ends.append((_circular_key(c.s), i, 0))
        ends.append((_circular_key(c.t), i, 1))
    ends.sort()
    endpoint_labels = [f"e{k + 1}" for k in range(2 * n)]
    endpoint_of = {(i, which): endpoint_labels[k]
                   for k, (_, i, which) in enumerate(ends)}

    # crossings, labeled by lexicographic chord pair
    crossings = []                      # (i, j) sorted
    crossing_label = {}
    along: dict[int, list] = {i: [] for i in range(n)}   # (u, pair) per chord
    for i in range(n):
        for j in range(i + 1, n):
            if not interleaved(chords[i], chords[j]):
                continue
            pair = (i, j)
            crossing_label[pair] = f"c{len(crossings) + 1}"
            crossings.append(pair)
            _, _, ui = _intersection(chords[i], chords[j])
            _, _, uj = _intersection(chords[j], chords[i])
            along[i].append((ui, pair))
            along[j].append((uj, pair))

    # slot layout at each crossing: ccw from the forward direction of the
    # lower-indexed chord
    slot_of: dict[tuple, dict] = {}
    for (i, j) in crossings:
        pi = circle_point(chords[i].s)
        qi = circle_point(chords[i].t)
        pj = circle_point(chords[j].s)
        qj = circle_point(chords[j].t)
        di = (qi[0] - pi[0], qi[1] - pi[1])
        dj = (qj[0] - pj[0], qj[1] - pj[1])
        cross = di[0] * dj[1] - di[1] * dj[0]
        if cross > 0:
            order = [(i, +1), (j, +1), (i, -1), (j, -1)]
        else:
            order = [(i, +1), (j, -1), (i, -1), (j, +1)]
        slot_of[(i, j)] = {key: s for s, key in enumerate(order)}

    edges = []
    for i in range(n):
        stations: list = [("end", (i, 0))]
        for u, pair in sorted(along[i], key=lambda t: t[0]):
            stations.append(("cross", pair))
        stations.append(("end", (i, 1)))
        for a, b in zip(stations, stations[1:]):
            att = []
            for station, direction in ((a, +1), (b, -1)):
                kind, ref = station
                if kind == "end":
                    att.append([endpoint_of[ref], 0])
                else:
                    att.append([crossing_label[ref],
                                slot_of[ref][(i, direction)]])
            edges.append({"a": att[0], "b": att[1]})

    return {
        "format": "divide-map/1",
        "endpoints": endpoint_labels,
        "crossings": [crossing_label[p] for p in crossings],
        "edges": edges,
    }


# ---------------------------------------------------------------------------
# chord documents
# ---------------------------------------------------------------------------

def _param_to_json(t: Param):
    return "inf" if t is None else [t.numerator, t.denominator]


def _param_from_json(v) -> Param:
    if v == "inf":
        return None
    if (isinstance(v, list) and len(v) == 2
            and all(type(x) is int for x in v) and v[1] != 0):
        return Fraction(v[0], v[1])
    raise DivideError(f"malformed document: bad circle parameter {v!r}")


def chords_document(cs: ChordSet) -> dict:
    return {
        "format": "divide-chords/1",
        "chords": [{"s": _param_to_json(c.s), "t": _param_to_json(c.t)}
                   for c in cs.chords],
    }


def parse_chords(text: str) -> ChordSet:
    """Parse a divide-chords/1 document and re-check general position."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DivideError(f"malformed document: {exc}") from None
    return chords_from_document(doc)


def chords_from_document(doc) -> ChordSet:
    if not isinstance(doc, dict) or doc.get("format") != "divide-chords/1":
        raise DivideError("malformed document: expected format 'divide-chords/1'")
    raw = doc.get("chords")
    if not isinstance(raw, list) or not raw:
        raise DivideError("malformed document: chords")
    chords = []
    for c in raw:
        if not isinstance(c, dict) or "s" not in c or "t" not in c:
            raise DivideError(f"malformed document: bad chord {c!r}")
        chords.append(Chord(_param_from_json(c["s"]), _param_from_json(c["t"])))
    violation = _check_general_position(chords)
    if violation:
        raise DivideError(f"general-position violation: {violation}")
    return ChordSet(chords=tuple(chords))


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------

def zigzag(n: int) -> DivideMap:
    """Base chord crossed n times by a wiggle: simple and cellular.

    delta = n, regions = n - 1, mu = 2n - 1.  The wiggle starts above the
    base, alternates sides at each crossing, and exits on the side its
    parity dictates; the diagram comes out a path, so the Lefschetz number
    vanishes.
    """
    if n < 1:
        raise DivideError("zigzag needs n >= 1")
    if n % 2 == 1:
        endpoints = ["E2", "W1", "E1", "W2"]
    else:
        endpoints = ["E2", "W2", "W1", "E1"]
    crossings = [f"x{i}" for i in range(1, n + 1)]

    def wf(i):      # wiggle forward slot leaving crossing i
        return 3 if i % 2 == 1 else 1

    def wb(i):      # wiggle backward slot entering crossing i
        return 1 if i % 2 == 1 else 3

    edges = [{"a": ["E1", 0], "b": ["x1", 2]}]
    for i in range(1, n):
        edges.append({"a": [f"x{i}", 0], "b": [f"x{i + 1}", 2]})
    edges.append({"a": [f"x{n}", 0], "b": ["E2", 0]})
    edges.append({"a": ["W1", 0], "b": ["x1", wb(1)]})
    for i in range(1, n):
        edges.append({"a": [f"x{i}", wf(i)], "b": [f"x{i + 1}", wb(i + 1)]})
    edges.append({"a": [f"x{n}", wf(n)], "b": ["W2", 0]})

    return map_from_document({
        "format": "divide-map/1",
        "endpoints": endpoints,
        "crossings": crossings,
        "edges": edges,
    })


def coil(k: int) -> DivideMap:
    """One branch making k consecutive disjoint curls.

    delta = k, regions = k, mu = 2k; simple only for k = 1, and the
    Lefschetz number is 1 - k.
    """
    if k < 1:
        raise DivideError("coil needs k >= 1")
    crossings = [f"y{i}" for i in range(1, k + 1)]
    edges = [{"a": ["A", 0], "b": ["y1", 0]}]
    for i in range(1, k + 1):
        edges.append({"a": [f"y{i}", 1], "b": [f"y{i}", 2]})
        if i < k:
            edges.append({"a": [f"y{i}", 3], "b": [f"y{i + 1}", 0]})
    edges.append({"a": [f"y{k}", 3], "b": ["B", 0]})
    return map_from_document({
        "format": "divide-map/1",
        "endpoints": ["A", "B"],
        "crossings": crossings,
        "edges": edges,
    })


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

_BUILTINS = {
    "X1": {
        "format": "divide-map/1",
        "endpoints": ["e1", "e2", "e3", "e4"],
        "crossings": ["c1"],
        "edges": [
            {"a": ["e1", 0], "b": ["c1", 0]},
            {"a": ["e2", 0], "b": ["c1", 1]},
            {"a": ["e3", 0], "b": ["c1", 2]},
            {"a": ["e4", 0], "b": ["c1", 3]},
        ],
    },
    "LOOP": {
        "format": "divide-map/1",
        "endpoints": ["e1", "e2"],
        "crossings": ["c1"],
        "edges": [
            {"a": ["e1", 0], "b": ["c1", 0]},
            {"a": ["c1", 1], "b": ["c1", 2]},
            {"a": ["c1", 3], "b": ["e2", 0]},
        ],
    },
    # two branches crossing twice, enclosing one lens-shaped region
    "LENS": {
        "format": "divide-map/1",
        "endpoints": ["e1", "e2", "e3", "e4"],
        "crossings": ["c1", "c2"],
        "edges": [
            {"a": ["e4", 0], "b": ["c1", 2]},
            {"a": ["c1", 0], "b": ["c2", 2]},
            {"a": ["c2", 0], "b": ["e1", 0]},
            {"a": ["e3", 0], "b": ["c1", 1]},
            {"a": ["c1", 3], "b": ["c2", 3]},
            {"a": ["c2", 1], "b": ["e2", 0]},
        ],
    },
}

_FIGURE_FILES = {"FIG1": "fig1.json", "FIG2A": "fig2a.json", "FIG2B": "fig2b.json"}


def fixture_names() -> list[str]:
    return sorted(_BUILTINS) + sorted(_FIGURE_FILES)


def fixture(name: str) -> DivideMap:
    """One named fixture map; figure fixtures load from packaged files."""
    if name in _BUILTINS:
        return map_from_document(_BUILTINS[name])
    if name in _FIGURE_FILES:
        try:
            text = (resources.files("divides") / "fixtures"
                    / _FIGURE_FILES[name]).read_text(encoding="utf-8")
        except (FileNotFoundError, ModuleNotFoundError) as exc:
            raise DivideError(
                f"missing transcription file for {name}: {exc}") from None
        return map_from_document(json.loads(text))
    raise DivideError(f"unknown fixture {name!r}")


def fixtures() -> dict[str, DivideMap]:
    """All named fixtures: the built-ins plus the figure transcriptions."""
    return {name: fixture(name) for name in fixture_names()}
