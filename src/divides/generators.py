"""Divide generators: random chord arrangements, families, fixtures.

Every generated divide is a list of integer branch walks, which
``divide_map.map_from_walks`` builds into its map with no document in
between: a branch runs from one boundary endpoint to another, visiting
crossings on the way, each visit a (crossing, in slot, out slot) and each
end an endpoint index.  A chord is one branch, ``zigzag`` two and ``coil``
one.  The named fixtures are packaged files, ``fixtures/<name in lower
case>.json``.

A circle parameter t = a/b stands for the point of the unit circle with
homogeneous integer coordinates (b^2 - a^2, 2ab, a^2 + b^2), the tangent
half-angle parameterization; t = infinity is (-1, 0, 1).  Sorting the
parameters gives each endpoint an integer rank around the circle.  A
chord's line is the cross product of its endpoints and a crossing the
cross product of two lines, so every predicate (interleaving, crossing
order along a chord, the orientation at a crossing, concurrency) is a
comparison of integer ranks or the sign of an integer determinant, with
no Fraction and no epsilon anywhere: a single wrong sign would silently
corrupt every downstream integer identity.  A parameter is held as the
reduced integer pair (a, b), b > 0, and the circular order compares two
of them by the sign of a cross product, so that too stays on integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cmp_to_key
from importlib import resources

from .divide_map import DivideError, DivideMap, lazy, map_from_walks, \
    need_int, parse_divide, parse_json

# circle parameter: t = a/b as the reduced pair (a, b) with b > 0, or None
# for the point (-1, 0)
Param = tuple[int, int] | None

_GRID = 10_000                 # parameter grid: u/(GRID - |u|), u in (-GRID, GRID]
_RESAMPLE_BUDGET = 100_000


def _cmp_circular(s: Param, t: Param) -> int:
    """Negative, zero or positive as s comes before, at or after t ccw."""
    # infinity sits at angle pi == -pi, so it comes first going ccw
    if s is None or t is None:
        return (t is None) - (s is None)
    return s[0] * t[1] - t[0] * s[1]


_by_circle = cmp_to_key(_cmp_circular)


def _check_param(t) -> None:
    """DivideError unless t is None or a reduced int pair (a, b), b > 0.

    The order and the points read a pair as a/b without checking it, so a
    pair with b < 0 would sit at the wrong place on the circle.
    """
    if t is None or (type(t) is tuple and len(t) == 2
                     and type(t[0]) is int and type(t[1]) is int
                     and t[1] > 0 and math.gcd(*t) == 1):
        return
    raise DivideError(f"bad circle parameter {t!r}: expected None or a "
                      "reduced pair (a, b) of ints with b > 0")


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

    @lazy
    def arrangement(self) -> _Arrangement:
        """The set's exact geometry, built on first read and kept, or
        DivideError if it is not generic."""
        return _arrangement(self.chords)


def interleaved(a: Chord, b: Chord) -> bool:
    """Whether the two chords cross, by endpoint interleaving on the circle."""
    lo, hi = (a.s, a.t) if _cmp_circular(a.s, a.t) < 0 else (a.t, a.s)
    inside_b1 = _cmp_circular(lo, b.s) < 0 < _cmp_circular(hi, b.s)
    inside_b2 = _cmp_circular(lo, b.t) < 0 < _cmp_circular(hi, b.t)
    return inside_b1 != inside_b2


def crossing_count(cs: ChordSet) -> int:
    """Brute-force count of interleaved chord pairs (the oracle for delta)."""
    n = len(cs.chords)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if interleaved(cs.chords[i], cs.chords[j]))


# ---------------------------------------------------------------------------
# the chord-arrangement kernel
# ---------------------------------------------------------------------------

def _point(t: Param) -> tuple[int, int, int]:
    if t is None:
        return (-1, 0, 1)
    a, b = t
    return (b * b - a * a, 2 * a * b, a * a + b * b)


def _cross(p, q) -> tuple[int, int, int]:
    return (p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _cmp_place(a, b) -> int:
    # places num / den on one chord, den > 0, compared without dividing
    return a[0] * b[1] - b[0] * a[1]


@dataclass(frozen=True)
class _Arrangement:
    """A generic chord set's crossings, each computed once.

    Chord i has endpoints ``ends[i]`` (homogeneous points of s and t) at
    places ``rank[2i]``, ``rank[2i + 1]`` of the ccw circular order.
    ``pairs`` lists the crossing chord pairs (i, j), i < j, in
    lexicographic order, with the crossing point ``points[k]`` (w > 0) and
    ``signs[k]``, the sign of the determinant of the two chord directions:
    +1 when chord j crosses chord i from right to left.  ``along[i]``
    lists chord i's crossings (indices into ``pairs``) from s to t.
    """
    ends: list
    rank: list
    pairs: list
    points: list
    signs: list
    along: list


def _arrangement(chords) -> _Arrangement:
    """The exact geometry of a chord set, or DivideError if not generic.

    Generic means that no two endpoints coincide and no three chords pass
    through one point, i.e. no chord carries two crossings at one place.
    Each parameter must be None or a reduced pair (see ``_check_param``).
    """
    n = len(chords)
    params = [t for c in chords for t in c.params()]
    for t in params:
        _check_param(t)
    keys = [_by_circle(t) for t in params]
    order = sorted(range(2 * n), key=keys.__getitem__)
    if any(keys[a] == keys[b] for a, b in zip(order, order[1:])):
        raise DivideError("general-position violation: duplicate circle "
                          "parameter")
    rank = [0] * (2 * n)
    for r, e in enumerate(order):
        rank[e] = r
    ends = [(_point(c.s), _point(c.t)) for c in chords]
    lines = [_cross(p, q) for p, q in ends]

    pairs, points, signs = [], [], []
    along = [[] for _ in range(n)]
    for i in range(n):
        lo, hi = sorted(rank[2 * i:2 * i + 2])
        for j in range(i + 1, n):
            if (lo < rank[2 * j] < hi) == (lo < rank[2 * j + 1] < hi):
                continue
            # w of line i x line j is the determinant of the directions
            x, y, w = _cross(lines[i], lines[j])
            if w == 0:
                raise DivideError(
                    "general-position violation: parallel chords meet")
            along[i].append(len(pairs))
            along[j].append(len(pairs))
            pairs.append((i, j))
            signs.append(1 if w > 0 else -1)
            points.append((x, y, w) if w > 0 else (-x, -y, -w))

    by_place = cmp_to_key(_cmp_place)
    for c, (l1, l2, _) in enumerate(lines):
        # chord c runs along (l2, -l1): its crossing (x, y, w) sits at
        # (x l2 - y l1) / w, increasing from s to t
        place = {}
        for k in along[c]:
            x, y, w = points[k]
            place[k] = (x * l2 - y * l1, w)
        along[c].sort(key=lambda k: by_place(place[k]))
        if any(_cmp_place(place[a], place[b]) == 0
               for a, b in zip(along[c], along[c][1:])):
            raise DivideError(
                "general-position violation: three chords concurrent")
    return _Arrangement(ends=ends, rank=rank, pairs=pairs, points=points,
                        signs=signs, along=along)


def _grid_param(u: int) -> Param:
    # u in (-GRID, GRID]; u = GRID is the point (-1, 0).  The map
    # u / (GRID - |u|) keeps denominators <= GRID and spreads the grid
    # nearly uniformly in angle (density ratio at most 2).
    if u == _GRID:
        return None
    den = _GRID - abs(u)
    g = math.gcd(u, den)
    return (u // g, den // g)


def gen_chords(n: int, seed: int) -> ChordSet:
    """Deterministic random chord set in general position.

    Samples 2n parameters from a fixed rational grid with denominators at
    most 10^4 and resamples the whole set on any violation (exact sign
    tests only).  The rejection count is recorded on the result.  The seed
    is at least 0: ``random.Random`` seeds with |seed|, so -s would give
    the set of s.
    """
    need_int("gen_chords", "n", n, 1)
    need_int("gen_chords", "seed", seed, 0)
    rng = random.Random(seed)
    for attempt in range(_RESAMPLE_BUDGET):
        params = [_grid_param(rng.randint(-_GRID + 1, _GRID))
                  for _ in range(2 * n)]
        cs = ChordSet(tuple(Chord(params[2 * i], params[2 * i + 1])
                            for i in range(n)), rejections=attempt)
        try:
            cs.arrangement
        except DivideError:
            continue
        return cs
    raise DivideError("resample budget exhausted while seeking general position")


def from_chords(cs: ChordSet) -> DivideMap:
    """Build the combinatorial map of a chord arrangement, exactly.

    Each chord is one branch from s to t: endpoints labeled in ccw order,
    crossings by lexicographic pair.  Slots at a crossing run ccw from the
    forward direction of the lower-indexed chord, so that chord passes
    2 -> 0, and the other 3 -> 1 when it crosses from right to left, else
    1 -> 3.  The kernel gives the order and the sides, and
    ``map_from_walks`` builds and validates the map from those walks, with
    no document in between.
    """
    arr = cs.arrangement
    pairs, rank = arr.pairs, arr.rank
    visits = [((k, 2, 0), (k, 3, 1) if sign > 0 else (k, 1, 3))
              for k, sign in enumerate(arr.signs)]
    return map_from_walks(
        [f"e{r}" for r in range(1, len(rank) + 1)],
        [f"c{k}" for k in range(1, len(pairs) + 1)],
        [(rank[2 * c], [visits[k][c != pairs[k][0]] for k in ks],
          rank[2 * c + 1]) for c, ks in enumerate(arr.along)])


def chords_to_map_document(cs: ChordSet) -> dict:
    """The divide-map/1 document of ``from_chords(cs)``."""
    return from_chords(cs).to_document()


# ---------------------------------------------------------------------------
# chord documents
# ---------------------------------------------------------------------------

def _param_to_json(t: Param):
    return "inf" if t is None else list(t)


def _param_from_json(v) -> Param:
    if v == "inf":
        return None
    if (isinstance(v, list) and len(v) == 2
            and all(type(x) is int for x in v) and v[1] != 0):
        a, b = v
        g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
        return (a // g, b // g)
    raise DivideError(f"malformed document: bad circle parameter {v!r}")


def chords_document(cs: ChordSet) -> dict:
    return {
        "format": "divide-chords/1",
        "chords": [{"s": _param_to_json(c.s), "t": _param_to_json(c.t)}
                   for c in cs.chords],
    }


def parse_chords(text: str) -> ChordSet:
    """Parse a divide-chords/1 document and re-check general position."""
    return chords_from_document(parse_json(text))


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
    cs = ChordSet(chords=tuple(chords))
    cs.arrangement          # general position is checked at parse
    return cs


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------

def zigzag(n: int) -> DivideMap:
    """Base chord crossed n times by a wiggle: simple and cellular.

    delta = n, regions = n - 1, mu = 2n - 1.  The base E1 -> E2 passes
    each crossing by slots 2 -> 0; the wiggle W1 -> W2 starts above it and
    alternates sides (1 -> 3 at odd crossings, 3 -> 1 at even ones).  The
    diagram comes out a path, so the Lefschetz number vanishes.
    """
    need_int("zigzag", "n", n, 1)
    ends = ["E2", "W1", "E1", "W2"] if n % 2 else ["E2", "W2", "W1", "E1"]
    e1, e2, w1, w2 = map(ends.index, ("E1", "E2", "W1", "W2"))
    return map_from_walks(
        ends, [f"x{i}" for i in range(1, n + 1)],
        [(e1, [(x, 2, 0) for x in range(n)], e2),
         (w1, [(x, 3, 1) if x % 2 else (x, 1, 3) for x in range(n)], w2)])


def coil(k: int) -> DivideMap:
    """One branch making k consecutive disjoint curls.

    The branch runs A -> B and passes each crossing twice, by slots
    0 -> 1 and then 2 -> 3.  delta = k, regions = k, mu = 2k; simple only
    for k = 1, and the Lefschetz number is 1 - k.
    """
    need_int("coil", "k", k, 1)
    return map_from_walks(
        ["A", "B"], [f"y{i}" for i in range(1, k + 1)],
        [(0, [v for y in range(k) for v in ((y, 0, 1), (y, 2, 3))], 1)])


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

_FIXTURES = ("LENS", "LOOP", "X1", "FIG1", "FIG2A", "FIG2B")


def fixture_names() -> list[str]:
    return list(_FIXTURES)


def fixture(name: str) -> DivideMap:
    """One named fixture map, loaded from its packaged file
    ``fixtures/<name in lower case>.json``."""
    if name not in _FIXTURES:
        raise DivideError(f"unknown fixture {name!r}")
    try:
        text = resources.files("divides").joinpath(
            "fixtures", f"{name.lower()}.json").read_text(encoding="utf-8")
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise DivideError(f"missing fixture file for {name}: {exc}") from None
    return parse_divide(text)


def fixtures() -> dict[str, DivideMap]:
    """All named fixtures, in the order of ``fixture_names``."""
    return {name: fixture(name) for name in fixture_names()}
