"""The Fraction chord geometry, kept as the oracle for the integer kernel.

These are the affine routines the library used before its chord geometry
moved to homogeneous integer coordinates: circle points as Fractions, one
intersection per call, and a general-position scan over all pairs of
crossings.  Slow, but simple enough to trust; the property tests compare
the kernel's verdicts and map documents against them.  A chord parameter
is the library's pair (a, b), read here as ``Fraction(a, b)``; the circle
order and the interleaving test are the oracle's own, on those Fractions.
"""

from fractions import Fraction

from divides import DivideError


def circular_key(t):
    # infinity sits at angle pi == -pi, so it comes first going ccw
    return (0, Fraction(0)) if t is None else (1, Fraction(*t))


def interleaved(a, b):
    k1, k2 = sorted((circular_key(a.s), circular_key(a.t)))
    return (k1 < circular_key(b.s) < k2) != (k1 < circular_key(b.t) < k2)


def circle_point(t):
    if t is None:
        return Fraction(-1), Fraction(0)
    t = Fraction(*t)
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def intersection(a, b):
    """Intersection point of the two chord lines plus the parameter along a.

    Returns (x, y, u) with the point = P1 + u (P2 - P1) on chord a.
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


def check_general_position(chords):
    """None if the set is generic, else a description of the violation."""
    params = [t for c in chords for t in c.params()]
    keys = [circular_key(t) for t in params]
    if len(set(keys)) != len(keys):
        return "duplicate circle parameter"
    pts = {}
    n = len(chords)
    for i in range(n):
        for j in range(i + 1, n):
            if interleaved(chords[i], chords[j]):
                x, y, _ = intersection(chords[i], chords[j])
                pts[(i, j)] = (x, y)
    pairs = sorted(pts)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            i1, j1 = pairs[a]
            i2, j2 = pairs[b]
            if {i1, j1} & {i2, j2} and pts[pairs[a]] == pts[pairs[b]]:
                return "three chords concurrent"
    return None


def chords_to_map_document(chords):
    """The divide-map/1 document of a generic chord set."""
    n = len(chords)

    # endpoints in ccw circular order
    ends = []       # (key, chord index, which param)
    for i, c in enumerate(chords):
        ends.append((circular_key(c.s), i, 0))
        ends.append((circular_key(c.t), i, 1))
    ends.sort()
    endpoint_labels = [f"e{k + 1}" for k in range(2 * n)]
    endpoint_of = {(i, which): endpoint_labels[k]
                   for k, (_, i, which) in enumerate(ends)}

    # crossings, labeled by lexicographic chord pair
    crossings = []                      # (i, j) sorted
    crossing_label = {}
    along = {i: [] for i in range(n)}   # (u, pair) per chord
    for i in range(n):
        for j in range(i + 1, n):
            if not interleaved(chords[i], chords[j]):
                continue
            pair = (i, j)
            crossing_label[pair] = f"c{len(crossings) + 1}"
            crossings.append(pair)
            _, _, ui = intersection(chords[i], chords[j])
            _, _, uj = intersection(chords[j], chords[i])
            along[i].append((ui, pair))
            along[j].append((uj, pair))

    # slot layout at each crossing: ccw from the forward direction of the
    # lower-indexed chord
    slot_of = {}
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
        stations = [("end", (i, 0))]
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


def crossing_points(chords):
    """Affine crossing points (x, y) in lexicographic chord-pair order."""
    n = len(chords)
    return [intersection(chords[i], chords[j])[:2]
            for i in range(n) for j in range(i + 1, n)
            if interleaved(chords[i], chords[j])]
