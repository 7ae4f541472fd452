"""The generators' old route to a map, kept as the oracle for the walk
builder: each generator's branch walks written out as a divide-map/1
document of string labels, to be parsed by ``map_from_document``.

``branch_document`` is the document builder the generators used before
they handed integer walks to ``map_from_walks``; the three document
functions below restate each generator's walks with labels, as the
generators wrote them then, and ``walks`` reads the integer walks back
from such a document.
"""


def branch_document(endpoints, crossings, branches):
    """The divide-map/1 document of branch walks.

    A branch is (start endpoint, visits, end endpoint), each visit a
    (crossing, in slot, out slot), all by label; the document has one edge
    per step of each walk, in walk order.
    """
    edges = []
    for start, visits, end in branches:
        a = [start, 0]
        for c, s_in, s_out in visits:
            edges.append({"a": a, "b": [c, s_in]})
            a = [c, s_out]
        edges.append({"a": a, "b": [end, 0]})
    return {"format": "divide-map/1", "endpoints": endpoints,
            "crossings": crossings, "edges": edges}


def chords_document(cs):
    arr = cs.arrangement
    pairs, rank = arr.pairs, arr.rank
    ends = [f"e{r}" for r in range(1, len(rank) + 1)]
    labels = [f"c{k}" for k in range(1, len(pairs) + 1)]
    visits = [((c, 2, 0), (c, 3, 1) if sign > 0 else (c, 1, 3))
              for c, sign in zip(labels, arr.signs)]
    return branch_document(ends, labels, [
        (ends[rank[2 * c]], [visits[k][c != pairs[k][0]] for k in ks],
         ends[rank[2 * c + 1]]) for c, ks in enumerate(arr.along)])


def zigzag_document(n):
    xs = [f"x{i}" for i in range(1, n + 1)]
    return branch_document(
        ["E2", "W1", "E1", "W2"] if n % 2 else ["E2", "W2", "W1", "E1"], xs,
        [("E1", [(x, 2, 0) for x in xs], "E2"),
         ("W1", [(x, 1, 3) if i % 2 else (x, 3, 1)
                 for i, x in enumerate(xs, 1)], "W2")])


def coil_document(k):
    ys = [f"y{i}" for i in range(1, k + 1)]
    return branch_document(
        ["A", "B"], ys,
        [("A", [v for y in ys for v in ((y, 0, 1), (y, 2, 3))], "B")])


def walks(doc):
    """(endpoints, crossings, branches) of a branch document, each label
    replaced by its index: one branch per run of edges from an endpoint to
    an endpoint, one visit per crossing between two edges of the run."""
    ends = doc["endpoints"]
    index = {lab: i for i, lab in enumerate(ends)}
    index.update((lab, i) for i, lab in enumerate(doc["crossings"]))
    branches = []
    for e in doc["edges"]:
        (a, s_out), (b, s_in) = e["a"], e["b"]
        if a in ends:
            start, visits = index[a], []
        else:
            visits.append((index[a], last_in, s_out))
        if b in ends:
            branches.append((start, visits, index[b]))
        last_in = s_in
    return list(ends), list(doc["crossings"]), branches
