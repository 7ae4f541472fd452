"""Generated divides skip the document round trip.

Every generator hands its divide to ``divide_map.map_from_walks`` as
integer branch walks: a branch is (start endpoint index, visits, end
endpoint index), each visit a (crossing index, in slot, out slot).  The
builder must give the map that ``map_from_document`` gives on the
document the generators used to write (``walk_oracle``), field for field
and walk for walk; ``trace_branches`` must read the walks back; and a
faulty walk must raise DivideError, with ``map_from_document``'s message
where the document has the same fault, also under ``python -O``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import divides
from divides import (
    DivideError, build_report, chords_from_document, coil, divide_map,
    from_chords, gen_chords, generators, map_from_document, run_corpus,
    trace_branches, zigzag,
)
from divides.divide_map import map_from_walks
from divides.generators import chords_to_map_document

import walk_oracle
from test_one_pass import count_calls
from test_record_spectrum import chord_report_documents

FIELDS = ("endpoints", "crossings", "rotations", "dart_vertex", "dart_pos",
          "face_walks", "dart_walk")


def generated():
    """(name, generator's map, its walks, the oracle document) for zigzag
    and coil(1..40), gen_chords(n, 0..99) for n in 1, 2, 3, 5, 8, 12, 20
    and the 25 chord_report documents."""
    out = []
    for k in range(1, 41):
        out.append((f"zigzag({k})", zigzag(k),
                    walk_oracle.zigzag_document(k)))
        out.append((f"coil({k})", coil(k), walk_oracle.coil_document(k)))
    sets = [(f"chords({n}, {s})", gen_chords(n, s))
            for n in (1, 2, 3, 5, 8, 12, 20) for s in range(100)]
    sets += [(f"chord_report[{i}]", chords_from_document(d))
             for i, d in enumerate(chord_report_documents())]
    out += [(name, from_chords(cs), walk_oracle.chords_document(cs))
            for name, cs in sets]
    return [(name, m, walk_oracle.walks(doc), doc) for name, m, doc in out]


@pytest.fixture(scope="module")
def cases():
    out = generated()
    assert len(out) == 80 + 700 + 25
    return out


def test_walk_maps_equal_the_document_maps(cases):
    for name, m, walks, doc in cases:
        o = map_from_document(doc)
        w = map_from_walks(*walks)
        for f in FIELDS:
            assert getattr(m, f) == getattr(o, f) == getattr(w, f), (name, f)
        assert m.to_document() == doc, name


def edge_runs(branches):
    """Each branch's edges, numbered in walk order, run from its lower
    endpoint as ``trace_branches`` runs it."""
    runs, k = [], 0
    for start, visits, end in branches:
        run = list(range(k, k + len(visits) + 1))
        k += len(run)
        runs.append((start, run, end) if start < end else
                    (end, run[::-1], start))
    return sorted(runs)


def test_trace_branches_reads_the_walks_back(cases):
    # edge for edge, not dart for dart: coil's walks pass each curl's
    # loop edge against the strand (out by slot 1, back in by slot 2)
    for name, m, (_, _, branches), _ in cases:
        traced = [(m.dart_vertex[w[0]], [d >> 1 for d in w],
                   m.dart_vertex[w[-1] ^ 1]) for w in trace_branches(m)]
        assert traced == edge_runs(branches), name


def labeled(endpoints, crossings, branches):
    """The walks' document, with labels in place of indices."""
    return walk_oracle.branch_document(list(endpoints), list(crossings), [
        (endpoints[s], [(crossings[c], i, o) for c, i, o in visits],
         endpoints[e]) for s, visits, e in branches])


def zigzag_walks(n):
    return walk_oracle.walks(walk_oracle.zigzag_document(n))


def coil_walks(k):
    return walk_oracle.walks(walk_oracle.coil_document(k))


def two_visits_on_one_slot():
    ends, ys, [(a, visits, b)] = coil_walks(2)
    visits[1] = (0, 0, 3)          # y1 slot 0 again, in place of 2
    return ends, ys, [(a, visits, b)]


def two_branches_on_one_endpoint():
    ends, xs, [base, (_, visits, w2)] = zigzag_walks(3)
    return ends, xs, [base, (base[0], visits, w2)]


def a_crossing_visited_once():
    ends, ys, [(a, visits, b)] = coil_walks(2)
    return ends, ys, [(a, visits[:-1], b)]     # y2 by slots 0 -> 1 only


def a_slot_of_four():
    ends, xs, [(e1, visits, e2), wiggle] = zigzag_walks(2)
    visits[0] = (0, 4, 0)
    return ends, xs, [(e1, visits, e2), wiggle]


# (fault, faulty walks, message), each fault one a document can carry
DOCUMENT_FAULTS = [
    ("two visits on one crossing slot", two_visits_on_one_slot(),
     "slot reuse at crossing 'y1' slot 0"),
    ("two branches on one endpoint", two_branches_on_one_endpoint(),
     "slot reuse at endpoint 'E1'"),
    ("a crossing visited once", a_crossing_visited_once(),
     "unused slot at crossing 'y2' slot 2"),
    ("a slot of 4", a_slot_of_four(),
     "crossing 'x1' slot 4 out of range 0..3"),
]

# faults of an index, which a labeled document cannot carry
INDEX_FAULTS = [
    ("crossing index past the end",
     (["A", "B"], ["y1"], [(0, [(0, 0, 1), (1, 2, 3)], 1)]),
     "crossing index 1 out of range"),
    ("negative crossing index",
     (["A", "B"], ["y1"], [(0, [(0, 0, 1), (-1, 2, 3)], 1)]),
     "crossing index -1 out of range"),
    ("endpoint index past the end",
     (["A", "B"], ["y1"], [(0, [(0, 0, 1), (0, 2, 3)], 2)]),
     "endpoint index 2 out of range"),
    ("negative endpoint index",
     (["A", "B"], ["y1"], [(-1, [(0, 0, 1), (0, 2, 3)], 1)]),
     "endpoint index -1 out of range"),
    ("odd endpoint count", (["A"], [], [(0, [], 0)]),
     "odd endpoint count: 1 endpoints (need an even number, at least 2)"),
]

FAULTS = DOCUMENT_FAULTS + INDEX_FAULTS


@pytest.mark.parametrize("fault, walks, message", FAULTS,
                         ids=[f[0] for f in FAULTS])
def test_walk_faults_raise(fault, walks, message):
    with pytest.raises(DivideError) as info:
        map_from_walks(*walks)
    assert str(info.value) == message


@pytest.mark.parametrize("fault, walks, message", DOCUMENT_FAULTS,
                         ids=[f[0] for f in DOCUMENT_FAULTS])
def test_walk_faults_match_the_document(fault, walks, message):
    with pytest.raises(DivideError) as info:
        map_from_document(labeled(*walks))
    assert str(info.value) == message


def test_walk_faults_raise_under_optimize():
    # python -O strips assert statements; the builder's checks must stay
    code = ("from divides import DivideError\n"
            "from divides.divide_map import map_from_walks\n"
            f"for walks in {[w for _, w, _ in FAULTS]!r}:\n"
            "    try:\n"
            "        map_from_walks(*walks)\n"
            "    except DivideError as exc:\n"
            "        print(exc)\n")
    src = str(Path(divides.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "".join(f"{m}\n" for _, _, m in FAULTS)


@pytest.mark.parametrize("run, chord_sets, maps", [
    (lambda: run_corpus(20, 5, 1), 20, 20),
    (lambda: build_report(from_chords(gen_chords(8, 101))), 1, 1),
    (lambda: chords_to_map_document(gen_chords(5, 7)), 1, 1),
    (lambda: zigzag(5), 0, 1),
    (lambda: coil(5), 0, 1),
], ids=["corpus", "chord report", "chord document", "zigzag", "coil"])
def test_generators_parse_no_document(monkeypatch, run, chord_sets, maps):
    builds = count_calls(monkeypatch, ("map_from_document", "map_from_walks"),
                         divide_map)
    kernels = count_calls(monkeypatch, ("_arrangement",), generators)
    run()
    assert builds == {"map_from_document": 0, "map_from_walks": maps}
    assert kernels == {"_arrangement": chord_sets}
