import copy
import json
import re
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from divides import (
    MINUS, DivideError, build_gamma, check_flag_edges, classify, coil,
    compute_faces, counts, fixture, fixtures, from_chords, gen_chords,
    has_multi_edge, map_from_document, parse_chords, parse_divide,
    trace_branches, verify_theorem, zigzag,
)
from divides import divide_map
from divides.generators import chords_to_map_document

import classify_oracle
import gamma_oracle
import map_oracle
from test_slot_fuzz import slot_matchings


def doc(endpoints, crossings, edges):
    return json.dumps({
        "format": "divide-map/1",
        "endpoints": endpoints,
        "crossings": crossings,
        "edges": [{"a": list(a), "b": list(b)} for a, b in edges],
    })


def exact(message):
    """A ``pytest.raises`` pattern matching ``message`` and nothing more."""
    return "^" + re.escape(message) + "$"


X1_DOC = doc(["e1", "e2", "e3", "e4"], ["c1"],
             [(("e1", 0), ("c1", 0)), (("e2", 0), ("c1", 1)),
              (("e3", 0), ("c1", 2)), (("e4", 0), ("c1", 3))])

# two X1 crossings on disjoint arcs of the circle: delta = 2, no regions
TWO_X1_DOC = doc([f"e{i}" for i in range(1, 9)], ["c1", "c2"],
                 [((f"e{i}", 0), ("c1", i - 1)) for i in range(1, 5)]
                 + [((f"e{i}", 0), ("c2", i - 5)) for i in range(5, 9)])

LOOP_DOC = doc(["e1", "e2"], ["c1"],
               [(("e1", 0), ("c1", 0)), (("c1", 1), ("c1", 2)),
                (("c1", 3), ("e2", 0))])


class TestParse:
    def test_x1(self):
        m = parse_divide(X1_DOC)
        assert m.r == 2
        assert m.delta == 1

    def test_loop(self):
        m = parse_divide(LOOP_DOC)
        assert m.r == 1
        assert m.delta == 1

    @pytest.mark.parametrize("edges, message", [
        ([(("e1", 0), ("c1", 0)), (("e2", 0), ("c1", 0)),
          (("e3", 0), ("c1", 2)), (("e4", 0), ("c1", 3))],
         "slot reuse at crossing 'c1' slot 0"),
        ([(("e1", 0), ("c1", 0)), (("e1", 0), ("c1", 1)),
          (("e3", 0), ("c1", 2)), (("e4", 0), ("c1", 3))],
         "slot reuse at endpoint 'e1'"),
    ], ids=["crossing", "endpoint"])
    def test_slot_reuse(self, edges, message):
        bad = doc(["e1", "e2", "e3", "e4"], ["c1"], edges)
        with pytest.raises(DivideError, match=exact(message)):
            parse_divide(bad)

    @pytest.mark.parametrize("endpoints, crossings, edges, message", [
        (["e1", "e2"], ["c1"],
         [(("e1", 0), ("c1", 0)), (("e2", 0), ("c1", 1))],
         "unused slot at crossing 'c1' slot 2"),
        (["e1", "e2", "e3", "e4"], [], [(("e1", 0), ("e2", 0))],
         "unused slot at endpoint 'e3'"),
    ], ids=["crossing", "endpoint"])
    def test_unused_slot(self, endpoints, crossings, edges, message):
        bad = doc(endpoints, crossings, edges)
        with pytest.raises(DivideError, match=exact(message)):
            parse_divide(bad)

    def test_odd_endpoint_count(self):
        bad = doc(["e1", "e2", "e3"], [],
                  [(("e1", 0), ("e2", 0))])
        with pytest.raises(DivideError, match=exact(
                "odd endpoint count: 3 endpoints (need an even number, "
                "at least 2)")):
            parse_divide(bad)

    def test_endpoint_slot_must_be_zero(self):
        bad = doc(["e1", "e2"], [], [(("e1", 1), ("e2", 0))])
        with pytest.raises(DivideError, match=exact(
                "endpoint 'e1' only exposes slot 0, got 1")):
            parse_divide(bad)

    def test_crossing_slot_range(self):
        bad = doc(["e1", "e2"], ["c1"],
                  [(("e1", 0), ("c1", 4)), (("c1", 1), ("c1", 2)),
                   (("c1", 3), ("e2", 0))])
        with pytest.raises(DivideError, match=exact(
                "crossing 'c1' slot 4 out of range 0..3")):
            parse_divide(bad)

    def test_duplicate_label(self):
        bad = doc(["e1", "e1"], [], [(("e1", 0), ("e1", 0))])
        with pytest.raises(DivideError,
                           match=exact("malformed document: duplicate label")):
            parse_divide(bad)

    def test_unknown_label(self):
        bad = doc(["e1", "e2"], [], [(("e1", 0), ("zz", 0))])
        with pytest.raises(DivideError, match=exact(
                "malformed document: bad attachment ['zz', 0]")):
            parse_divide(bad)

    def test_boolean_slot_rejected(self):
        # JSON true is a Python int subclass; it must not pass as slot 1
        lens = fixture("LENS").to_document()
        edge = next(e for e in lens["edges"] if e["b"][1] == 1)
        edge["b"][1] = True
        with pytest.raises(DivideError, match=exact(
                f"malformed document: bad attachment {edge['b']!r}")):
            parse_divide(json.dumps(lens))

    def test_bad_format_field(self):
        with pytest.raises(DivideError, match=exact(
                "malformed document: format is 'nope', expected "
                "'divide-map/1'")):
            parse_divide(json.dumps({"format": "nope", "endpoints": [],
                                     "crossings": [], "edges": []}))

    def test_not_json(self):
        with pytest.raises(DivideError,
                           match="^malformed document: Expecting"):
            parse_divide("{")

    @pytest.mark.parametrize("data", [
        b'{"format": "divide-map/1", "note": "\xff"}',
        '{"format": "divide-map/1", "n": ' + "9" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["not_utf8", "huge_int", "deep_nesting"])
    def test_undecodable_json(self, data):
        with pytest.raises(DivideError, match="malformed document"):
            parse_divide(data)
        with pytest.raises(DivideError, match="malformed document"):
            parse_chords(data)

    def test_closed_branch(self):
        # a chord plus a free-floating figure-eight component
        bad = doc(["e1", "e2"], ["c1"],
                  [(("e1", 0), ("e2", 0)), (("c1", 0), ("c1", 1)),
                   (("c1", 2), ("c1", 3))])
        with pytest.raises(DivideError, match=exact(
                "closed branch detected (circular component)")):
            parse_divide(bad)

    def test_planarity_failure(self):
        # non-interleaved boundary order with a crossing rotation forcing
        # the two chords through one another: not realizable in the disk
        bad = doc(["e1", "e2", "e3", "e4"], ["c1"],
                  [(("e1", 0), ("c1", 0)), (("e2", 0), ("c1", 2)),
                   (("e3", 0), ("c1", 1)), (("e4", 0), ("c1", 3))])
        with pytest.raises(DivideError, match=exact(
                "planarity failure (Euler check 0 != 2): the rotation "
                "system does not embed in the disk")):
            parse_divide(bad)

    def test_note_field_ignored(self):
        d = json.loads(X1_DOC)
        d["note"] = "annotation"
        parse_divide(json.dumps(d))


# JSON values of every type, at the sizes and signs the guards test
JUNK = st.recursive(
    st.sampled_from([None, True, False, 0, -1, 4, 2 ** 70, 1.0,
                     "", "e1", "c1", "zz"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "format"]), inner,
                      max_size=2),
    max_leaves=4)


@st.composite
def junk_documents(draw, bases):
    """A valid document with 1-3 of its values replaced by junk."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        site = draw(st.sampled_from(
            ["endpoint", "crossing", "label", "slot", "edge", "key"]))
        value = draw(JUNK)
        if site == "key":
            doc[draw(st.sampled_from(
                ["format", "endpoints", "crossings", "edges"]))] = value
            continue
        seq = doc.get({"endpoint": "endpoints",
                       "crossing": "crossings"}.get(site, "edges"))
        if not isinstance(seq, list) or not seq:
            continue
        i = draw(st.integers(0, len(seq) - 1))
        if site in ("label", "slot"):
            edge = seq[i]
            if not isinstance(edge, dict):
                continue
            pair = edge.get(draw(st.sampled_from(["a", "b"])))
            if isinstance(pair, list) and len(pair) == 2:
                pair[site == "slot"] = value
        else:
            seq[i] = value
    return doc


# the guards of the parse itself, before branches and planarity
GUARDS = {"format is", "endpoints/crossings/edges", "bad label",
          "duplicate label", "odd endpoint count", "bad edge",
          "bad attachment", "only exposes slot 0", "out of range",
          "slot reuse", "unused slot"}


def guard_examples():
    """Per guard in GUARDS, an X1 document that fails that guard first."""
    x1 = json.loads(X1_DOC)

    def edges(*pairs):
        return {**x1, "edges": [{"a": list(a), "b": list(b)}
                                for a, b in pairs]}

    return {
        "format is": {**x1, "format": "divide-map/2"},
        "endpoints/crossings/edges": {**x1, "edges": None},
        "bad label": {**x1, "crossings": [""]},
        "duplicate label": {**x1, "crossings": ["e1"]},
        "odd endpoint count": {**x1, "endpoints": ["e1", "e2", "e3"]},
        "bad edge": {**x1, "edges": [{"a": ["e1", 0]}]},
        "bad attachment": edges((("zz", 0), ("c1", 0))),
        "only exposes slot 0": edges((("e1", 1), ("c1", 0))),
        "out of range": edges((("e1", 0), ("c1", 4))),
        "slot reuse": edges((("e1", 0), ("c1", 0)), (("e2", 0), ("c1", 0))),
        "unused slot": edges(),
    }


def junk_bases():
    bases = [m.to_document() for m in fixtures().values()]
    return bases + [zigzag(3).to_document(), coil(2).to_document(),
                    chords_to_map_document(gen_chords(5, 7))]


def test_junk_values_raise_divide_error():
    # the parser meets input from outside the program: it returns a map or
    # raises DivideError, never another exception
    bases = junk_bases()
    reached = set()

    def check(doc):
        try:
            map_from_document(doc)
        except DivideError as exc:
            reached.update(g for g in GUARDS if g in str(exc))

    # one explicit document per guard, so that every guard is reached
    # whatever the draws; each must fail the guard it is named for
    examples = guard_examples()
    assert set(examples) == GUARDS
    for guard, d in examples.items():
        with pytest.raises(DivideError, match=re.escape(guard)):
            map_from_document(d)
    check = given(junk_documents(bases))(check)
    for d in examples.values():
        check = example(d)(check)
    settings(max_examples=1000, deadline=None, derandomize=True,
             database=None)(check)()
    assert reached == GUARDS


def front_end(build_map, faces_of, doc):
    """(DivideError message or None, map, faces or their error message)."""
    try:
        m = build_map(doc)
    except DivideError as exc:
        return str(exc), None, None
    try:
        return None, m, faces_of(m)
    except DivideError as exc:
        return None, m, str(exc)


def check_against_oracle(doc):
    """Returns the map's DivideError message, or None once it is built."""
    error, m, faces = front_end(map_from_document, compute_faces, doc)
    o_error, o, o_faces = front_end(map_oracle.map_from_document,
                                    map_oracle.compute_faces, doc)
    assert error == o_error, doc
    if m is None:
        return error
    assert [getattr(m, f.name) for f in fields(o)] == \
        [getattr(o, f.name) for f in fields(o)], doc
    assert faces == o_faces, doc
    assert trace_branches(m) == map_oracle.trace_branches(o), doc
    assert len(m.dart_walk) == m.n_darts
    assert all(m.dart_walk[d] == fi
               for fi, w in enumerate(m.face_walks) for d in w), doc
    return None


class TestTwoScanOracle:
    """The one-trace map build and faces against the two-scan front end:
    the same map, walks and faces, or the same first DivideError."""

    def test_junk_documents(self):
        bases = junk_bases()

        @settings(max_examples=1000, deadline=None, derandomize=True,
                  database=None)
        @given(junk_documents(bases))
        def check(doc):
            check_against_oracle(doc)

        check()

    def test_slot_matchings(self):
        # random matchings reach the branch and planarity checks
        reached = set()

        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        @given(slot_matchings())
        def check(doc):
            error = check_against_oracle(doc)
            reached.add(error and error.split(" ")[0])

        check()
        assert reached == {None, "closed", "planarity"}

    def test_families(self, zoo):
        maps = [m for _, m in zoo]
        maps += [zigzag(n) for n in range(1, 10)]
        maps += [coil(k) for k in range(1, 10)]
        for m in maps:
            check_against_oracle(m.to_document())
        for seed in range(200):
            check_against_oracle(chords_to_map_document(gen_chords(5, seed)))


def moved(m, d, fi):
    """m with dart d taken off its walk and put at the end of walk fi."""
    walks = [list(w) for w in m.face_walks]
    walks[m.dart_walk[d]].remove(d)
    walks[fi].append(d)
    dart_walk = list(m.dart_walk)
    dart_walk[d] = fi
    return replace(m, face_walks=tuple(map(tuple, walks)),
                   dart_walk=tuple(dart_walk))


# LENS: dart 0 is the divide dart at an endpoint, on walk 0; walk 1 holds
# its twin, walk 2 is Outer, walk 3 the one region
@pytest.mark.parametrize("walk, message", [
    (3, "a region walk touches an endpoint"),
    (1, "2-coloring inconsistency: a segment has the same face on both "
        "sides"),
    (2, "2-coloring inconsistency across a divide segment"),
], ids=["endpoint", "same_face", "odd_cycle"])
def test_compute_faces_guards(walk, message):
    # no document reaches these guards; a corrupted map keeps each live
    m = fixture("LENS")
    assert (m.dart_walk[0], m.dart_walk[1]) == (0, 1)
    assert m.dart_vertex[0] < len(m.endpoints)
    assert compute_faces(m).regions == (3,)
    bad = moved(m, 0, walk)
    for faces_of in (compute_faces, map_oracle.compute_faces):
        with pytest.raises(DivideError, match=exact(message)):
            faces_of(bad)


class TestBranches:
    def test_x1_two_branches(self):
        m = parse_divide(X1_DOC)
        branches = trace_branches(m)
        assert len(branches) == 2
        ends = {frozenset((m.dart_vertex[w[0]],
                           m.dart_vertex[w[-1] ^ 1])) for w in branches}
        # slots pair {0,2} and {1,3}: e1-e3 and e2-e4
        assert ends == {frozenset((0, 2)), frozenset((1, 3))}

    def test_loop_single_branch_visits_twice(self):
        m = parse_divide(LOOP_DOC)
        (walk,) = trace_branches(m)
        crossing_visits = [m.dart_vertex[d ^ 1] for d in walk
                           if m.dart_vertex[d ^ 1] >= len(m.endpoints)]
        assert crossing_visits.count(2) == 2   # vertex id 2 is c1

    def test_lens_two_branches_each_crossing_once(self):
        m = fixture("LENS")
        branches = trace_branches(m)
        assert len(branches) == 2
        for walk in branches:
            inner = [m.dart_vertex[d ^ 1] for d in walk[:-1]]
            assert len(inner) == 2 and len(set(inner)) == 2

    def test_branch_partition(self, zoo):
        for name, m in zoo:
            branches = trace_branches(m)
            edges_seen = [d // 2 for w in branches for d in w]
            assert len(edges_seen) == m.n_divide_edges, name
            assert len(set(edges_seen)) == m.n_divide_edges, name


class TestFaces:
    def test_x1_all_outer(self):
        m = parse_divide(X1_DOC)
        faces = compute_faces(m)
        assert len(faces.signs) == 4           # 1 + 8 - 5
        assert faces.regions == ()
        assert faces.region_count() == 0

    def test_loop_faces(self):
        m = parse_divide(LOOP_DOC)
        faces = compute_faces(m)
        assert len(faces.signs) == 3
        assert len(faces.regions) == 1
        fi = faces.regions[0]
        assert faces.signs[fi] == MINUS
        assert len(m.face_walks[fi]) == 1      # single dart inside the curl

    def test_lens_faces(self):
        m = fixture("LENS")
        faces = compute_faces(m)
        assert len(faces.signs) == 5           # 1 + 10 - 6
        assert len(faces.regions) == 1         # the other four are Outer

    def test_euler_count(self, zoo):
        for name, m in zoo:
            faces = compute_faces(m)
            v = len(m.endpoints) + len(m.crossings)
            e = m.n_divide_edges + len(m.endpoints)
            assert len(faces.signs) == 1 + e - v, name

    def test_walks_start_at_their_smallest_dart(self, zoo):
        # the planarity check and compute_faces read w[0] as min(w)
        for name, m in zoo:
            assert all(w[0] == min(w) for w in m.face_walks), name
            starts = [w[0] for w in m.face_walks]
            assert starts == sorted(starts), name

    def test_outside_face_is_the_last_walk(self, zoo):
        # Faces takes m.face_walks[:-1] as the inside faces
        for name, m in zoo:
            boundary = 2 * m.n_divide_edges
            all_arc = [w for w in m.face_walks if min(w) >= boundary]
            assert all_arc == [m.face_walks[-1]], name
            faces = compute_faces(m)
            assert len(faces.signs) == len(m.face_walks) - 1, name
            assert all(m.dart_walk[d] == len(faces.signs)
                       for d in m.face_walks[-1]), name

    def test_sign_alternation_across_segments(self, zoo):
        for name, m in zoo:
            faces = compute_faces(m)
            for k in range(m.n_divide_edges):
                f1, f2 = m.dart_walk[2 * k], m.dart_walk[2 * k + 1]
                assert f1 != f2, name
                assert faces.signs[f1] == -faces.signs[f2], name

    def test_sector_signs_alternate_at_crossings(self, zoo):
        for name, m in zoo:
            faces = compute_faces(m)
            for c in range(m.delta):
                v = len(m.endpoints) + c
                signs = [faces.signs[m.dart_walk[d]]
                         for d in m.rotations[v]]
                assert signs[0] == -signs[1] == signs[2] == -signs[3], name

    def test_region_walk_hygiene(self, zoo):
        for name, m in zoo:
            faces = compute_faces(m)
            for fi in faces.regions:
                for d in m.face_walks[fi]:
                    assert d < 2 * m.n_divide_edges, name
                    assert m.dart_vertex[d] >= len(m.endpoints), name

    def test_flip_changes_only_signs(self, zoo):
        for name, m in zoo:
            a = compute_faces(m)
            b = compute_faces(m).flipped()
            assert a.regions == b.regions, name
            assert b.flipped() == a, name
            assert b.signs == tuple(-s for s in a.signs), name

    def test_corner_face_is_the_face_of_its_rotation_dart(self, zoo):
        # the face in corner (v, i) is the face of rotations[v][i]; the
        # oracle reads it off the walks with the (v, (pos - 1) % deg) rule
        maps = [m for _, m in zoo]
        maps += [zigzag(k) for k in range(1, 9)]
        maps += [coil(k) for k in range(1, 9)]
        maps += [from_chords(gen_chords(n, s))
                 for n in range(1, 13) for s in range(20)]
        corners = 0
        for m in maps:
            faces = compute_faces(m)
            oracle = gamma_oracle.corner_faces(m)
            for v, rot in enumerate(m.rotations):
                for i, d in enumerate(rot):
                    expected = oracle[(v, i)]
                    assert m.dart_walk[d] == \
                        (len(faces.signs) if expected is None else expected)
            corners += len(oracle)
            assert len(oracle) == m.n_darts
        assert corners > 10000

    def test_faces_traced_once_per_map(self, monkeypatch):
        # validation traces every face; compute_faces reuses those walks
        calls = 0
        real = divide_map._trace_all_faces

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(divide_map, "_trace_all_faces", counted)
        for m in (zigzag(50), coil(50), fixture("FIG2A")):
            doc = m.to_document()
            calls = 0
            compute_faces(divide_map.map_from_document(doc))
            assert calls == 1, doc["crossings"][:3]


class TestClassify:
    def test_x1(self):
        m = parse_divide(X1_DOC)
        st = classify(m, compute_faces(m))
        assert (st.connected, st.cellular, st.simple) == (True, True, True)

    def test_loop(self):
        m = parse_divide(LOOP_DOC)
        st = classify(m, compute_faces(m))
        assert (st.connected, st.cellular, st.simple) == (True, True, True)

    def test_fig2b_not_simple(self):
        m = fixture("FIG2B")
        st = classify(m, compute_faces(m))
        assert st.connected and not st.simple

    def test_fig2a_pinched_region(self):
        m = fixture("FIG2A")
        faces = compute_faces(m)
        st = classify(m, faces)
        assert st.connected and not st.cellular
        assert not st.regions_vertex_simple
        pinched = [fi for fi in faces.regions
                   if len({m.dart_vertex[d] for d in m.face_walks[fi]})
                   != len(m.face_walks[fi])]
        assert len(pinched) == 1

    def test_disconnected_chords(self):
        # two chords on disjoint arcs of the circle never cross
        from divides import Chord, ChordSet
        cs = ChordSet(chords=(Chord((-5, 1), (-2, 1)), Chord((1, 1), (4, 1))))
        m = from_chords(cs)
        st = classify(m, compute_faces(m))
        assert m.delta == 0
        assert not st.connected
        assert not st.simple
        # vertex-simple on its own; cellularity also needs connectivity
        assert st.regions_vertex_simple and not st.cellular

    def test_disconnected_with_double_points(self):
        m = parse_divide(TWO_X1_DOC)
        st = classify(m, compute_faces(m))
        assert (m.r, m.delta, st.region_count) == (4, 2, 0)
        assert not st.connected and not st.simple and not st.cellular
        assert classify_oracle.component_count(m) == 2

    def test_simple_iff_no_splitting_cut(self):
        # coil(2): the spine between the curls has outer faces on both
        # sides and splits the double points 1|1
        from divides import coil
        m = coil(2)
        st = classify(m, compute_faces(m))
        assert not st.simple
        m = coil(1)
        st = classify(m, compute_faces(m))
        assert st.simple


@pytest.fixture(scope="module")
def classify_cases(zoo):
    """The zoo, zigzag/coil(1..30) and gen_chords(1..13, seeds 0..59)."""
    cases = list(zoo) + [("TWO_X1", parse_divide(TWO_X1_DOC))]
    cases += [(f"zigzag({n})", zigzag(n)) for n in range(1, 31)]
    cases += [(f"coil({k})", coil(k)) for k in range(1, 31)]
    cases += [(f"chords({n},{s})", from_chords(gen_chords(n, s)))
              for n in range(1, 14) for s in range(60)]
    return cases


def test_classify_matches_union_find_oracle(classify_cases):
    seen = set()
    for name, m in classify_cases:
        faces = compute_faces(m)
        for signed in (faces, faces.flipped()):
            st = classify(m, signed)
            assert st == classify_oracle.classify(m, signed), name
        seen.add((st.connected, st.cellular, st.simple))
    # every (connected, cellular, simple) combination that can occur
    assert seen == {(False, False, False), (True, False, False),
                    (True, False, True), (True, True, False),
                    (True, True, True)}


def test_classify_reads_no_region_walks(zoo):
    # cellularity is read off the corners at each double point, so the
    # face walks can go without changing the classification
    maps = [m for _, m in zoo] + [parse_divide(TWO_X1_DOC)]
    maps += [family(k) for family in (zigzag, coil) for k in range(1, 9)]
    maps += [from_chords(gen_chords(n, s))
             for n, s in ((1, 0), (5, 3), (8, 2), (12, 7))]
    pinched = 0
    for m in maps:
        faces = compute_faces(m)
        st = classify(m, faces)
        assert classify(replace(m, face_walks=()), faces) == st, m.crossings
        pinched += not st.regions_vertex_simple
    assert pinched > 0


def test_sector_facts(classify_cases):
    # Fact 1: signs alternate around a crossing, so a Minus and a Plus
    # sector at one double point are adjacent corners, and the segment
    # between them has those two regions as its sides: every flag closes.
    # Fact 2: a region holding two sectors at one double point gives two
    # equal sector edges, so a divide that is not vertex-simple has a
    # multi-edge.
    pinched = []

    def check(m, name):
        try:
            faces = compute_faces(m)
        except DivideError:
            return
        for signed in (faces, faces.flipped()):
            gamma = build_gamma(m, signed)
            assert check_flag_edges(gamma) == [], name
            if not classify(m, signed).regions_vertex_simple:
                assert has_multi_edge(gamma), name
                pinched.append(name)

    for name, m in classify_cases:
        check(m, name)

    # more draws than the parser's fuzz: few matchings are divides, and
    # fewer still pinch a region
    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(slot_matchings())
    def fuzz(doc):
        try:
            m = map_from_document(doc)
        except DivideError:
            return
        check(m, doc)

    fuzz()
    # both kinds of input reach a divide that is not vertex-simple
    assert "FIG2A" in pinched and any(isinstance(p, dict) for p in pinched)


def test_milnor_number_counts_components(zoo, classify_cases):
    # Euler's formula on the divide graph: mu = 2 delta - r + C
    for name, m in zoo + [("TWO_X1", parse_divide(TWO_X1_DOC))]:
        thm = verify_theorem(m)
        c = classify_oracle.component_count(m)
        assert thm.mu == 2 * m.delta - m.r + c, name
        assert thm.stats.connected == (c == 1), name
    n_disconnected = 0
    for name, m in classify_cases:
        faces = compute_faces(m)
        c = classify_oracle.component_count(m)
        assert counts(build_gamma(m, faces)).mu == 2 * m.delta - m.r + c, name
        assert classify(m, faces).connected == (c == 1), name
        n_disconnected += c > 1
    assert n_disconnected > 0
