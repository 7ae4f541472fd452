import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis.strategies import integers

import divides
from divides import (
    Chord, ChordSet, DivideError, chords_document, chords_from_document,
    classify, coil, compute_faces, crossing_count, fixture, fixture_names,
    fixtures, from_chords, gen_chords, interleaved, map_from_document,
    parse_chords, run_corpus, verify_theorem, zigzag,
)
from divides.generators import (
    _arrangement, _param_from_json, chords_to_map_document,
)


class TestChords:
    def test_deterministic(self):
        a = gen_chords(5, 42)
        b = gen_chords(5, 42)
        assert a == b
        da = json.dumps(chords_to_map_document(a), sort_keys=True)
        db = json.dumps(chords_to_map_document(b), sort_keys=True)
        assert da == db

    def test_seed_changes_output(self):
        assert gen_chords(5, 1) != gen_chords(5, 2)

    def test_single_chord(self):
        m = from_chords(gen_chords(1, 9))
        assert m.r == 1 and m.delta == 0

    def test_delta_equals_interleaving_oracle(self):
        for seed in range(25):
            cs = gen_chords(5, 100 + seed)
            assert from_chords(cs).delta == crossing_count(cs)

    def test_interleaved_pair_is_x1_shape(self):
        cs = ChordSet(chords=(Chord((-1, 1), (1, 1)), Chord((0, 1), (5, 1))))
        assert interleaved(*cs.chords)
        m = from_chords(cs)
        assert m.r == 2 and m.delta == 1
        st = classify(m, compute_faces(m))
        assert st.connected and st.simple

    def test_non_interleaved_pair(self):
        cs = ChordSet(chords=(Chord((-5, 1), (-2, 1)), Chord((1, 1), (4, 1))))
        m = from_chords(cs)
        assert m.delta == 0
        assert not classify(m, compute_faces(m)).connected

    def test_triangle_arrangement(self):
        # three pairwise interleaved chords enclosing one region
        cs = ChordSet(chords=(Chord((-5, 1), (1, 1)), Chord((-2, 1), (2, 1)),
                              Chord((-1, 1), (5, 1))))
        m = from_chords(cs)
        assert m.delta == 3
        faces = compute_faces(m)
        st = classify(m, faces)
        assert st.region_count == 1
        assert st.connected and st.cellular and st.simple
        rep = verify_theorem(m)
        assert rep.lam == 0 and rep.all_pass()

    def test_duplicate_parameter_rejected(self):
        cs = ChordSet(chords=(Chord((0, 1), (1, 1)), Chord((1, 1), (2, 1))))
        with pytest.raises(DivideError, match="general-position"):
            from_chords(cs)

    def test_concurrent_chords_rejected(self):
        # three diameters all pass through the center: t and -1/t are
        # antipodal parameters
        cs = ChordSet(chords=(Chord((1, 1), (-1, 1)), Chord((2, 1), (-1, 2)),
                              Chord((3, 1), (-1, 3))))
        with pytest.raises(DivideError, match="concurrent"):
            from_chords(cs)

    def test_infinity_parameter(self):
        # the horizontal diameter through (-1, 0), crossed by another chord
        cs = ChordSet(chords=(Chord(None, (0, 1)), Chord((1, 1), (-2, 1))))
        assert _arrangement(cs.chords).ends[0][0] == (-1, 0, 1)
        m = from_chords(cs)
        assert m.delta == 1

    def test_geometry_belongs_to_the_chords(self):
        # the arrangement is derived from the chords, never passed in, so a
        # set cannot carry another set's geometry: the map has one branch
        # per chord, for generated sets and for sets built by hand
        sets = [gen_chords(n, seed) for n in (1, 3, 6) for seed in (1, 2)]
        sets += [ChordSet(chords=gen_chords(3, 1).chords),
                 ChordSet(chords=(Chord(None, (0, 1)),
                                  Chord((1, 1), (-2, 1)))),
                 ChordSet(chords=(Chord((-5, 1), (1, 1)),
                                  Chord((-2, 1), (2, 1)),
                                  Chord((-1, 1), (5, 1))))]
        for cs in sets:
            assert from_chords(cs).r == len(cs.chords)
            assert from_chords(cs).delta == crossing_count(cs)
        assert [f.name for f in dataclasses.fields(ChordSet)] == \
            ["chords", "rejections"]
        with pytest.raises(TypeError):
            ChordSet(chords=gen_chords(3, 1).chords,
                     arrangement=gen_chords(6, 2).arrangement)

    def test_document_round_trip(self):
        cs = gen_chords(4, 77)
        text = json.dumps(chords_document(cs))
        back = parse_chords(text)
        assert back.chords == cs.chords

    def test_document_infinity(self):
        doc = {"format": "divide-chords/1",
               "chords": [{"s": "inf", "t": [0, 1]},
                          {"s": [1, 1], "t": [-2, 1]}]}
        cs = chords_from_document(doc)
        assert cs.chords[0].s is None

    def test_bad_parameter(self):
        doc = {"format": "divide-chords/1",
               "chords": [{"s": [1, 0], "t": [0, 1]}]}
        with pytest.raises(DivideError, match="parameter"):
            chords_from_document(doc)

    def test_boolean_parameter_rejected(self):
        # [true, 2] would otherwise read as the parameter 1/2
        doc = {"format": "divide-chords/1",
               "chords": [{"s": [True, 2], "t": [-2, 1]}]}
        with pytest.raises(DivideError, match="parameter"):
            chords_from_document(doc)

    @pytest.mark.parametrize("bad", [
        (1, -2),            # -1/2 as a/b, but it would sort after 0
        (2, 4),             # not reduced
        (0, 2),
        (1, 0),
        Fraction(1, 2),
        (True, 1),
        (1, 2, 3),
        [1, 2],
        (1.0, 2),
    ])
    def test_hand_built_bad_parameter_rejected(self, bad):
        cs = ChordSet(chords=(Chord((0, 1), (3, 1)), Chord((-1, 1), bad)))
        with pytest.raises(DivideError, match="bad circle parameter"):
            from_chords(cs)
        with pytest.raises(DivideError, match="bad circle parameter"):
            _arrangement([Chord(bad, None)])

    def test_document_parameters_are_normalized(self):
        doc = {"format": "divide-chords/1",
               "chords": [{"s": [1, -2], "t": [4, 2]},
                          {"s": [0, -7], "t": "inf"}]}
        cs = chords_from_document(doc)
        assert cs.chords == (Chord((-1, 2), (2, 1)), Chord((0, 1), None))
        assert chords_document(cs)["chords"] == [
            {"s": [-1, 2], "t": [2, 1]}, {"s": [0, 1], "t": "inf"}]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(integers(), integers().filter(bool), integers(),
           integers().filter(bool))
    def test_parameter_normalization_matches_fraction(self, a, b, c, d):
        edge = 2 ** 70
        for x, y in ((a, b), (c, d), (0, b), (-edge, b), (a, edge + 1)):
            t = Fraction(x, y)
            assert _param_from_json([x, y]) == (t.numerator, t.denominator)
        s, t = Fraction(a, b), Fraction(c, d)
        assume(s != t)
        doc = {"format": "divide-chords/1",
               "chords": [{"s": [a, b], "t": [c, d]}]}
        assert chords_document(chords_from_document(doc))["chords"] == [
            {"s": [s.numerator, s.denominator],
             "t": [t.numerator, t.denominator]}]

    def test_connected_chord_divides_are_cellular(self):
        seen_connected = 0
        for seed in range(40):
            m = from_chords(gen_chords(4, 500 + seed))
            st = classify(m, compute_faces(m))
            if st.connected:
                seen_connected += 1
                assert st.cellular, seed
        assert seen_connected > 0


class TestFamilies:
    def test_zigzag_one_is_x1_shape(self):
        m = zigzag(1)
        assert m.r == 2 and m.delta == 1
        assert compute_faces(m).region_count() == 0

    def test_zigzag_shape(self):
        for n in (2, 3, 4, 5):
            m = zigzag(n)
            faces = compute_faces(m)
            st = classify(m, faces)
            assert m.delta == n
            assert st.region_count == n - 1
            assert st.connected and st.cellular and st.simple

    def test_zigzag_two_matches_lens_invariants(self):
        a = verify_theorem(zigzag(2))
        b = verify_theorem(fixture("LENS"))
        assert (a.mu, a.e, a.f, a.lam) == (b.mu, b.e, b.f, b.lam)

    def test_coil_shape(self):
        for k in (1, 2, 3):
            m = coil(k)
            st = classify(m, compute_faces(m))
            assert m.delta == k and st.region_count == k
            assert st.simple == (k == 1)

    def test_coil_one_matches_loop(self):
        a = verify_theorem(coil(1))
        b = verify_theorem(fixture("LOOP"))
        assert (a.mu, a.e, a.f, a.lam) == (b.mu, b.e, b.f, b.lam)

    def test_family_documents_deterministic(self):
        assert zigzag(4).to_document() == zigzag(4).to_document()
        assert coil(3).to_document() == coil(3).to_document()

    def test_bad_parameters(self):
        with pytest.raises(DivideError):
            zigzag(0)
        with pytest.raises(DivideError):
            coil(0)

    def test_family_scale_inputs_pinned(self):
        # the benchmark's family_scale workload runs on these two documents
        for make, digest in (
                (zigzag, "09a61c781d26b1ea4febe9acbed3e8ea"
                         "33fd6761256bfabdf3256865993642c6"),
                (coil, "b23da101f9915a05fa0a5a3f2f76b3b4"
                       "3071641362c46ab7276f72df1fbe4b36")):
            text = json.dumps(make(1000).to_document())
            assert hashlib.sha256(text.encode()).hexdigest() == digest, make


def test_branch_documents_round_trip():
    # each generator's document is already in the canonical form that
    # to_document emits: one edge per step of each branch, in walk order
    for k in range(1, 41):
        for doc in (zigzag(k).to_document(), coil(k).to_document()):
            assert map_from_document(doc).to_document() == doc, k
    for n in (2, 5, 12):
        for seed in range(100):
            doc = chords_to_map_document(gen_chords(n, seed))
            assert map_from_document(doc).to_document() == doc, (n, seed)


# integer parameters no generator accepts: a bool would read as 0 or 1, a
# float or str would fail deep inside with a bare TypeError or a document
# error
BAD_INT = [True, 2.0, "3", None]

# every integer parameter of the generators and the corpus runner, as
# (label, call with one parameter replaced by x, its name in the message)
INT_PARAMS = [
    ("gen_chords n", lambda x: gen_chords(x, 1), "int n >= 1"),
    ("gen_chords seed", lambda x: gen_chords(2, x), "int seed"),
    ("zigzag n", lambda x: zigzag(x), "int n >= 1"),
    ("coil k", lambda x: coil(x), "int k >= 1"),
    ("run_corpus count", lambda x: run_corpus(x, 5, 1), "int count >= 0"),
    ("run_corpus n", lambda x: run_corpus(1, x, 1), "int n >= 1"),
    ("run_corpus seed", lambda x: run_corpus(1, 5, x), "int seed"),
]


@pytest.mark.parametrize("bad", BAD_INT, ids=repr)
@pytest.mark.parametrize("label, call, what", INT_PARAMS,
                         ids=[p[0] for p in INT_PARAMS])
def test_integer_parameters_rejected(label, call, what, bad):
    with pytest.raises(DivideError, match=f"needs an {what}, got {bad!r}"):
        call(bad)


def test_integer_parameter_guards_survive_optimize():
    # python -O strips assert statements; the guards must still raise
    code = ("from divides import DivideError, coil, gen_chords, run_corpus,"
            " zigzag\n"
            f"for x in {BAD_INT!r}:\n"
            "    for run in (lambda: gen_chords(x, 1),\n"
            "                lambda: gen_chords(2, x), lambda: zigzag(x),\n"
            "                lambda: coil(x), lambda: run_corpus(x, 5, 1),\n"
            "                lambda: run_corpus(1, x, 1),\n"
            "                lambda: run_corpus(1, 5, x)):\n"
            "        try:\n"
            "            run()\n"
            "        except DivideError as exc:\n"
            "            print(exc)\n")
    src = str(Path(divides.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "".join(
        f"{who} needs an {what}, got {x!r}\n"
        for x in BAD_INT
        for who, what in (("gen_chords", "int n >= 1"),
                          ("gen_chords", "int seed"), ("zigzag", "int n >= 1"),
                          ("coil", "int k >= 1"), ("corpus", "int count >= 0"),
                          ("corpus", "int n >= 1"), ("corpus", "int seed")))


class TestFixtures:
    def test_names(self):
        assert fixture_names() == [
            "LENS", "LOOP", "X1", "FIG1", "FIG2A", "FIG2B"]

    def test_all_load_and_validate(self):
        fx = fixtures()
        assert len(fx) == 6
        for name, m in fx.items():
            assert m.r >= 1, name

    def test_unknown_fixture(self):
        # a name outside the list is unknown, whatever its type or case
        for name in ("NOPE", [], {}, None, "x1"):
            with pytest.raises(DivideError) as info:
                fixture(name)
            assert str(info.value) == f"unknown fixture {name!r}", name

    def test_figure_invariants(self):
        f1 = verify_theorem(fixture("FIG1"))
        assert f1.lam == 0 and not f1.stats.cellular
        f2a = verify_theorem(fixture("FIG2A"))
        assert f2a.lam == 2 and not f2a.stats.cellular
        f2b = verify_theorem(fixture("FIG2B"))
        assert f2b.lam == -1 and not f2b.stats.simple
