import gc
from collections import Counter
from dataclasses import MISSING, fields

import pytest

import divides
from divides import (
    body_euler, build_gamma, check_flag_edges, classify, coil, compute_faces,
    counts, fixture, from_chords, gamma_to_dot, gen_chords, has_multi_edge,
    map_from_document, zigzag,
)
from divides.divide_map import DivideError, DivideMap, Faces
from divides import dynkin
from divides.dynkin import Gamma

import gamma_oracle


def gamma_of(m):
    return build_gamma(m, compute_faces(m))


def sector_edges(g):
    return list(zip(g.lo[:g.n_sector], g.hi[:g.n_sector]))


def segment_edges(g):
    return list(zip(g.lo[g.n_sector:], g.hi[g.n_sector:]))


def multiplicities(g):
    """Edge multiplicity per vertex pair (i, j)."""
    return Counter(zip(g.lo, g.hi))


class TestBuildGamma:
    def test_x1_single_vertex(self):
        g = gamma_of(fixture("X1"))
        assert g.mu == 1
        assert (g.lo, g.hi, g.n_sector) == ((), (), 0)
        assert (g.n_minus, g.n_double, g.n_plus) == (0, 1, 0)

    def test_loop(self):
        g = gamma_of(fixture("LOOP"))
        assert g.mu == 2
        assert (g.n_minus, g.n_double, g.n_plus) == (1, 1, 0)
        assert len(g.lo) == len(g.hi) == 1
        assert g.n_sector == 1
        assert multiplicities(g) == {(1, 2): 1}

    def test_lens(self):
        g = gamma_of(fixture("LENS"))
        assert g.mu == 3
        assert (g.n_minus, g.n_double, g.n_plus) == (1, 2, 0)
        assert multiplicities(g) == {(1, 2): 1, (1, 3): 1}
        pairs = sorted(zip(g.lo, g.hi))
        assert pairs == [(1, 2), (1, 3)]
        assert g.n_sector == len(g.lo)

    def test_zigzag3_path(self):
        g = gamma_of(zigzag(3))
        c = counts(g)
        assert (c.mu, c.e, c.f) == (5, 4, 0)
        # the diagram is a 5-vertex path: every vertex has degree <= 2
        deg = {}
        for i, j in zip(g.lo, g.hi):
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        assert sorted(deg.values()) == [1, 1, 2, 2, 2]

    def test_fig2a_multi_edge_and_segment_species(self):
        g = gamma_of(fixture("FIG2A"))
        assert has_multi_edge(g)
        # minus x double sector multiplicities 1 and 2, one segment edge
        sectors = Counter(sector_edges(g))
        assert sorted(k for (i, _), k in sectors.items()
                      if i <= g.n_minus) == [1, 2]
        assert sum(Counter(segment_edges(g)).values()) == 1
        assert len(g.lo) - g.n_sector == 1

    def test_numbering_contiguous(self, zoo):
        for name, m in zoo:
            g = gamma_of(m)
            assert g.n_double == m.delta, name
            assert g.mu == m.delta + compute_faces(m).region_count(), name
            first_double = g.n_minus + 1
            first_plus = first_double + g.n_double
            for k, (i, j) in enumerate(zip(g.lo, g.hi)):
                assert 1 <= i < j <= g.mu, name
                if k >= g.n_sector:         # minus basepoint -- plus one
                    assert i < first_double and j >= first_plus, name
                else:                       # one end is a double point
                    assert (first_double <= i < first_plus) != \
                        (first_double <= j < first_plus), name
            # the DOT node lines name m..., then d..., then p..., 1..mu
            nodes = [line.split()[0] for line in gamma_to_dot(g).splitlines()
                     if "shape=" in line]
            assert nodes == ([f"m{v}" for v in range(1, first_double)]
                             + [f"d{v}" for v in range(first_double,
                                                       first_plus)]
                             + [f"p{v}" for v in range(first_plus,
                                                       g.mu + 1)]), name

    def test_segment_joining_one_sign_raises(self):
        # FIG2A has a segment edge; re-signing one of its two regions
        # makes that segment join two regions of one sign
        m = fixture("FIG2A")
        faces = compute_faces(m)
        assert segment_edges(build_gamma(m, faces))
        fi = faces.regions[0]
        resigned = list(faces.signs)
        resigned[fi] = -resigned[fi]
        bad = Faces(signs=tuple(resigned), regions=faces.regions)
        with pytest.raises(DivideError, match="two regions of one sign"):
            build_gamma(m, bad)

    def test_sector_count_bounded(self, zoo):
        for name, m in zoo:
            g = gamma_of(m)
            at = Counter()
            for (i, j), k in Counter(sector_edges(g)).items():
                at[j if i <= g.n_minus else i] += k
            assert set(at) <= set(range(g.n_minus + 1,
                                        g.n_minus + g.n_double + 1)), name
            assert all(k <= 4 for k in at.values()), name


class TestCounts:
    def test_x1(self):
        c = counts(gamma_of(fixture("X1")))
        assert (c.mu, c.e, c.f) == (1, 0, 0)

    def test_lens_euler(self):
        c = counts(gamma_of(fixture("LENS")))
        assert (c.mu, c.e, c.f) == (3, 2, 0)
        assert c.mu - c.e + c.f == 1

    def test_fig2a_flags_with_multiplicity(self):
        c = counts(gamma_of(fixture("FIG2A")))
        assert (c.mu, c.e, c.f) == (4, 5, 2)


class TestBodyEuler:
    def test_values(self):
        expected = {"X1": 1, "LOOP": 1, "LENS": 1, "FIG2A": 1, "FIG1": 3}
        for name, chi in expected.items():
            m = fixture(name)
            assert body_euler(m, compute_faces(m)) == chi, name

    def test_coil_family(self):
        # k isolated curl bodies, each a disk
        for k in (2, 3, 4):
            m = coil(k)
            assert body_euler(m, compute_faces(m)) == k

    def test_simple_implies_chi_one(self, zoo):
        for name, m in zoo:
            faces = compute_faces(m)
            if classify(m, faces).simple:
                assert body_euler(m, faces) == 1, name


class TestFlagEdges:
    def test_lens_empty(self):
        assert check_flag_edges(gamma_of(fixture("LENS"))) == []

    def test_zigzag4_empty(self):
        assert check_flag_edges(gamma_of(zigzag(4))) == []

    def test_fig2a_closed(self):
        # diagnostic only on non-cellular divides; here the one flag pair
        # does have its closing segment edge
        assert check_flag_edges(gamma_of(fixture("FIG2A"))) == []

    def test_detects_missing_closing_edge(self):
        # sector edges 1 -- 2 and 2 -- 3, then the closing segment 1 -- 3
        g = Gamma(lo=(1, 2), hi=(2, 3), n_sector=2,
                  n_minus=1, n_double=1, n_plus=1)
        assert check_flag_edges(g) == [(1, 2, 3)]
        closed = Gamma(lo=(1, 2, 1), hi=(2, 3, 3), n_sector=2,
                       n_minus=1, n_double=1, n_plus=1)
        assert check_flag_edges(closed) == []

    def test_one_sector_end_scan(self):
        # each call scans the sector ends once, from the two arrays, and
        # keeps nothing for the next call; check_flag_edges also reads the
        # segment edges once, for the closing edges
        reads = []

        class Reads(tuple):
            def __iter__(self):
                reads.append((self.name, "all"))
                return super().__iter__()

            def __getitem__(self, key):
                reads.append((self.name, key))
                return super().__getitem__(key)

        def watched(name, values):
            arr = Reads(values)
            arr.name = name
            return arr

        def calls(fn):
            reads.clear()
            result = fn(g)
            return result, sorted(reads, key=repr)

        plain = gamma_of(fixture("FIG2A"))
        ns = plain.n_sector
        g = Gamma(lo=watched("lo", plain.lo), hi=watched("hi", plain.hi),
                  n_sector=ns, n_minus=plain.n_minus,
                  n_double=plain.n_double, n_plus=plain.n_plus)
        sector = [("hi", slice(None, ns)), ("lo", slice(None, ns))]
        segment = [("hi", slice(ns, None)), ("lo", slice(ns, None))]
        assert calls(counts) == (counts(plain), sector)
        assert calls(check_flag_edges) == \
            (check_flag_edges(plain), sorted(sector + segment, key=repr))
        assert calls(counts) == (counts(plain), sector)

    def test_no_containers_left_behind(self):
        # counts and check_flag_edges keep no per-double-point lists: with
        # the collector off, the tracked objects grow by their two results
        g = gamma_of(zigzag(1000))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            c, missing = counts(g), check_flag_edges(g)
            after = len(gc.get_objects())
        finally:
            gc.enable()
        assert c.f == 0 and missing == []
        assert after - before <= 2
        assert set(vars(g)) == {f.name for f in fields(Gamma)}


class TestDot:
    def test_x1(self):
        dot = gamma_to_dot(gamma_of(fixture("X1")))
        assert dot.count("shape=circle") == 1
        assert "--" not in dot

    def test_loop(self):
        dot = gamma_to_dot(gamma_of(fixture("LOOP")))
        assert dot.count("shape=box") == 1
        assert dot.count("--") == 1

    def test_lens(self):
        dot = gamma_to_dot(gamma_of(fixture("LENS")))
        assert dot.count("shape=circle") == 2
        assert dot.count("--") == 2

    def test_deterministic(self):
        g = gamma_of(zigzag(4))
        assert gamma_to_dot(g) == gamma_to_dot(g)

    def test_node_names(self):
        dot = gamma_to_dot(gamma_of(fixture("FIG2A")))
        assert "m1" in dot and "d2" in dot and "d3" in dot and "p4" in dot
        assert "style=dashed" in dot      # the one segment edge


def oracle_cases(zoo):
    cases = list(zoo)
    cases += [(f"zigzag({n})", zigzag(n)) for n in range(1, 7)]
    cases += [(f"coil({k})", coil(k)) for k in range(1, 7)]
    cases += [(f"chords({n},{s})", from_chords(gen_chords(n, s)))
              for n in range(5, 11) for s in range(100, 105)]
    return cases


@pytest.mark.parametrize("flip", [False, True])
def test_edge_list_matches_block_oracle(zoo, flip):
    for name, m in oracle_cases(zoo):
        faces = compute_faces(m)
        if flip:
            faces = faces.flipped()
        assert gamma_oracle.library_readings(m, faces) \
            == gamma_oracle.readings(m, faces), name


def contract_cases(zoo):
    cases = list(zoo)                   # the fixtures among them
    cases += [(f"{family.__name__}({k})", family(k))
              for family in (zigzag, coil) for k in (1, 2, 5, 50)]
    cases += [(f"chords({n},{s})", from_chords(gen_chords(n, s)))
              for n in range(1, 13) for s in range(5)]
    return cases


def test_edge_array_contract(zoo):
    # two int arrays, one entry per edge and multiplicity, sector edges
    # first; the multiplicities per species are the dense blocks' entries
    for name, m in contract_cases(zoo):
        faces = compute_faces(m)
        g = build_gamma(m, faces)
        nm, nd = g.n_minus, g.n_double
        assert type(g.lo) is tuple and type(g.hi) is tuple, name
        assert len(g.lo) == len(g.hi), name
        assert 0 <= g.n_sector <= len(g.lo), name
        assert all(type(v) is int for v in g.lo + g.hi), name
        assert all(1 <= i < j <= g.mu for i, j in zip(g.lo, g.hi)), name
        double = range(nm + 1, nm + nd + 1)
        for i, j in sector_edges(g):
            assert (i in double) != (j in double), name
        for i, j in segment_edges(g):
            assert i <= nm and j > nm + nd, name

        bl = gamma_oracle.build_blocks(m, faces)
        assert (bl.n_minus, bl.n_double, bl.n_plus) == \
            (nm, nd, g.n_plus), name
        sectors = Counter()
        for b, row in enumerate(bl.A):
            for d, k in enumerate(row):
                sectors[(b + 1, nm + d + 1)] += k
        for d, row in enumerate(bl.B):
            for p, k in enumerate(row):
                sectors[(nm + d + 1, nm + nd + p + 1)] += k
        segments = Counter()
        for b, row in enumerate(bl.C):
            for p, k in enumerate(row):
                segments[(b + 1, nm + nd + p + 1)] += k
        assert Counter(sector_edges(g)) == +sectors, name
        assert Counter(segment_edges(g)) == +segments, name


def test_diagram_stage_at_scale():
    # mu about 2 * 10^4: quadratic blocks would hold about 10^8 entries
    k = 10000
    for m, expected in ((zigzag(k), (2 * k - 1, 2 * k - 2, 0)),
                        (coil(k), (2 * k, k, 0))):
        faces = compute_faces(m)
        classify(m, faces)
        g = build_gamma(m, faces)
        c = counts(g)
        assert (c.mu, c.e, c.f) == expected
        assert check_flag_edges(g) == []
        assert not has_multi_edge(g)
        assert gamma_to_dot(g).count(" -- ") == c.e


def test_front_end_at_scale():
    # the whole topology front end from the document, mu about 4 * 10^4:
    # (mu, e, f, chi_body, connected, cellular, simple) in closed form
    k = 20000
    for family, expected in (
            (zigzag, (2 * k - 1, 2 * k - 2, 0, 1, True, True, True)),
            (coil, (2 * k, k, 0, k, True, True, False))):
        m = map_from_document(family(k).to_document())
        faces = compute_faces(m)
        st = classify(m, faces)
        g = build_gamma(m, faces)
        c = counts(g)
        got = (c.mu, c.e, c.f, body_euler(m, faces),
               st.connected, st.cellular, st.simple)
        assert got == expected, family.__name__
        assert check_flag_edges(g) == []
        assert gamma_to_dot(g).count("\n") == c.mu + c.e + 3


class TestRecords:
    """Faces, the diagram and its edge arrays are immutable records."""

    def test_fields_cannot_be_assigned(self):
        m = fixture("LENS")
        faces = compute_faces(m)
        g = build_gamma(m, faces)
        for arr in (g.lo, g.hi):
            with pytest.raises(TypeError):
                arr[0] = 0
        for record, names in (
                (faces, ("signs", "regions")),
                (g, ("lo", "hi", "n_sector", "n_minus", "n_double",
                     "n_plus"))):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)

    def test_edge_defaults(self):
        # an edge is its two ends, an index into two int arrays, and its
        # species is whether that index is below n_sector; nothing optional
        assert [f.name for f in fields(Gamma)] == \
            ["lo", "hi", "n_sector", "n_minus", "n_double", "n_plus"]
        assert all(f.default is MISSING and f.default_factory is MISSING
                   for f in fields(Gamma))
        assert Gamma.__dataclass_params__.frozen
        g = Gamma(lo=(1,), hi=(3,), n_sector=0,
                  n_minus=1, n_double=1, n_plus=1)
        assert (g.lo[0], g.hi[0], g.n_sector) == (1, 3, 0)
        for name in ("GammaEdge", "SECTOR", "SEGMENT"):
            assert not hasattr(dynkin, name), name
            assert not hasattr(divides, name), name

    def test_face_fields(self):
        # a face is an index: its walk is m.face_walks[fi], its sign
        # faces.signs[fi], and the face of dart d is m.dart_walk[d]; an edge
        # is a dart pair, with no end tuples
        assert [f.name for f in fields(Faces)] == ["signs", "regions"]
        assert [f.name for f in fields(DivideMap)] == \
            ["endpoints", "crossings", "rotations", "dart_vertex",
             "dart_pos", "face_walks", "dart_walk"]
        assert Faces.__dataclass_params__.frozen
        for name in ("Face", "OUTER", "REGION"):
            assert not hasattr(divides, name), name
