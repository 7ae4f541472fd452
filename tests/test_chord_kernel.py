"""The integer chord-arrangement kernel against the Fraction oracle.

Chord sets are drawn on gen_chords' parameter grid, and on a coarse grid
closed under the antipode t -> -1/t, where duplicate endpoints and
concurrent diameters are common, and as reduced pairs (a, b) drawn from
wide integers.  On every set the kernel and the oracle reach the same
verdict; on generic sets they give the same crossing points and the same
divide-map/1 document.
"""

import sys
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from divides import (
    Chord, ChordSet, DivideError, chords_document, chords_from_document,
    from_chords, gen_chords, interleaved,
)
from divides.generators import (
    _GRID, _arrangement, _grid_param, chords_to_map_document,
)
from divides.render import render_chords_svg

import chord_oracle

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def pair(t: F):
    return (t.numerator, t.denominator)


def antipode(t):
    if t is None:
        return (0, 1)
    return None if t == (0, 1) else pair(-1 / F(*t))


_COARSE = [None, (0, 1)] + [(s * a, b) for s in (1, -1)
                            for a, b in ((1, 1), (2, 1), (3, 1), (1, 2),
                                         (1, 3), (2, 3), (3, 2))]
assert all(antipode(t) in _COARSE for t in _COARSE)

grid = st.integers(-_GRID + 1, _GRID).map(_grid_param)
coarse = st.sampled_from(_COARSE)
wide = st.one_of(st.none(), st.builds(
    lambda a, b: pair(F(a, b)), st.integers(-2 ** 70, 2 ** 70),
    st.integers(1, 2 ** 70)))
grid_sets = st.lists(st.builds(Chord, grid, grid), min_size=1, max_size=7)
wide_sets = st.lists(st.builds(Chord, wide, wide), min_size=1, max_size=5)
# diameters (t, -1/t) all pass through the center: three make a violation
coarse_sets = st.builds(
    lambda diameters, chords: diameters + chords,
    st.lists(coarse.map(lambda t: Chord(t, antipode(t))), max_size=4,
             unique_by=lambda c: frozenset(c.params())),
    st.lists(st.builds(Chord, coarse, coarse), max_size=3),
).filter(len)


def kernel_verdict(chords):
    try:
        _arrangement(chords)
    except DivideError as exc:
        return str(exc)
    return None


def oracle_verdict(chords):
    try:
        violation = chord_oracle.check_general_position(chords)
    except DivideError as exc:
        return str(exc)
    return violation and f"general-position violation: {violation}"


def assert_agrees(chords):
    verdict = kernel_verdict(chords)
    assert verdict == oracle_verdict(chords)
    if verdict is None:
        arr = _arrangement(chords)
        assert [(F(x, w), F(y, w)) for x, y, w in arr.points] \
            == chord_oracle.crossing_points(chords)
        assert chords_to_map_document(ChordSet(chords=tuple(chords))) \
            == chord_oracle.chords_to_map_document(chords)
    return verdict


@PROPERTY
@given(grid_sets)
def test_kernel_matches_oracle_on_the_generator_grid(chords):
    assert_agrees(chords)


@PROPERTY
@given(wide_sets)
def test_kernel_matches_oracle_on_wide_pairs(chords):
    assert_agrees(chords)
    for a in chords:
        for b in chords:
            assert interleaved(a, b) == chord_oracle.interleaved(a, b)


def test_kernel_matches_oracle_on_the_antipodal_grid():
    # this grid is there for its violations, so all verdicts must occur
    verdicts = set()

    @PROPERTY
    @given(coarse_sets)
    def collect(chords):
        verdicts.add(assert_agrees(chords))

    collect()
    assert verdicts == {
        None,
        "general-position violation: duplicate circle parameter",
        "general-position violation: three chords concurrent",
    }


def test_generated_sets_match_oracle():
    for n in range(5, 9):
        for seed in range(100, 105):
            assert assert_agrees(list(gen_chords(n, seed).chords)) is None


def test_concurrent_off_center():
    # the x-axis and two more chords meet at (1/2, 0), off the center
    chords = [Chord((0, 1), None)]
    for s in ((1, 3), (1, 2)):
        # the line from the circle point p of s through q = (1/2, 0)
        # leaves the circle at p + k (q - p), with parameter y / (1 + x)
        x, y = chord_oracle.circle_point(s)
        dx, dy = F(1, 2) - x, -y
        k = -2 * (x * dx + y * dy) / (dx * dx + dy * dy)
        px, py = x + k * dx, y + k * dy
        chords.append(Chord(s, pair(py / (1 + px))))
    assert oracle_verdict(chords) == kernel_verdict(chords) \
        == "general-position violation: three chords concurrent"


def test_each_caller_runs_the_kernel_once(monkeypatch):
    # the general-position check of gen_chords and chords_from_document
    # reads the set's cached arrangement, and the map and the picture reuse it
    runs = 0
    real = _arrangement

    def counted(chords):
        nonlocal runs
        runs += 1
        return real(chords)

    for key, mod in list(sys.modules.items()):
        if key == "divides" or key.startswith("divides."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    cs = gen_chords(6, 12)
    assert cs.rejections == 0
    from_chords(cs)
    assert runs == 1
    render_chords_svg(cs)
    assert runs == 1
    runs = 0
    from_chords(chords_from_document(chords_document(cs)))
    assert runs == 1
    # a set built by hand builds it on its first read
    runs = 0
    from_chords(ChordSet(chords=cs.chords))
    assert runs == 1
