"""Random slot matchings against the parser and the theorem.

A divide-map/1 document with 1-3 branches and 0-4 crossings is drawn by
matching all of its slots at random.  Most such documents are not divides
(closed components, slot pairs that cannot embed in the disk); the parser
or the chain must then raise DivideError.  Every document it accepts must
pass every hard check of the theorem, and its edge-list diagram and its
classification must read the same as the dense block and union-find
oracles under both sign normalizations.  Unlike chord arrangements,
these maps include multi-edge and non-cellular diagrams.
"""

from hypothesis import given, settings, strategies as st

from divides import (
    DivideError, classify, compute_faces, has_multi_edge, map_from_document,
    verify_theorem,
)

import classify_oracle
import gamma_oracle

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


@st.composite
def slot_matchings(draw):
    n_branches = draw(st.integers(1, 3))
    n_crossings = draw(st.integers(0, 4))
    endpoints = [f"e{i}" for i in range(1, 2 * n_branches + 1)]
    crossings = [f"c{i}" for i in range(1, n_crossings + 1)]
    slots = [[e, 0] for e in endpoints] + \
        [[c, s] for c in crossings for s in range(4)]
    order = draw(st.permutations(slots))
    return {
        "format": "divide-map/1",
        "endpoints": endpoints,
        "crossings": crossings,
        "edges": [{"a": a, "b": b} for a, b in zip(order[::2], order[1::2])],
    }


def test_slot_matchings_are_rejected_or_pass_every_check():
    # the draws must reach the diagrams chord arrangements never give
    seen = set()

    @PROPERTY
    @given(slot_matchings())
    def check(doc):
        try:
            m = map_from_document(doc)
            thm = verify_theorem(m)
        except DivideError:
            seen.add("rejected")
            return
        assert thm.failed() == [], doc
        faces = compute_faces(m)
        for signed in (faces, faces.flipped()):
            assert gamma_oracle.library_readings(m, signed) \
                == gamma_oracle.readings(m, signed), doc
            assert classify(m, signed) == classify_oracle.classify(m, signed), doc
        seen.add("valid")
        if has_multi_edge(thm.gamma):
            seen.add("multi-edge")
        if not thm.stats.cellular:
            seen.add("non-cellular")
        if not thm.stats.connected:
            seen.add("disconnected")
        elif not thm.stats.simple:
            seen.add("connected but not simple")

    check()
    assert seen == {"rejected", "valid", "multi-edge", "non-cellular",
                    "disconnected", "connected but not simple"}
