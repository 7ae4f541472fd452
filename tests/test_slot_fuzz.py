"""Random slot matchings against the parser and the theorem.

A divide-map/1 document with 1-3 branches and 0-4 crossings is drawn by
matching all of its slots at random.  Most such documents are not divides
(closed components, slot pairs that cannot embed in the disk); the parser
or the chain must then raise DivideError.  Every map the parser accepts
must rebuild from its own document and end its face walks with the
outside of the disk.  Every document the chain accepts must pass every
hard check of the theorem, and its edge-list diagram and its
classification must read the same as the dense block and union-find
oracles under both sign normalizations, its signature from the record's
regions form the public kernel's and the dense elimination's, and its
traces Tr(T^k) up to K_CAP, past the kept ones, Newton's power sums of its
polynomial and the dense powers of T.  Unlike chord arrangements, these
maps include multi-edge and non-cellular diagrams; one explicit example
adds a regions form whose elimination ends on a 2x2 block.
"""

from hypothesis import example, given, settings, strategies as st

from divides import (
    DivideError, classify, compute_faces, has_multi_edge, map_from_document,
    newton_power_sums, signature, verify_theorem,
)
from divides.seifert import K_CAP

import algebra_oracle
import classify_oracle
import gamma_oracle

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


# One immersed arc with 7 self-crossings (mu = 14), found by drawing
# matchings of that size: the elimination of its signature form, and of
# the record's regions form, ends on a 2x2 block.
# Matchings within the drawn sizes never needed one on the signature form
# (none in 20000 draws with 4 crossings), so it rides along as an
# explicit example.
BLOCK_DOC = {
    "format": "divide-map/1",
    "endpoints": ["e1", "e2"],
    "crossings": ["c1", "c2", "c3", "c4", "c5", "c6", "c7"],
    "edges": [
        {"a": ["c6", 2], "b": ["c2", 2]},
        {"a": ["c1", 0], "b": ["c1", 1]},
        {"a": ["c6", 3], "b": ["c2", 1]},
        {"a": ["c7", 1], "b": ["c3", 1]},
        {"a": ["e1", 0], "b": ["c3", 3]},
        {"a": ["c7", 2], "b": ["c2", 0]},
        {"a": ["c3", 2], "b": ["c1", 2]},
        {"a": ["c5", 3], "b": ["c6", 1]},
        {"a": ["c4", 3], "b": ["c4", 0]},
        {"a": ["c5", 1], "b": ["c1", 3]},
        {"a": ["c7", 0], "b": ["c5", 2]},
        {"a": ["c2", 3], "b": ["c7", 3]},
        {"a": ["c6", 0], "b": ["c3", 0]},
        {"a": ["c4", 2], "b": ["e2", 0]},
        {"a": ["c5", 0], "b": ["c4", 1]},
    ],
}


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


def test_slot_matchings_are_rejected_or_pass_every_check(monkeypatch):
    # the draws must reach the diagrams chord arrangements never give
    seen = set()
    blocks = algebra_oracle.BlockPivots(monkeypatch)

    @PROPERTY
    @example(BLOCK_DOC)
    @given(slot_matchings())
    def check(doc):
        try:
            m = map_from_document(doc)
        except DivideError:
            seen.add("rejected")
            return
        # the map re-emits a document that builds it again, and its last
        # walk is its one all-arc walk: the outside of the disk
        again = map_from_document(m.to_document())
        assert again == m and again.face_walks == m.face_walks, doc
        boundary = 2 * m.n_divide_edges
        all_arc = [w for w in m.face_walks if min(w) >= boundary]
        assert all_arc == [m.face_walks[-1]], doc
        try:
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
        # a 2x2 block counts only when the record's regions form takes one
        before = blocks.count
        sig = thm.signature
        if blocks.count > before:
            seen.add("2x2 block")
        assert sig == signature(thm.n) == algebra_oracle.signature(
            algebra_oracle.dense(thm.n)), doc
        # mu <= 14 here, so K_CAP traces take the record's long climb
        assert thm.traces_to(K_CAP) == newton_power_sums(
            thm.char_poly, K_CAP) == algebra_oracle.trace_powers(
            algebra_oracle.dense(thm.t), K_CAP), doc
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
                    "disconnected", "connected but not simple", "2x2 block"}
