"""Exact invariants of divides.

A divide is a generic collection of immersed arcs in the unit disk with
endpoints on the boundary circle.  This package encodes one as a
combinatorial planar map, builds its geometric Dynkin diagram, and
computes the Seifert form, homological monodromy, Lefschetz number and
related exact integer invariants, together with generators, a verification
corpus runner and a small CLI (`divide`).
"""

from .divide_map import (
    MINUS, PLUS, DivideError, DivideMap, DivideStats, Faces, classify,
    compute_faces, map_from_document, parse_divide, trace_branches,
)
from .dynkin import (
    Gamma, GammaCounts, body_euler, build_gamma, check_flag_edges, counts,
    gamma_to_dot, has_multi_edge,
)
from .generators import (
    Chord, ChordSet, chords_document, chords_from_document, coil,
    crossing_count, fixture, fixture_names, fixtures, from_chords,
    gen_chords, interleaved, parse_chords, zigzag,
)
from .report import (
    CorpusSummary, DivideReport, build_report, render_text, run_corpus,
    summary_text,
)
from .seifert import (
    TheoremReport, WalkTable, char_poly, is_reciprocal, lefschetz_number,
    matrix_N, monodromy_matrix, newton_power_sums, signature, trace_powers,
    verify_theorem, walk_table,
)
from .walks import adjacency

__version__ = "0.1.0"
