"""The fault-reach table: every graded check fails under a named fault.

Each fault is monkeypatched into one stage of the chain, and the inputs
are graded in turn until every check the table names for that fault has
failed on some input.  The inputs are the fixtures, zigzag and coil(1, 2,
3, 5, 8) and ``gen_chords(2, 3, 5, 8; seeds 0..39)`` through
``verify_theorem``, then the instances of ``run_corpus(60, n, 1)``, n = 3,
5, 8, one at a time, for the corpus-level checks.  The checks no fault
reaches are pinned too: a check that can no longer fail, or a new check
with no fault of its own, fails the test.
"""

from dataclasses import replace

from divides import (
    coil, fixtures, from_chords, gen_chords, report, run_corpus, seifert,
    verify_theorem, zigzag,
)

# checks that cannot fail by construction (ROADMAP item 11)
UNREACHED = {"n_cube_zero", "det_seifert_one", "walk_trace_M_zero"}


def drop_n_entry(n):
    for row in n:
        if row:
            del row[next(iter(row))]
            break
    return n


def set_n_entry_two(n):
    for row in n:
        if row:
            row[next(iter(row))] = 2
            break
    return n


def add_t_entry(t):
    # the first diagonal entry T_ii = 0 becomes 1: Tr(T) moves by one
    for i, row in enumerate(t):
        if i not in row:
            row[i] = 1
            break
    return t


def drop_segment_edge(g):
    ns = g.n_sector
    return replace(g, lo=g.lo[:ns] + g.lo[ns + 1:],
                   hi=g.hi[:ns] + g.hi[ns + 1:])


def spectrum_fault(change):
    real = seifert._spectrum

    def faulty(t, terms, k, poly=False):
        cp, traces = real(t, terms, k, poly)
        return change(cp, traces)
    return faulty


def constant_plus_two(cp, traces):
    return cp and [cp[0] + 2, *cp[1:]], traces


def a1_plus_one(cp, traces):
    # constant term first: a_1, of lambda^(mu - 1), is cp[-2]
    if cp is not None and len(cp) > 1:
        cp = cp[:-2] + [cp[-2] + 1, cp[-1]]
    return cp, traces


def tr2_plus_one(cp, traces):
    return cp, traces[:1] + [traces[1] + 1] + traces[2:]


def wrap(module, name, change):
    real = getattr(module, name)
    return module, name, lambda *args: change(real(*args))


# fault: (module, attribute, replacement), and the checks it must fail
FAULTS = {
    "matrix_N drops one entry": (
        wrap(seifert, "matrix_N", drop_n_entry),
        {"cellular_trace_nn_eq_e", "simple_cellular_lambda_zero",
         "slalom_lambda_zero", "walk_handshake_2e"}),
    "matrix_N sets one entry to 2": (
        wrap(seifert, "matrix_N", set_n_entry_two),
        {"cellular_entries_01"}),
    "_monodromy gains one entry": (
        wrap(seifert, "_monodromy", add_t_entry),
        {"lefschetz_two_routes"}),
    "_spectrum constant + 2": (
        (seifert, "_spectrum", spectrum_fault(constant_plus_two)),
        {"det_monodromy_one", "charpoly_reciprocal"}),
    "_spectrum a_1 + 1": (
        (seifert, "_spectrum", spectrum_fault(a1_plus_one)),
        {"newton_matches_traces"}),
    "_spectrum Tr(T^2) + 1": (
        (seifert, "_spectrum", spectrum_fault(tr2_plus_one)),
        {"newton_matches_traces"}),
    "counts f + 1": (
        wrap(seifert, "counts", lambda c: replace(c, f=c.f + 1)),
        {"slalom_equiv_n2_f", "cellular_trace_n2n_eq_f",
         "simple_cellular_euler_one"}),
    "counts e + 1": (
        wrap(seifert, "counts", lambda c: replace(c, e=c.e + 1)),
        {"cellular_trace_nn_eq_e"}),
    "body_euler + 1": (
        wrap(seifert, "body_euler", lambda chi: chi + 1),
        {"simple_chi_body_one"}),
    "build_gamma drops a segment edge": (
        wrap(seifert, "build_gamma", drop_segment_edge),
        {"cellular_flags_closed"}),
    "crossing_count + 1": (
        wrap(report, "crossing_count", lambda delta: delta + 1),
        {"delta_matches_interleaving_oracle"}),
    "classify reports not cellular": (
        wrap(seifert, "classify", lambda st: replace(st, cellular=False)),
        {"chord_connected_implies_cellular"}),
}


def maps():
    yield from fixtures().values()
    for family in (zigzag, coil):
        for k in (1, 2, 3, 5, 8):
            yield family(k)
    for n in (2, 3, 5, 8):
        for s in range(40):
            yield from_chords(gen_chords(n, s))


def failures():
    """The failed checks of each input in turn, graded on demand."""
    for m in maps():
        yield set(verify_theorem(m).failed())
    for n in (3, 5, 8):
        for s in range(1, 61):
            yield {name for _, name in run_corpus(1, n, s).discrepancies}


def all_checks():
    cs = gen_chords(5, 7)
    m = from_chords(cs)
    thm = verify_theorem(m)
    return {*thm.checks, *report._corpus_checks(cs, thm, m)}


def test_every_check_fails_under_a_named_fault(monkeypatch):
    checks = all_checks()
    reached = set()
    for fault, ((module, name, replacement), expected) in FAULTS.items():
        seen = set()
        with monkeypatch.context() as mp:
            mp.setattr(module, name, replacement)
            for failed in failures():
                seen |= failed
                if expected <= seen:
                    break
        assert expected - seen == set(), fault
        assert seen & UNREACHED == set(), fault
        reached |= expected
    assert reached <= checks
    assert checks - reached == UNREACHED
