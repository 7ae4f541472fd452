"""Each artifact of the chain is computed once per divide.

Calls are counted by rebinding every ``divides.*`` module attribute that
holds a function, so calls through any ``from .x import f`` binding are
seen.  ``_monodromy`` is the one builder of T, behind both
``monodromy_matrix`` and the record's chain step.  The record's spectral
step, ``TheoremReport._spectrum``, gives the characteristic polynomial and
the kept traces from one climb, with no call of the public ``char_poly``
or ``trace_powers``: max(mu, K) packed products, K = min(12, mu + 2).  A
report or table that asks for k > K traces climbs once more on the same
step, k products, and checks no matrix again.  The record's signature
calls no public ``signature`` either: it eliminates the mu - delta rows of
its regions form, built from the checked N, so a report checks N once.
"""

import io
import sys

import pytest

from divides import (
    TheoremReport, build_report, fixture, from_chords, gen_chords,
    lefschetz_number, packed, run_corpus, seifert, verify_theorem,
    walk_table, zigzag,
)

CHAIN = ("compute_faces", "classify", "build_gamma", "counts", "matrix_N",
         "_monodromy")
KERNELS = ("char_poly", "trace_powers", "signature")

REPORTS = pytest.mark.parametrize(
    "make", [lambda: zigzag(6), lambda: from_chords(gen_chords(8, 101))],
    ids=["zigzag6", "chords8"])


def count_calls(monkeypatch, names, module=seifert):
    """Install call counters for the functions of ``module`` named;
    returns name -> count so far."""
    counted = dict.fromkeys(names, 0)

    def counter(name, real):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return real(*args, **kwargs)
        return wrapper

    modules = [mod for key, mod in list(sys.modules.items())
               if key == "divides" or key.startswith("divides.")]
    for name in names:
        real = getattr(module, name)
        wrapper = counter(name, real)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counted


@pytest.fixture
def calls(monkeypatch):
    return count_calls(monkeypatch, CHAIN + KERNELS)


@pytest.fixture
def steps(monkeypatch):
    """The (k, poly) arguments of every ``TheoremReport._spectrum`` call
    and the number of ``packed.left_mul`` products, as {"spectrum": [...],
    "products": n}."""
    seen = {"spectrum": [], "products": 0}
    spectrum, left_mul = TheoremReport._spectrum, packed.left_mul

    def counted_spectrum(self, k, poly=False):
        seen["spectrum"].append((k, poly))
        return spectrum(self, k, poly)

    def counted_left_mul(*args):
        seen["products"] += 1
        return left_mul(*args)

    monkeypatch.setattr(TheoremReport, "_spectrum", counted_spectrum)
    monkeypatch.setattr(packed, "left_mul", counted_left_mul)
    return seen


def kept(mu):
    return min(seifert.K_DEFAULT, mu + 2)


@REPORTS
def test_build_report_runs_the_chain_once(calls, steps, make):
    m = make()
    rep = build_report(m)
    mu = rep.thm.mu
    assert mu >= 10     # so verify_theorem keeps K_DEFAULT traces
    # one step, no public kernel: the polynomial and the traces share
    # every product
    assert calls == {**dict.fromkeys(CHAIN, 1), **dict.fromkeys(KERNELS, 0)}
    assert steps == {"spectrum": [(kept(mu), True)],
                     "products": max(mu, kept(mu))}


@REPORTS
def test_long_report_climbs_on_the_step(monkeypatch, calls, steps, make):
    # 64 traces, past the kept 12: one more climb of the step, 64
    # products, on the record's checked N and T
    m = make()
    checks = count_calls(monkeypatch, ("_check_rows",))
    rep = build_report(m, k=64)
    mu = rep.thm.mu
    assert len(rep.traces) == 64
    assert calls == {**dict.fromkeys(CHAIN, 1), **dict.fromkeys(KERNELS, 0)}
    assert checks["_check_rows"] == 1
    assert steps == {"spectrum": [(kept(mu), True), (64, False)],
                     "products": max(mu, kept(mu)) + 64}


def test_build_report_extends_short_traces(calls, steps):
    # mu = 1: verify_theorem keeps 3 traces, the report asks for 12, which
    # a second climb of the step gives
    rep = build_report(zigzag(1))
    assert len(rep.traces) == 12
    assert calls["trace_powers"] == calls["char_poly"] == 0
    assert calls["_monodromy"] == 1
    assert steps == {"spectrum": [(kept(1), True), (12, False)],
                     "products": kept(1) + 12}


def test_run_corpus_runs_the_chain_once_per_instance(calls, steps):
    count, csv = 20, io.StringIO()
    assert run_corpus(count, 5, 7, csv_out=csv).ok()
    # the step once, in verify_theorem: the walk sanity checks read Tr(M)
    # and Tr(M^2) off the edge list
    for name in ("compute_faces", "build_gamma", "matrix_N", "_monodromy"):
        assert calls[name] == count, name
    assert calls["char_poly"] == calls["trace_powers"] == 0
    assert [poly for _, poly in steps["spectrum"]] == [True] * count
    mus = [int(row.split(",")[9]) for row in csv.getvalue().split()[1:]]
    assert len(mus) == count
    assert steps["products"] == sum(max(mu, kept(mu)) for mu in mus)


def test_walk_table_reads_the_record(calls, steps):
    # the table reads N, T and the traces off the record verify_theorem
    # built, and builds none of them again; its one trace_powers call is
    # Tr(M^k) of the adjacency matrix
    thm = verify_theorem(from_chords(gen_chords(8, 101)))
    walk_table(thm, 12)
    for name in ("compute_faces", "build_gamma", "matrix_N", "_monodromy"):
        assert calls[name] == 1, name
    assert calls["char_poly"] == 0 and calls["trace_powers"] == 1
    assert steps["spectrum"] == [(12, True)]


def test_walk_table_needs_no_char_poly_or_signature(calls, steps):
    # the step climbs for the kept traces alone: K products, then K for
    # Tr(M^k)
    walk_table(TheoremReport(from_chords(gen_chords(8, 101))), 12)
    assert calls["char_poly"] == calls["signature"] == 0
    assert calls["matrix_N"] == calls["_monodromy"] == 1
    assert steps == {"spectrum": [(12, False)], "products": 12 + 12}


def test_long_walk_table_checks_rows_twice(monkeypatch, calls, steps):
    # N at the chain step and M in the table's trace_powers: 64 traces of
    # T on the step, 64 of M
    m = from_chords(gen_chords(8, 101))
    checks = count_calls(monkeypatch, ("_check_rows",))
    walk_table(TheoremReport(m), 64)
    assert checks["_check_rows"] == 2
    assert calls["char_poly"] == 0 and calls["trace_powers"] == 1
    assert steps == {"spectrum": [(64, False)], "products": 64 + 64}


@REPORTS
def test_build_report_checks_rows_once(monkeypatch, make):
    # N once, at the chain step; the spectral step and the signature read
    # the record's own checked N and T
    m = make()
    checks = count_calls(monkeypatch, ("_check_rows",))
    build_report(m)
    assert checks["_check_rows"] == 1


@REPORTS
@pytest.mark.parametrize("k", [seifert.K_DEFAULT, 64])
def test_report_signature_eliminates_the_regions(monkeypatch, make, k):
    # the double points leave in one step: one elimination, on the mu -
    # delta region basepoints, and no public signature
    sizes, real = [], seifert._signature

    def counted(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(seifert, "_signature", counted)
    m = make()
    calls = count_calls(monkeypatch, ("signature",))
    thm = build_report(m, k=k).thm
    assert thm.gamma.n_double > 0
    assert sizes == [thm.mu - thm.gamma.n_double]
    assert calls["signature"] == 0


def test_run_corpus_checks_rows_once_per_instance(monkeypatch):
    # as a report, without the signature
    count = 20
    checks = count_calls(monkeypatch, ("_check_rows",))
    assert run_corpus(count, 5, 7).ok()
    assert checks["_check_rows"] == count


def test_verify_theorem_fixed_products(monkeypatch):
    # no dense product at all: N, N^2 and N^3 are sparse rows, N^2 formed
    # once for the nilpotency guard and the flag traces; the forward
    # substitution, char_poly and trace_powers multiply no matrices
    assert not hasattr(seifert, "mat_mul")
    assert not hasattr(seifert, "is_zero")
    made = 0
    real = seifert.sparse_mul

    def counted(a, b):
        nonlocal made
        made += 1
        return real(a, b)

    monkeypatch.setattr(seifert, "sparse_mul", counted)
    # FIG2A carries a multi-edge: one entry for several edges
    for m, mu in ((zigzag(6), 11), (fixture("FIG2A"), 4)):
        made = 0
        rep = verify_theorem(m)
        assert rep.mu == mu
        assert made == 2
        made = 0
        assert lefschetz_number(rep.n) == rep.lam
        assert made == 2
        assert all(type(row) is dict for row in rep.n)
        distinct = {(i - 1, j - 1) for i, j in zip(rep.gamma.lo,
                                                   rep.gamma.hi)}
        assert sum(len(row) for row in rep.n) == len(distinct)
    assert len(distinct) < len(rep.gamma.lo)
