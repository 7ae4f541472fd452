"""The record's climb against the public kernels.

``seifert._spectrum`` on the record's T and row program gives the
characteristic polynomial and the kept traces Tr(T^k), k = 1..K with K =
min(12, mu + 2), from one climb: each product carries Faddeev-LeVerrier's
M_(k-1) in block 0 and T^(k-1) in block 1 of the same packed rows, by N's
factored program.  The public ``char_poly`` and ``trace_powers`` run the
same loop with one block each, on T's own rows, and are its slow twin:
both pairs must be equal on the zoo, the
zigzag and coil families, chord sets and the 25 documents of the
benchmark's chord_report workload, at the default first rung and at
first rungs of 1, 2 and 5 bits.  Known shapes are pinned on their own:
K > mu, where P_mu is read off block 0 and block 0 rides on beside T^k,
K = mu, mu = 0, and a chord set whose T^K leaves the rung at product K
while Faddeev's product stays on it, where the rung must not widen.  A
fault in block 1's read must fail the Newton grade while the polynomial
stays right: the two blocks are two routes.  Where block 0 rides on, a
fault in its read at product mu, which keeps every Faddeev division
exact, must raise at the Cayley-Hamilton test, also under ``python -O``.

The record's signature is delta + sig(R), R = 2 Q_BB - Q_BD Q_DB the
regions form on the mu - delta region basepoints B of Q = 2 Id + N + tN,
whose block on the double points D is 2 Id.  The public ``signature``
eliminates all of Q and is its slow twin on the same inputs and on
``gen_chords(100, 1)``.  An N edited to join two double points must raise
``ValueError``, also under ``python -O``.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divides
from divides import (
    TheoremReport, char_poly, chords_from_document, coil, from_chords,
    gen_chords, packed, seifert, signature, trace_powers, verify_theorem,
    zigzag,
)
from divides.seifert import sparse_mul

import algebra_oracle
from algebra_oracle import dense

BENCH = Path(__file__).resolve().parents[1] / "bench"


def chord_report_documents():
    """The 25 documents of the benchmark's chord_report workload, as
    bench/workloads.py samples them."""
    spec = importlib.util.spec_from_file_location(
        "chord_report_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ChordReport(divides, 1, {}).docs


@pytest.fixture(scope="module")
def records(zoo):
    """(name, record, public char_poly and kept traces) per divide: the
    zoo, zigzag and coil(1..30), gen_chords(n, 0..19) for n in 2, 3, 5, 8,
    12, 16, 20 and the 25 chord_report documents."""
    maps = list(zoo)
    maps += [(f"{f.__name__}({k})", f(k)) for f in (zigzag, coil)
             for k in range(1, 31)]
    maps += [(f"chords({n}, {s})", from_chords(gen_chords(n, s)))
             for n in (2, 3, 5, 8, 12, 16, 20) for s in range(20)]
    docs = chord_report_documents()
    assert len(docs) == 25
    maps += [(f"chord_report[{i}]", from_chords(chords_from_document(d)))
             for i, d in enumerate(docs)]
    out = []
    for name, m in maps:
        thm = TheoremReport(m)
        k = min(seifert.K_DEFAULT, thm.mu + 2)
        out.append((name, thm, (char_poly(thm.t), trace_powers(thm.t, k))))
    return out


@pytest.mark.parametrize("bits", [seifert.FIRST_RUNG_BITS, 1, 2, 5])
def test_step_matches_public_kernels(monkeypatch, records, bits):
    monkeypatch.setattr(seifert, "FIRST_RUNG_BITS", bits)
    shapes = set()
    for name, thm, want in records:
        k = len(want[1])
        assert seifert._spectrum(thm.t, thm._terms, k, True) == want, name
        assert seifert._spectrum(thm.t, thm._terms, k) == (None, want[1]), \
            name
        if bits != seifert.FIRST_RUNG_BITS:
            assert (char_poly(thm.t), trace_powers(thm.t, k)) == want, name
        shapes.add("K > mu" if k > thm.mu else "K = mu" if k == thm.mu
                   else "K < mu")
    assert shapes == {"K > mu", "K = mu", "K < mu"}


@pytest.mark.parametrize("m, mu", [(zigzag(3), 5), (coil(6), 12),
                                   (zigzag(7), 13)],
                         ids=["K>mu", "K=mu", "K<mu"])
def test_step_products(monkeypatch, m, mu):
    # two blocks while both climbs run: max(mu, K) products.  T^K ends
    # first and Faddeev's climb runs on alone on one block; P_mu ends
    # first and block 0 rides on, so every product has two blocks
    thm = TheoremReport(m)
    k = min(seifert.K_DEFAULT, mu + 2)
    assert thm.mu == mu
    rungs = algebra_oracle.Rungs(monkeypatch)
    cp, traces = thm.char_poly, thm.traces
    blocks = [blocks for _, blocks, _ in rungs.products]
    assert blocks == [2] * k + [1] * (mu - k)
    assert (cp, traces) == (char_poly(thm.t), trace_powers(thm.t, k))


def test_step_at_mu_zero(monkeypatch):
    # no Faddeev product at all: Id_0 is M_0 = M_mu, and T^k runs alone
    thm = TheoremReport(from_chords(gen_chords(1, 1)))
    rungs = algebra_oracle.Rungs(monkeypatch)
    assert thm.mu == 0
    assert (thm.char_poly, thm.traces) == ([1], [0, 0])
    assert [blocks for _, blocks, _ in rungs.products] == [1, 1]
    assert verify_theorem(from_chords(gen_chords(1, 1))).all_pass()


def faddeev_head(t, k_max):
    """T M_(k-1) and a_k, k = 1..k_max, of Faddeev-LeVerrier, and T^k_max,
    on sparse rows."""
    m = power = [{i: 1} for i in range(len(t))]
    out = []
    for k in range(1, k_max + 1):
        tm, power = sparse_mul(t, m), sparse_mul(t, power)
        a = -sum(row.get(i, 0) for i, row in enumerate(tm)) // k
        out.append((tm, a))
        m = [{**row, i: row.get(i, 0) + a} for i, row in enumerate(tm)]
    return out, power


@pytest.mark.parametrize("n, seed, mu, climbs", [(12, 17, 28, False),
                                                 (20, 0, 79, True)],
                         ids=["stays", "climbs"])
def test_block_zero_alone_decides_at_k(monkeypatch, n, seed, mu, climbs):
    # at product K = 12, still on the first rung [-2^b, 2^b), the
    # product's flag fails and |a_12| <= 2^b, so block 0 alone decides.
    # On chords(12, 17) T^12 leaves the rung and T M_11 stays on it: the
    # climb goes on at the same width.  On chords(20, 0) T M_11 leaves it:
    # block 0's own test widens the rung before a_12 Id is added
    thm = TheoremReport(from_chords(gen_chords(n, seed)))
    assert thm.mu == mu
    b = seifert.FIRST_RUNG_BITS
    head, power = faddeev_head(thm.t, 12)
    (tm, a), = head[11:]

    def on_rung(rows):
        return all(-(1 << b) <= x < 1 << b for r in rows for x in r.values())

    assert abs(a) <= 1 << b and on_rung(tm) != climbs
    assert not on_rung(power) or climbs
    rungs = algebra_oracle.Rungs(monkeypatch)
    assert (thm.char_poly, thm.traces) == (
        char_poly(thm.t), trace_powers(thm.t, 12))
    (first, _, climbs_at), *_ = rungs.runs     # the record's own climb
    assert first == b and all(k >= 12 for k, *_ in climbs_at)
    kth, nxt = rungs.products[11:13]
    assert kth[1:] == (2, False)            # the flag of both blocks
    assert [k for k, *_ in climbs_at if k == 12] == [12] * climbs
    assert nxt[1] == 1 and (nxt[0] > kth[0]) == climbs


@pytest.mark.parametrize("m", [zigzag(5), from_chords(gen_chords(12, 3))],
                         ids=["zigzag5", "chords12"])
def test_block_one_is_its_own_route(monkeypatch, m):
    # +1 on block 1's read at product 3: the kept traces are wrong, the
    # polynomial from block 0 is not, so Newton's identities on it catch
    # the fault
    clean = verify_theorem(m)
    assert clean.all_pass()
    left_mul, made = packed.left_mul, []

    def faulty(terms, rows, w, masks=None, blocks=1):
        rows, reads, inside = left_mul(terms, rows, w, masks, blocks)
        if blocks == 2:
            made.append(reads)
            if len(made) == 3:
                reads = (reads[0], reads[1] + 1)
        return rows, reads, inside

    monkeypatch.setattr(packed, "left_mul", faulty)
    rep = verify_theorem(m)
    assert len(made) >= 3
    assert rep.char_poly == clean.char_poly
    assert rep.traces[2] == clean.traces[2] + 1
    assert rep.failed() == ["newton_matches_traces"]


def off_at(k, made):
    """``packed.left_mul`` with block 0's read at product k off by k; the
    blocks of every product go to ``made``."""
    left_mul = packed.left_mul

    def faulty(terms, rows, w, masks=None, blocks=1):
        rows, reads, inside = left_mul(terms, rows, w, masks, blocks)
        made.append(blocks)
        if len(made) == k:
            reads = (reads[0] + k, *reads[1:])
        return rows, reads, inside
    return faulty


@pytest.mark.parametrize("k", range(1, 11))
def test_block_zero_rides_on_to_cayley_hamilton(monkeypatch, k):
    # coil(5): mu = 10 < K = 12, so P_10 is read off block 0 at product
    # 10 and block 0 rides on to product 12.  Block 0's read at product
    # 10 off by 10 keeps a_10 an exact quotient, one less, so M_10 = -Id:
    # every division is exact, and only Cayley-Hamilton can catch it,
    # after two more two-block products.  Off by k at a product k < 10,
    # a later division on coil(5) is inexact and raises first
    made = []
    monkeypatch.setattr(packed, "left_mul", off_at(k, made))
    thm = TheoremReport(coil(5))
    rule = "Cayley-Hamilton" if k == 10 else "Faddeev-LeVerrier"
    with pytest.raises(ArithmeticError, match=rule):
        thm.char_poly
    assert made == [2] * (12 if k == 10 else len(made))


def test_block_zero_rides_on_to_cayley_hamilton_under_o():
    # python -O strips assert statements; the check must still raise
    code = ("from divides import TheoremReport, coil, packed\n"
            "left_mul, made = packed.left_mul, []\n"
            "def faulty(terms, rows, w, masks=None, blocks=1):\n"
            "    rows, reads, inside = left_mul(terms, rows, w, masks,"
            " blocks)\n"
            "    made.append(blocks)\n"
            "    if len(made) == 10:\n"
            "        reads = (reads[0] + 10, *reads[1:])\n"
            "    return rows, reads, inside\n"
            "packed.left_mul = faulty\n"
            "try:\n"
            "    print(TheoremReport(coil(5)).char_poly)\n"
            "except ArithmeticError as exc:\n"
            "    print(len(made), exc)\n")
    src = str(Path(divides.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.startswith("12 Cayley-Hamilton"), out.stdout


def test_record_signature_matches_public_kernel(records):
    # the regions form against the elimination of all mu rows, where R is
    # Q's own double (no double point), empty (no region) and neither
    shapes = set()
    for name, thm, _ in records:
        assert thm.signature == signature(thm.n), name
        delta = thm.gamma.n_double
        shapes.add("no double point" if not delta else
                   "no region" if delta == thm.mu else "both")
    assert shapes == {"no double point", "no region", "both"}


def test_record_signature_at_scale():
    # 1850 of the 3601 rows leave in the one step
    thm = TheoremReport(from_chords(gen_chords(100, 1)))
    assert (thm.mu, thm.gamma.n_double) == (3601, 1850)
    assert thm.signature == signature(thm.n)


def test_joined_double_points_raise():
    # Q_DD = 2 Id is what lets the double points leave in one step: an N
    # edited to join two of them raises, a stored 0 there is no entry
    clean = TheoremReport(zigzag(6))
    lo = clean.gamma.n_minus
    assert clean.gamma.n_double >= 2
    for x in (0, 1, -2):
        thm = TheoremReport(zigzag(6))
        thm.n[lo][lo + 1] = x
        if not x:
            assert thm.signature == clean.signature
            continue
        with pytest.raises(ValueError, match="joins two double points"):
            thm.signature


def test_joined_double_points_raise_under_o():
    # python -O strips assert statements; the step's guard must still raise
    code = ("from divides import TheoremReport, zigzag\n"
            "thm = TheoremReport(zigzag(6))\n"
            "lo = thm.gamma.n_minus\n"
            "thm.n[lo][lo + 1] = 1\n"
            "try:\n"
            "    print(thm.signature)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = str(Path(divides.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.endswith("joins two double points\n"), out.stdout
