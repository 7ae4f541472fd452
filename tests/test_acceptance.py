"""Acceptance suite: every exit criterion, exact, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import functools
import random
import time

from divides import (
    build_gamma, char_poly, check_flag_edges, classify, coil, compute_faces,
    counts, fixture, from_chords, gen_chords, is_reciprocal,
    lefschetz_number, matrix_N, monodromy_matrix, newton_power_sums,
    run_corpus, signature, trace_powers, verify_theorem, zigzag,
)
from divides.cli import main
from divides.dynkin import body_euler
from divides.seifert import det_from_char_poly

from algebra_oracle import (
    dense, identity, is_zero, mat_mul, mat_trace, rows_of, transpose,
)
from conftest import instance_zoo


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return deco


def pipeline(m, faces=None):
    faces = compute_faces(m) if faces is None else faces
    gamma = build_gamma(m, faces)
    n = matrix_N(gamma)
    return faces, gamma, counts(gamma), n


@criterion("1 (figure fixtures)")
def test_criterion_1_figures():
    f1 = verify_theorem(fixture("FIG1"))
    assert f1.lam == 0 and not f1.stats.cellular
    f2a = verify_theorem(fixture("FIG2A"))
    assert f2a.lam == 2 and not f2a.stats.cellular
    f2b = verify_theorem(fixture("FIG2B"))
    assert f2b.lam == -1 and not f2b.stats.simple


@criterion("2 (theorem at desk scale: 1000-instance corpus)")
def test_criterion_2_corpus(tmp_path):
    t0 = time.perf_counter()
    assert main(["corpus", "--count", "1000", "--n", "5", "--seed", "7",
                 "--csv", str(tmp_path / "corpus.csv")]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"

    # the specific identities, re-derived instance by instance
    applicable = 0
    for i in range(1000):
        m = from_chords(gen_chords(5, 7 + i))
        faces = compute_faces(m)
        st = classify(m, faces)
        if not (st.connected and st.simple and st.cellular):
            continue
        applicable += 1
        _, _, cnt, n = pipeline(m, faces)
        assert lefschetz_number(n) == 0, 7 + i
        assert cnt.mu - cnt.e + cnt.f == 1, 7 + i
        assert body_euler(m, faces) == 1, 7 + i
    assert applicable > 0


@criterion("3 (universal identities)")
def test_criterion_3_universal():
    instances = instance_zoo()
    instances += [(f"corpus5/{s}", from_chords(gen_chords(5, s)))
                  for s in range(7, 107)]
    for name, m in instances:
        _, _, cnt, rows = pipeline(m)
        n = dense(rows)
        assert is_zero(mat_mul(mat_mul(n, n), n)), name
        t = monodromy_matrix(rows)
        lam = lefschetz_number(rows)
        assert lam == 1 - mat_trace(dense(t)), name
        dets = 1
        for i in range(cnt.mu):
            dets *= 1 + n[i][i]
        assert dets == 1, name
        cp = char_poly(t)
        assert det_from_char_poly(cp) == 1, name
        assert is_reciprocal(cp), name
        assert newton_power_sums(cp, 12) == trace_powers(t, 12), name


@criterion("4 (cellular-case identities)")
def test_criterion_4_cellular():
    checked = 0
    for name, m in instance_zoo():
        faces = compute_faces(m)
        if not classify(m, faces).cellular:
            continue
        checked += 1
        _, gamma, cnt, rows = pipeline(m, faces)
        n = dense(rows)
        assert all(x in (0, 1) for row in n for x in row), name
        nt = transpose(n)
        assert mat_trace(mat_mul(nt, n)) == cnt.e, name
        assert mat_trace(mat_mul(mat_mul(nt, nt), n)) == cnt.f, name
        assert check_flag_edges(gamma) == [], name
    assert checked > 0


@criterion("5 (slalom criterion)")
def test_criterion_5_slalom():
    # N^2 = 0 iff f = 0 on every instance; the one-line Lefschetz
    # computation applies on the simple cellular ones (see ledger: coils
    # and crossingless instances have N^2 = 0 with nonzero Lefschetz)
    shortcut_checked = 0
    for name, m in instance_zoo():
        faces = compute_faces(m)
        st = classify(m, faces)
        _, _, cnt, rows = pipeline(m, faces)
        n = dense(rows)
        n2_zero = is_zero(mat_mul(n, n))
        assert n2_zero == (cnt.f == 0), name
        if n2_zero and st.simple and st.cellular:
            shortcut_checked += 1
            tr = mat_trace(mat_mul(transpose(n), n))
            assert tr == cnt.mu - 1, name
            assert lefschetz_number(rows) == 1 - cnt.mu + tr == 0, name
    assert shortcut_checked > 0


@criterion("6 (zigzag and coil families)")
def test_criterion_6_families():
    for n_par in range(1, 7):
        m = zigzag(n_par)
        faces = compute_faces(m)
        st = classify(m, faces)
        _, _, cnt, nmat = pipeline(m, faces)
        assert lefschetz_number(nmat) == 0, n_par
        assert cnt.mu == 2 * n_par - 1, n_par
        assert is_zero(mat_mul(dense(nmat), dense(nmat))), n_par
        assert st.simple and st.cellular, n_par
        # exact-power oracle for T^(2n) = Id
        t = dense(monodromy_matrix(nmat))
        p = identity(cnt.mu)
        for _ in range(2 * n_par):
            p = mat_mul(p, t)
        assert p == identity(cnt.mu), n_par
    for k in range(1, 6):
        m = coil(k)
        st = classify(m, compute_faces(m))
        _, _, _, nmat = pipeline(m)
        assert lefschetz_number(nmat) == 1 - k, k
        assert st.simple == (k == 1), k


@criterion("7 (micro-fixture golden values)")
def test_criterion_7_golden():
    n_loop = matrix_N(build_gamma(fixture("LOOP"),
                                  compute_faces(fixture("LOOP"))))
    t_loop = monodromy_matrix(n_loop)
    assert char_poly(t_loop) == [1, -1, 1]            # x^2 - x + 1
    assert trace_powers(t_loop, 6) == [1, -1, -2, -1, 1, 2]

    m = fixture("LENS")
    n_lens = matrix_N(build_gamma(m, compute_faces(m)))
    assert char_poly(monodromy_matrix(n_lens)) == [-1, 1, -1, 1]
    assert signature(n_lens) == 3
    assert lefschetz_number(n_lens) == 0


def _block_permuted(rows, gamma, rng):
    n = dense(rows)
    sizes = (gamma.n_minus, gamma.n_double, gamma.n_plus)
    perm = []
    start = 0
    for size in sizes:
        block = list(range(start, start + size))
        rng.shuffle(block)
        perm.extend(block)
        start += size
    return rows_of([[n[perm[i]][perm[j]] for j in range(len(n))]
                    for i in range(len(n))])


def _invariants(n):
    t = monodromy_matrix(n)
    return (lefschetz_number(n), trace_powers(t, 12), char_poly(t),
            signature(n))


@criterion("8 (invariance under renumbering and sign flip)")
def test_criterion_8_invariance():
    rng = random.Random(20260808)
    instances = [("LENS", fixture("LENS"), 100), ("zigzag(4)", zigzag(4), 100)]
    instances += [(f"corpus5/{s}", from_chords(gen_chords(5, s)), 5)
                  for s in range(200, 220)]
    for name, m, n_perms in instances:
        faces = compute_faces(m)
        gamma = build_gamma(m, faces)
        n = matrix_N(gamma)
        base = _invariants(n)

        for _ in range(n_perms):
            n_perm = _block_permuted(n, gamma, rng)
            assert _invariants(n_perm) == base, name

        flipped = build_gamma(m, faces.flipped())
        lam_f, traces_f, cp_f, sig_f = _invariants(matrix_N(flipped))
        assert lam_f == base[0], name
        assert traces_f == base[1], name
        assert cp_f == base[2], name
        assert sig_f == base[3], name


@criterion("9 (findings channel)")
def test_criterion_9_findings(monkeypatch):
    # the chord corpus never disagrees on the multi-edge comparison
    summary = run_corpus(200, 5, 7)
    assert summary.ok()
    assert summary.findings == []

    # hand-built maps with both sides of the comparison present agree too
    for name in ("FIG1", "FIG2A", "FIG2B"):
        assert verify_theorem(fixture(name)).findings == []

    # the channel itself: an injected disagreement is surfaced as a
    # finding and does not fail the run
    import divides.report as report_mod
    real = report_mod.verify_theorem

    def with_synthetic_finding(m):
        rep = real(m)
        rep.findings.append("multi_edge_iff_noncellular: synthetic")
        return rep

    monkeypatch.setattr(report_mod, "verify_theorem", with_synthetic_finding)
    injected = report_mod.run_corpus(3, 2, 5)
    assert injected.ok()
    assert len(injected.findings) == 3
    assert injected.checks_failed == 0
