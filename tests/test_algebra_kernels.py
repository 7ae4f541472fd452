"""The sparse signature and the row kernels against dense oracles.

Random symmetric integer forms (sparse, with an all-zero diagonal, or of
low rank) go through ``sparse_signature`` and the dense congruence
elimination, and, with rational entries too, through the Fraction twin of
the integer-row elimination, which must take the same pivots on the form
scaled to integers by the lcm of its denominators.  The rows
must stay within Hadamard's bound, and the nullity of N - tN, read off
the signature of -(N - tN)^2, must be r minus the number of components.
Random integer matrices (negative entries, big integers, zero rows,
mu = 0) go through ``sparse_mul`` and the scalar triple loop, and through
the packed-row ``char_poly`` and ``trace_powers`` and their dense
versions, whose intermediate matrices must also respect the certified
slot bounds.  Random strictly upper triangular N, on sparse rows, go
through N^2, the nilpotency guard, the flag traces, the signature and the
monodromy, against the same routines on the dense N.  The slot test of
``char_poly``'s narrow rungs is checked on its own at the edges of its
range, and the ladder of rungs on chord sets, the families and a first
rung forced down to one bit.  ``packed.left_mul`` meets the dense product
on its own: row programs of random strictly upper N (signed, multi-edge,
a stored 0, back references) and of random T (a row with no +1 entry, an
all-zero row), with the product's entries at its window's ends, must
give the packed rows and the trace of the dense product.
``trace_powers`` climbs the same ladder: its K_CAP traces must equal
Newton's power sums of the exact characteristic polynomial on the zoo,
the families and chord sets, some of which must leave the first rung, and
on gen_chords(30, 100), mu 255, its slots must
stay within 64 bits for K_CAP traces and 24 bits for twelve, where
|T|^k alone gives 330 and 63.  Known answers pin the signature and the
characteristic polynomial on the zigzag and coil families, and the
signature, the flag traces, the nilpotency guard and the Lefschetz
number by both routes at mu of about 2 * 10^4, where no dense matrix can
go; the signature alone must take under 2 s there.  The monodromy's
forward substitution equals the series (Id - tN + (tN)^2)(Id + N) on the
zoo, the families and chord sets, and A'Campo's product of three
multi-twists on fewer of them.  Given N, ``char_poly`` and
``trace_powers`` must give what they give on T's rows alone, on every N
above that passes the guard and on the zoo, the families and chord sets,
and must take the factored program of N exactly where it has fewer terms.
"""

import time
from fractions import Fraction
from math import isqrt, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from divides import (
    adjacency, build_gamma, char_poly, classify, coil, compute_faces,
    counts, fixture, from_chords, gen_chords, lefschetz_number, matrix_N,
    monodromy_matrix, newton_power_sums, packed, seifert, signature,
    trace_powers, zigzag,
)
from divides.seifert import (
    K_CAP, _flag_traces, nilpotent_square, sparse_mul, sparse_signature,
)

import algebra_oracle
from algebra_oracle import (
    dense, is_zero, mat_mul, mat_trace, rows_of, transpose,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)
FEWER = settings(PROPERTY, max_examples=100)

small = st.one_of(st.just(0), st.integers(-3, 3))


def n_of(m):
    return matrix_N(build_gamma(m, compute_faces(m)))


@st.composite
def symmetric_forms(draw):
    mu = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(("sparse", "zero diagonal", "low rank")))
    if kind == "low rank":
        # sum of k < mu signed squares of integer linear forms
        k = draw(st.integers(0, max(0, mu - 1)))
        vecs = [[draw(small) for _ in range(mu)] for _ in range(k)]
        signs = [draw(st.sampled_from((-2, -1, 1, 3))) for _ in range(k)]
        q = [[sum(s * v[i] * v[j] for s, v in zip(signs, vecs))
              for j in range(mu)] for i in range(mu)]
    else:
        q = [[0] * mu for _ in range(mu)]
        for i in range(mu):
            for j in range(i, mu):
                q[i][j] = q[j][i] = draw(small)
        if kind == "zero diagonal":
            for i in range(mu):
                q[i][i] = 0
    return kind, q


def test_sparse_signature_matches_dense_oracle(monkeypatch):
    # the draws must reach the 2x2 block pivot and rank-deficient forms
    seen = set()
    blocks = algebra_oracle.BlockPivots(monkeypatch)

    @PROPERTY
    @given(symmetric_forms())
    def check(drawn):
        kind, q = drawn
        seen.add(kind)
        sig = sparse_signature(algebra_oracle.rows_of(q))
        assert sig == algebra_oracle.signature_symmetric(q), q
        rank = _rank(q)
        assert abs(sig) <= rank and (rank - sig) % 2 == 0, q
        if rank < len(q):
            seen.add("rank-deficient")
        if blocks.count:
            seen.add("2x2 block")

    check()
    assert seen == {"sparse", "zero diagonal", "low rank", "2x2 block",
                    "rank-deficient"}


@st.composite
def fraction_forms(draw):
    """A drawn symmetric form with each entry pair divided by 1..6."""
    _, q = draw(symmetric_forms())
    for i in range(len(q)):
        for j in range(i, len(q)):
            q[i][j] = q[j][i] = Fraction(q[i][j], draw(st.integers(1, 6)))
    return "fractions", q


def test_integer_kernel_matches_fraction_twin(monkeypatch):
    # the integer rows take the pivots of the Fraction elimination, in its
    # order (so as many 2x2 blocks), and give its signature on integer and
    # on rational forms; a rational form goes to the integer kernel scaled
    # by the lcm of its denominators, which keeps the signature and every
    # zero, so the pivot order
    seen = set()
    blocks = algebra_oracle.BlockPivots(monkeypatch)

    @PROPERTY
    @given(st.one_of(symmetric_forms(), fraction_forms()))
    def check(drawn):
        kind, q = drawn
        rows = rows_of(q)
        scale = lcm(*(Fraction(x).denominator for r in q for x in r))
        blocks.pivots.clear()
        sig = sparse_signature([{j: int(x * scale) for j, x in r.items()}
                                for r in rows])
        twin, taken = algebra_oracle.sparse_signature_fraction(rows)
        assert sig == twin == algebra_oracle.signature_symmetric(q), q
        assert blocks.pivots == taken, q
        seen.add(kind)
        if blocks.count:
            seen.add("2x2 block")

    check()
    assert seen == {"sparse", "zero diagonal", "low rank", "fractions",
                    "2x2 block"}


def _rank(q):
    """Rank over the rationals, by fraction-free Gauss-Jordan elimination."""
    a = [row[:] for row in q]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f, g = a[r][c], a[rank][c]
                a[r] = [g * x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    mu = draw(st.integers(0, 7))
    entries = st.one_of(small, st.integers(-2 ** 80, 2 ** 80))
    a, b = ([[draw(entries) for _ in range(mu)] for _ in range(mu)]
            for _ in range(2))
    for i in draw(st.sets(st.integers(0, max(0, mu - 1)), max_size=mu)):
        a[i] = [0] * mu
    return a, b


@PROPERTY
@given(integer_matrices())
def test_sparse_mul_matches_scalar_oracle(ab):
    a, b = (rows_of(x) for x in ab)
    before = [dict(row) for row in b]
    out = sparse_mul(a, b)
    # rows_of keeps nonzeros only: a cancelled entry must be dropped
    assert out == rows_of(mat_mul(*ab))
    assert b == before
    # no row of the product is a row of b: callers mutate the product
    assert all(r is not s for r in out for s in b)


def test_sparse_mul_dimension_zero():
    assert sparse_mul([], []) == []


@st.composite
def upper_rows(draw):
    """Strictly upper triangular N as sparse rows, entries in -3..3.  In
    "layered" draws every entry joins a lower layer of three to a higher
    one, as on a divide's diagram, so N^3 = 0."""
    mu = draw(st.integers(0, 8))
    layered = draw(st.booleans())
    layer = sorted(draw(st.integers(0, 2)) for _ in range(mu))
    rows = [{} for _ in range(mu)]
    for i in range(mu):
        for j in range(i + 1, mu):
            x = draw(small)
            if x and (layer[i] < layer[j] or not layered):
                rows[i][j] = x
    return rows


def test_sparse_n_matches_dense_oracle():
    # the draws must reach a guard that raises, one that passes, and one
    # that passes because length-3 paths cancel
    seen = set()

    @PROPERTY
    @given(upper_rows())
    # 0 -> 1 -> 2 -> 4 and 0 -> 1 -> 3 -> 4 carry +1 and -1
    @example([{1: 1}, {2: 1, 3: 1}, {4: 1}, {4: -1}, {}])
    def check(rows):
        n = dense(rows)
        n2 = mat_mul(n, n)
        assert sparse_mul(rows, rows) == rows_of(n2), rows
        nt = transpose(n)
        assert _flag_traces(rows, sparse_mul(rows, rows)) == (
            mat_trace(mat_mul(nt, n)),
            mat_trace(mat_mul(mat_mul(nt, nt), n))), rows
        assert signature(rows) == algebra_oracle.signature(n), rows
        if not is_zero(mat_mul(n2, n)):
            seen.add("raises")
            for guarded in (nilpotent_square, monodromy_matrix):
                with pytest.raises(ValueError, match="nilpotency"):
                    guarded(rows)
            return
        seen.add("passes")
        paths = dense([{j: abs(x) for j, x in r.items()} for r in rows])
        if not is_zero(mat_mul(mat_mul(paths, paths), paths)):
            seen.add("cancelled")
        sq = nilpotent_square(rows)
        assert sq == rows_of(n2), rows
        assert (not any(sq)) == is_zero(n2), rows      # n_square_zero
        assert dense(monodromy_matrix(rows)) \
            == algebra_oracle.monodromy_series(n), rows
        assert monodromy_matrix(rows, sq) == monodromy_matrix(rows), rows
        if _factored(rows):
            seen.add("factored")
        _assert_twins(rows, rows)

    check()
    assert seen == {"raises", "passes", "cancelled", "factored"}


def _factored(n):
    """Whether the kernels given N run on its factored program."""
    t = monodromy_matrix(n)
    return len(t) + 2 * sum(map(len, n)) < sum(map(len, t))


def _assert_twins(n, name):
    # the kernels given N equal the kernels on T's rows alone
    t = monodromy_matrix(n)
    assert char_poly(t, n) == char_poly(t), name
    for k in range(13):
        assert trace_powers(t, k, n) == trace_powers(t, k), (name, k)


def test_factored_program_matches_rows(zoo):
    maps = zoo + [(f"zigzag({k})", zigzag(k)) for k in range(1, 9)]
    maps += [(f"coil({k})", coil(k)) for k in range(1, 9)]
    maps += [(f"chords({n}, {s})", from_chords(gen_chords(n, s)))
             for n in range(2, 13) for s in range(15)]
    for name, m in maps:
        _assert_twins(n_of(m), name)


def test_program_choice_reads_the_input(monkeypatch):
    # coil keeps T's rows; a chord divide with mu >= 12 takes the factored
    # program, in both kernels
    built = []
    real = packed.factored_terms
    monkeypatch.setattr(packed, "factored_terms",
                        lambda n: built.append(len(n)) or real(n))
    for k in range(1, 9):
        n = n_of(coil(k))
        t = monodromy_matrix(n)
        char_poly(t, n)
        trace_powers(t, 12, n)
    assert built == []
    n = n_of(from_chords(gen_chords(10, 0)))
    t = monodromy_matrix(n)
    assert len(n) >= 12
    char_poly(t, n)
    trace_powers(t, 12, n)
    assert built == [len(n), len(n)]


def test_factored_terms_take_any_int_entry():
    # signs, multi-edges and a stored int 0, which is no term; a
    # non-integer never reaches the kernel: the public entry rejects it
    n = [{1: 2, 2: -1, 3: 0}, {3: -3}, {3: 1}, {}]
    assert packed.factored_terms(n) == [
        (0, [], [2], [(1, 2)]),
        (1, [], [], [(4, -2), (3, -3)]),
        (2, [4, 3], [], []),
        (3, [], [6], [(5, 3)]),
    ]
    t = monodromy_matrix([{1: 1}, {}])
    for run in (lambda n: char_poly(t, n), lambda n: trace_powers(t, 3, n)):
        with pytest.raises(ValueError, match=r"N\[0\]\[1\] = 0.5 is not"):
            run([{1: 0.5}, {}])


# each packed kernel with a public entry whose rows reach it: rows of T
# for row_terms and row_norm, rows of N for factored_terms
PACKED_ENTRIES = {
    "row_terms": (packed.row_terms, lambda rows: char_poly(rows)),
    "row_norm": (packed.row_norm, lambda rows: trace_powers(rows, 3)),
    "factored_terms": (packed.factored_terms,
                       lambda rows: char_poly([{0: 1, 1: 1}, {1: 1}], rows)),
}


@pytest.mark.parametrize("kernel", PACKED_ENTRIES)
def test_packed_rows_take_no_bool(kernel):
    # True == 1 and abs(True) is the int 1, but a bool is no int entry, and
    # neither is False or 0.5: the public entry raises before any packed
    # kernel reads the rows, and a stored int 0 is no entry to the kernel
    pack, entry = PACKED_ENTRIES[kernel]
    assert pack([{1: 1, 2: 0}, {}, {}]) == pack([{1: 1}, {}, {}])
    for bad in (True, False, 0.5):
        with pytest.raises(ValueError, match=f"= {bad!r} is not an int"):
            entry([{1: bad}, {}])


@st.composite
def square_matrices(draw):
    mu = draw(st.integers(0, 6))
    entries = draw(st.sampled_from((small, st.integers(-2 ** 80, 2 ** 80))))
    t = [[draw(entries) for _ in range(mu)] for _ in range(mu)]
    return t, draw(st.one_of(st.integers(0, 12), st.just(K_CAP)))


def hadamard_bound(t):
    """H with every minor of lambda Id - T at most H for |lambda| = 1."""
    col_sq = [sum((int(i == j) + abs(t[i][j])) ** 2 for i in range(len(t)))
              for j in range(len(t))]
    return isqrt(prod(col_sq)) + 1


@PROPERTY
@given(square_matrices())
@example(([], 3))
@example(([], 0))
@example(([[0] * 4 for _ in range(4)], K_CAP))
@example(([[2 ** 80, -2 ** 80], [-(2 ** 80), 3]], K_CAP))
def test_packed_kernels_match_dense_oracles(drawn):
    t, k_max = drawn
    rows = rows_of(t)
    assert char_poly(rows) == algebra_oracle.char_poly(t)
    assert trace_powers(rows, k_max) \
        == algebra_oracle.trace_powers(t, k_max)
    # the certificates themselves: every decoded Faddeev entry within 2H,
    # the library's width derived from that 2H, every entry of T^k within
    # |T|^k
    h = hadamard_bound(t)
    for m, _ in algebra_oracle.faddeev_products(t):
        assert all(abs(x) <= 2 * h for row in m for x in row)
    assert seifert._faddeev_width(rows) == (2 * h).bit_length() + 1
    norm = max((sum(map(abs, row)) for row in t), default=0)
    for k, p in enumerate(algebra_oracle.powers(t, k_max), 1):
        assert all(abs(x) <= norm ** k for row in p for x in row)


@pytest.mark.parametrize("m, width, guard", [
    (fixture("FIG1"), 3, "not exact"),
    (coil(5), 2, "Cayley-Hamilton"),
], ids=["FIG1", "coil5"])
def test_narrow_slots_are_caught(monkeypatch, m, width, guard):
    # slots too narrow for the Faddeev matrices must raise, not mislead
    t = monodromy_matrix(n_of(m))
    assert width < seifert._faddeev_width(t)
    monkeypatch.setattr(seifert, "_faddeev_width", lambda t: width)
    with pytest.raises(ArithmeticError, match=guard):
        char_poly(t)


@st.composite
def slot_rows(draw):
    """Packed rows of a narrow rung, w = b + |T|.bit_length() + 2, with
    entries in the signed window [-2^(w-1), 2^(w-1)): drawn inside
    [-2^b, 2^b), a few set at or next to +-2^b, +-2^(w-2) (the bound on
    T M_(k-1)) or the window's ends."""
    b = draw(st.integers(1, 40))
    w = b + draw(st.integers(2, 12))
    mu = draw(st.integers(0, 6))
    rows = [[draw(st.integers(-(1 << b), (1 << b) - 1)) for _ in range(mu)]
            for _ in range(mu)]
    edges = sorted({s * e + d for e in (1 << b, 1 << (w - 2))
                    for s in (1, -1) for d in (-1, 0, 1)}
                   | {-(1 << (w - 1)), (1 << (w - 1)) - 1})
    for _ in range(draw(st.integers(0, 2)) if mu else 0):
        i, j = draw(st.integers(0, mu - 1)), draw(st.integers(0, mu - 1))
        rows[i][j] = draw(st.sampled_from(edges))
    return b, w, rows


def _pack(row, w):
    return sum(v << (w * j) for j, v in enumerate(row))


def test_slot_certificate_is_exact():
    # fits accepts exactly when every entry lies in [-2^b, 2^b)
    seen = set()

    @FEWER
    @given(slot_rows())
    def check(drawn):
        b, w, rows = drawn
        off, high = packed.slot_masks(len(rows), w, b)
        inside = all(-(1 << b) <= v < 1 << b for row in rows for v in row)
        assert packed.fits([_pack(r, w) for r in rows], off, high) \
            == inside, drawn
        seen.add(inside)

    check()
    assert seen == {True, False}


@st.composite
def window_rows(draw):
    """Rows of mu slots at width w = 3..8, each entry within +-(2^(w-1) -
    1), the window of ``left_mul``'s diagonal read, often at its ends."""
    w = draw(st.integers(3, 8))
    top = (1 << (w - 1)) - 1
    mu = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from((top, -top)), st.integers(-top, top))
    row = st.lists(entry, min_size=mu, max_size=mu)
    return w, draw(st.lists(row, min_size=mu, max_size=mu))


@PROPERTY
@given(window_rows())
def test_left_mul_reads_the_diagonal_on_its_window(drawn):
    # the identity program: T M = M, so the trace read is M's own
    w, rows = drawn
    mu = len(rows)
    packed_rows = [_pack(r, w) for r in rows]
    identity = packed.row_terms([{i: 1} for i in range(mu)])
    out, trace = packed.left_mul(identity, packed_rows, w)
    assert out == packed_rows
    assert trace == mat_trace(rows), drawn


def _solve_upper(n, r):
    """M with (Id + N) M = R, N strictly upper triangular, by back
    substitution on dense rows."""
    m = [None] * len(r)
    for i in reversed(range(len(r))):
        m[i] = [x - sum(n[i][j] * m[j][c] for j in range(i + 1, len(r)))
                for c, x in enumerate(r[i])]
    return m


@st.composite
def row_programs(draw):
    """(kind, program, N or T, M, P, w): a row program of T, the dense M,
    the dense product P = T M and a slot width w whose diagonal read
    window +-(2^(w-1) - 1) holds every entry of P.

    "factored": the program of a random strictly upper N with signed
    entries, multi-edge coefficients and stored 0s, T = (Id + tN)^-1
    (Id + N); P is drawn first, often at the window's ends, and M solved
    from (Id + N) M = (Id + tN) P, so its entries may leave the window.
    "rows": the program of a random T's own rows, one of them with no +1
    entry and one all zero (a stored 0 at most); M is drawn, w is the
    narrowest window of at least 2 bits holding P, or one bit more, and one
    column of M, s e_c with s = +-(2^(w-1) - 1), puts s times column c of
    T into P: the window's ends when that column's entries are 0 and +-1."""
    mu = draw(st.integers(0, 6))
    if draw(st.booleans()):
        coeff = st.sampled_from((0, 1, -1, 2, -2, 3))
        n = [{j: draw(coeff) for j in range(i + 1, mu)
              if draw(st.booleans())} for i in range(mu)]
        w = draw(st.integers(2, 9))
        top = (1 << (w - 1)) - 1
        entry = st.one_of(st.sampled_from((top, -top)),
                          st.integers(-top, top))
        p = [[draw(entry) for _ in range(mu)] for _ in range(mu)]
        id_nt = algebra_oracle.mat_add(algebra_oracle.identity(mu),
                                       transpose(dense(n)))
        m = _solve_upper(dense(n), mat_mul(id_nt, p))
        return "factored", packed.factored_terms(n), n, m, p, w
    t = [{j: x for j in range(mu) if (x := draw(small))} for _ in range(mu)]
    m = [[draw(st.integers(-4, 4)) for _ in range(mu)] for _ in range(mu)]
    if not mu:
        return "rows", [], t, m, [], draw(st.integers(1, 3))
    t[draw(st.integers(0, mu - 1))] = draw(st.sampled_from(({}, {0: 0})))
    bare = st.sampled_from((0, -1, 2, -3))
    t[draw(st.integers(0, mu - 1))] = {
        j: x for j in range(mu) if (x := draw(bare))}
    probe = draw(st.integers(0, mu - 1))
    for row in m:
        row[probe] = 0
    p = mat_mul(dense(t), m)
    w = max(max(abs(x) for r in p for x in r).bit_length() + 1, 2)
    w += draw(st.integers(0, 1))
    t_dense = dense(t)
    for c in range(mu):
        column = [row[c] for row in t_dense]
        if max(map(abs, column)) == 1:
            top = (1 << (w - 1)) - 1
            m[c][probe] = draw(st.sampled_from((top, -top)))
            p = mat_mul(t_dense, m)
            break
    return "rows", packed.row_terms(t), t, m, p, w


def test_left_mul_matches_dense_product():
    # every row of T M, formed from its terms and back references, is the
    # packed row of the dense product, and the one-pass diagonal read its
    # trace; the draws must reach every shape of program and both ends of
    # the read's window
    seen = set()

    @PROPERTY
    @given(row_programs())
    def check(drawn):
        kind, terms, a, m, p, w = drawn
        mu = len(m)
        if kind == "factored":
            # (Id + N) M = (Id + tN) P against the dense products
            assert mat_mul(algebra_oracle.mat_add(
                algebra_oracle.identity(mu), dense(a)), m) == mat_mul(
                algebra_oracle.mat_add(algebra_oracle.identity(mu),
                                       transpose(dense(a))), p), drawn
            xs = [x for r in a for x in r.values()]
            seen.update(name for name, hit in (
                ("signed", any(x < 0 for x in xs)),
                ("multi-edge", any(abs(x) > 1 for x in xs)),
                ("stored 0", 0 in xs),
                ("back reference", any(
                    j >= mu for first, rest, minus, other in terms
                    for j in rest + minus + [j for j, _ in other])),
            ) if hit)
        else:
            seen.update(name for name, hit in (
                ("no +1 entry", any(any(r.values()) and 1 not in r.values()
                                     for r in a)),
                ("zero row", any(not any(r.values()) for r in a)),
            ) if hit)
        top = (1 << (w - 1)) - 1
        ends = {x for r in p for x in r} & {top, -top} - {0}
        seen.update((kind, end > 0) for end in ends)
        out, trace = packed.left_mul(terms, [_pack(r, w) for r in m], w)
        assert out == [_pack(r, w) for r in p], drawn
        assert trace == mat_trace(p), drawn

    check()
    assert seen == {"signed", "multi-edge", "stored 0", "back reference",
                    "no +1 entry", "zero row", ("factored", True),
                    ("factored", False), ("rows", True), ("rows", False)}


@FEWER
@given(st.integers(2, 40).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(w + 1, w + 60),
    st.lists(st.lists(st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1),
                      min_size=9, max_size=9), max_size=9))))
def test_respace_matches_packing(drawn):
    w, w2, rows = drawn
    rows = [r[:len(rows)] for r in rows]       # mu rows of mu slots
    assert packed.respace([_pack(r, w) for r in rows], w, w2) \
        == [_pack(r, w2) for r in rows]


def _monodromies(maps):
    return [(name, monodromy_matrix(n_of(m))) for name, m in maps]


def test_char_poly_rungs_match_dense_oracle(monkeypatch):
    # chord sets whose narrow rungs keep every step, or give out and
    # resume; coil(k), whose coefficients outgrow every narrow rung
    rungs = algebra_oracle.Rungs(monkeypatch)
    ts = _monodromies([(f"zigzag({k})", zigzag(k)) for k in range(1, 31)]
                      + [(f"coil({k})", coil(k)) for k in range(1, 31)])
    # mu <= 32 keeps 52 of the 120 sets: the dense oracle takes 15 s on
    # all of them
    ts += [(name, t) for name, t in _monodromies(
        (f"chords({n}, {s})", from_chords(gen_chords(n, s)))
        for n in range(10, 16) for s in range(20)) if len(t) <= 32]
    for name, t in ts:
        assert char_poly(t) == algebra_oracle.char_poly(dense(t)), name
    assert rungs.whole() and rungs.resumed(True) and rungs.resumed(False)


def test_first_rung_at_one_bit_falls_through(monkeypatch, zoo):
    # at b = 1 the first rung gives out on almost any T; the ladder must
    # resume wider and still reach the dense oracle's answer
    monkeypatch.setattr(seifert, "FIRST_RUNG_BITS", 1)
    rungs = algebra_oracle.Rungs(monkeypatch)

    @FEWER
    @given(square_matrices())
    # -Id, mu = 16: a_1 = 16 is past 2^(w-2) = 4 at b = 1, while
    # M_1 = 15 Id would pass the slot test by carrying into the next slot
    @example(([[-int(i == j) for j in range(16)] for i in range(16)], 0))
    def check(drawn):
        t, _ = drawn
        assert char_poly(rows_of(t)) == algebra_oracle.char_poly(t), t

    check()
    for name, t in _monodromies(zoo):
        assert char_poly(t) == algebra_oracle.char_poly(dense(t)), name
    assert rungs.gave_out(1) and rungs.resumed(True) \
        and rungs.resumed(False)


def _zigzag_poly(k):
    # (lambda^{2k} - 1)/(lambda + 1), constant first
    return [(-1) ** (i + 1) for i in range(2 * k)]


def _coil_poly(k):
    # (lambda^2 - lambda + 1)^k, constant first
    p = [1]
    for _ in range(k):
        p = [sum(c * p[i - j] for j, c in enumerate((1, -1, 1))
                 if 0 <= i - j < len(p)) for i in range(len(p) + 2)]
    return p


def test_char_poly_known_answers():
    for k in list(range(1, 21)) + [50, 100]:
        assert char_poly(monodromy_matrix(n_of(zigzag(k)))) \
            == _zigzag_poly(k), k
        assert char_poly(monodromy_matrix(n_of(coil(k)))) \
            == _coil_poly(k), k


def test_trace_powers_at_mu_200():
    for m in (zigzag(100), coil(100)):
        t = monodromy_matrix(n_of(m))
        assert trace_powers(t, 12) \
            == algebra_oracle.trace_powers(dense(t), 12)


def test_trace_ladder_matches_newton(monkeypatch, zoo):
    # the traces up to K_CAP climb the ladder of slot widths; Newton's
    # identities on the exact characteristic polynomial are their oracle,
    # with N and without, and the dense powers are that of an adjacency
    # matrix; some inputs must leave the first rung
    climbed = []
    real = packed.respace
    monkeypatch.setattr(packed, "respace", lambda rows, w, w2:
                        climbed.append(w2) or real(rows, w, w2))
    maps = list(zoo)
    maps += [(f"{f.__name__}({k})", f(k)) for f in (zigzag, coil)
             for k in (1, 2, 5, 8, 50)]
    maps += [(f"chords({n}, {s})", from_chords(gen_chords(n, s)))
             for n in range(2, 21, 2) for s in range(5)]
    left = []
    for name, m in maps:
        n = n_of(m)
        t = monodromy_matrix(n)
        sums = newton_power_sums(char_poly(t, n), K_CAP)
        climbed.clear()
        assert trace_powers(t, K_CAP, n) == sums, name
        if climbed:
            left.append(name)
        assert trace_powers(t, K_CAP) == sums, name
    assert len(left) >= 20, left
    m = from_chords(gen_chords(12, 0))
    a = adjacency(build_gamma(m, compute_faces(m)))
    climbed.clear()
    assert trace_powers(a, 64) == algebra_oracle.trace_powers(dense(a), 64)
    assert climbed


def test_trace_widths_stay_narrow(monkeypatch):
    # the scale gain as slot widths, not seconds: from |T| alone these
    # products ran at 330 bits (k = 64) and 63 bits (k = 12)
    widths = []
    real = packed.left_mul
    monkeypatch.setattr(packed, "left_mul", lambda terms, rows, w:
                        widths.append(w) or real(terms, rows, w))
    n = n_of(from_chords(gen_chords(30, 100)))
    t = monodromy_matrix(n)
    for k, cap in ((64, 64), (12, 24)):
        widths.clear()
        trace_powers(t, k, n)
        assert len(widths) == k and max(widths) <= cap, (k, widths)


def test_signature_at_scale():
    # mu about 2 * 10^4, where a dense N or T would hold 4 * 10^8 entries:
    # the form is positive definite on both families, and neither has a
    # flag; Tr(T) is 1 on zigzag(k) and k on coil(k), as their
    # characteristic polynomials give
    for m, lam in ((zigzag(10000), 0), (coil(10000), 1 - 10000)):
        g = build_gamma(m, compute_faces(m))
        c = counts(g)
        n = matrix_N(g)
        t0 = time.perf_counter()
        n2 = nilpotent_square(n)
        assert _flag_traces(n, n2) == (c.e, c.f)
        assert (not any(n2)) == (c.f == 0)
        assert signature(n) == c.mu
        # the dense elimination needs days here; the sparse one, under a
        # second on a 2-vCPU host
        assert time.perf_counter() - t0 < 10
        assert lefschetz_number(n) == lam
        t = monodromy_matrix(n)
        assert len(t) == c.mu
        assert all(type(row) is dict and all(row.values()) for row in t)


def test_signature_scale_guard():
    # the per-row denominators stay local: one determinant for the whole
    # form, as in Bareiss's elimination, would multiply across parts of
    # the form that never interact
    for m in (coil(10000), zigzag(10000)):
        n = n_of(m)
        t0 = time.process_time()
        assert signature(n) == len(n)
        assert time.process_time() - t0 < 2


def _neg_q_squared(n):
    """-(N - tN)^2 as sparse rows: positive semidefinite, with the kernel
    of N - tN."""
    q = [dict(row) for row in n]
    for i, row in enumerate(n):
        for j, x in row.items():
            q[j][i] = -x
    return [{j: -x for j, x in row.items()} for row in sparse_mul(q, q)]


def _boundary_nullity(m):
    """mu - signature(-(N - tN)^2) and r - C, C = r - delta + regions the
    number of components: the nullity of N - tN and the rank of the
    radical of the fibre's intersection form."""
    faces = compute_faces(m)
    stats = classify(m, faces)
    n = matrix_N(build_gamma(m, faces))
    components = stats.r - stats.delta + stats.region_count
    return (len(n) - sparse_signature(_neg_q_squared(n)),
            stats.r - components)


def test_boundary_nullity_identity(zoo):
    maps = list(zoo)
    maps += [(f"zigzag({k})", zigzag(k)) for k in range(1, 9)]
    maps += [(f"coil({k})", coil(k)) for k in range(1, 9)]
    maps += [(f"chords({n}, {s})", from_chords(gen_chords(n, s)))
             for n in range(2, 13) for s in range(15)]
    maps += [("zigzag(2000)", zigzag(2000)), ("coil(2000)", coil(2000))]
    for name, m in maps:
        nullity, radical = _boundary_nullity(m)
        assert nullity == radical, name


def test_rows_stay_within_hadamard_bound(monkeypatch):
    # den[u] is the least common denominator of row u's entries, so it
    # divides the determinant of the eliminated block, and each numerator
    # is at most a minor: all are within Hadamard's bound H of the integer
    # form, H^2 = prod_i max(1, |row_i|^2).  Without the gcd reduction the
    # products of pivots pass H after a few steps.
    real, hsq = seifert._eliminate, 0

    def eliminate(adj, dg, den, pivots):
        touched = real(adj, dg, den, pivots)
        for u in touched:
            for x in (den[u], dg[u], *adj[u].values()):
                assert x * x <= hsq, (u, x)
        return touched

    monkeypatch.setattr(seifert, "_eliminate", eliminate)
    forms = []
    for n in (16, 20, 24):
        for s in range(3):
            nn = n_of(from_chords(gen_chords(n, s)))
            form = [{i: 2, **row} for i, row in enumerate(nn)]
            for i, row in enumerate(nn):
                for j, x in row.items():
                    form[j][i] = x          # 2 Id + N + tN
            forms += [form, _neg_q_squared(nn)]
    for rows in forms:
        hsq = prod(max(1, sum(x * x for x in r.values())) for r in rows)
        sparse_signature(rows)


def _chord_maps():
    """The chord sets gen_chords(3..15, seeds 0..39)."""
    return [(f"chords({n}, {s})", from_chords(gen_chords(n, s)))
            for n in range(3, 16) for s in range(40)]


def test_monodromy_matches_series_oracle(zoo):
    maps = list(zoo)
    maps += [(f"zigzag({k})", zigzag(k)) for k in range(1, 31)]
    maps += [(f"coil({k})", coil(k)) for k in range(1, 31)]
    maps += _chord_maps()
    for name, m in maps:
        n = n_of(m)
        assert dense(monodromy_matrix(n)) \
            == algebra_oracle.monodromy_series(dense(n)), name


def test_monodromy_matches_acampo_oracle(zoo):
    # the product of the multi-twists along the minus, double and plus
    # vanishing cycles, which needs the tricoloring, not only N^3 = 0
    maps = list(zoo)
    maps += [(f"zigzag({k})", zigzag(k)) for k in range(1, 11)]
    maps += [(f"coil({k})", coil(k)) for k in range(1, 11)]
    maps += [(f"chords({n}, {s})", from_chords(gen_chords(n, s)))
             for n in range(3, 13) for s in range(10)]
    for name, m in maps:
        g = build_gamma(m, compute_faces(m))
        n = matrix_N(g)
        sizes = (g.n_minus, g.n_double, g.n_plus)
        assert dense(monodromy_matrix(n)) \
            == algebra_oracle.monodromy_acampo(dense(n), sizes), name


def test_signature_matches_dense_oracle(zoo, monkeypatch):
    blocks = algebra_oracle.BlockPivots(monkeypatch)
    maps = list(zoo)
    maps += [(f"zigzag({k})", zigzag(k)) for k in range(1, 21)]
    maps += [(f"coil({k})", coil(k)) for k in range(1, 21)]
    maps += _chord_maps()
    for name, m in maps:
        n = n_of(m)
        assert signature(n) == algebra_oracle.signature(dense(n)), name
    for k in range(1, 21):
        assert signature(n_of(zigzag(k))) == 2 * k - 1
        assert signature(n_of(coil(k))) == 2 * k
    # 37 of the chord sets end with an all-zero remaining diagonal
    assert blocks.count > 0
