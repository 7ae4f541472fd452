"""Exact linear algebra on the intersection matrix of a divide.

Every quantity here is an exact integer identity, which floating point would
make meaningless.  One ``TheoremReport`` holds the chain of a divide,
``verify_theorem`` grades it and ``walk_table`` reads it.
Every matrix is held as sparse rows, row i a dict {j: value} of its
nonzero entries, and is checked once, by ``_check_rows``, where it enters
a public kernel; the kernels behind that take checked ints.  N^2, N^3,
the flag traces and the signature form are read off the rows of N;
T = (Id + tN)^-1 (Id + N) is one forward substitution on them, since N
is strictly upper triangular and Id + tN unit lower triangular.  The
dimension mu may be 0: then every trace is 0 and the Lefschetz number is 1.
The characteristic polynomial and the traces Tr(T^k) hold row i as the int
sum_j v_j 2^(w j), so a row operation is one big-integer add.  A product
T M adds each of its rows by an index loop over a row program of T, then
reads its trace in one pass over the rows (``packed.left_mul``): on the
narrow rungs the rows are a few hundred bits, and the interpreter's cost
per operation, not big-integer arithmetic, sets the time.  Both first
run on narrow slots and keep the invariant that every entry of the matrix
multiplied, M_(k-1) or T^(k-1), lies in [-2^b, 2^b), which bounds its
product with T by 2^(w-2): one add and one AND per row test it, exactly,
since base-2^w digits drawn from a window of 2^w consecutive integers are
unique.  When the test fails, the products resume on wider slots, up to a
bound from T alone.
Given N as well, both form each product T M as (Id + tN)^-1 (Id + N) M
from the rows of N when that takes fewer row terms than T's own rows
(``_program``); every bound still comes from T.
The signature form 2 Id + N + tN has the diagram's sparsity and is
eliminated on sparse rows of ints, the only input format, in a
minimum-degree order: by Sylvester's law of inertia each pivot adds its
sign, and a 2x2 pivot [[0, b], [b, 0]], taken when the remaining diagonal
is zero, adds +1 - 1.  The rows stay integral: each holds integer
numerators over its own positive denominator, and a row the elimination
rewrites is divided by the gcd of its numerators and denominator.  A
single determinant shared by all rows, as in Bareiss's elimination, would
grow with every pivot, also across parts of the form that never interact.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, prod

from . import packed
from .divide_map import DivideMap, classify, compute_faces, lazy
from .dynkin import (
    Gamma, body_euler, build_gamma, check_flag_edges, counts,
    has_multi_edge,
)
from .walks import adjacency

Rows = list[dict[int, int]]


def sparse_mul(a: Rows, b: Rows) -> Rows:
    """a b on sparse rows; entries that cancel to zero are dropped."""
    out = []
    for ai in a:
        row = {}
        for k, x in ai.items():
            for j, y in b[k].items():
                row[j] = row.get(j, 0) + x * y
        out.append({j: v for j, v in row.items() if v})
    return out


# ---------------------------------------------------------------------------
# the intersection matrix and the monodromy
# ---------------------------------------------------------------------------

def matrix_N(gamma: Gamma) -> Rows:
    """Strictly upper triangular edge-multiplicity matrix of the diagram
    as sparse rows: each edge k adds 1 at row lo[k] - 1, column hi[k] - 1.

    Under the minus/double/plus numbering the edges join minus to double,
    double to plus and minus to plus vertices; the tricoloring forces
    N^3 = 0.
    """
    n = [{} for _ in range(gamma.mu)]
    for i, j in zip(gamma.lo, gamma.hi):
        n[i - 1][j - 1] = n[i - 1].get(j - 1, 0) + 1
    return n


def nilpotent_square(n: Rows) -> Rows:
    """N^2 on sparse rows, after the guards against a corrupted N:
    ValueError wherever ``_check_rows(n, upper=True)`` rejects N, or unless
    N^3 = 0."""
    _check_rows(n, upper=True)
    n2 = sparse_mul(n, n)
    if any(sparse_mul(n2, n)):
        raise ValueError("nilpotency violation: (tN)^3 != 0")
    return n2


def monodromy_matrix(n: Rows, n2: Rows | None = None) -> Rows:
    """T = (Id + tN)^-1 (Id + N) as sparse rows, from those of N, by one
    forward substitution.

    Id + tN is unit lower triangular, so (Id + tN) T = Id + N gives row i
    of T as row i of Id + N minus N[k][i] T[k] over the entries N[k][i],
    k < i; entries that cancel to zero are dropped.  ``nilpotent_square``
    guards N first; when its N^2 is passed in, ``_check_rows`` still
    checks N's rows, columns and entries.  T is integral with det 1.
    """
    if n2 is None:
        nilpotent_square(n)
    else:
        _check_rows(n, upper=True)
    above = [[] for _ in n]         # above[i]: the (k, N[k][i]), k < i
    for k, row in enumerate(n):
        for i, x in row.items():
            above[i].append((k, x))
    t = []
    for i, row in enumerate(n):
        ti = {i: 1}
        ti.update(row)
        for k, x in above[i]:
            for j, y in t[k].items():
                ti[j] = ti.get(j, 0) - x * y
        t.append({j: v for j, v in ti.items() if v})
    return t


def lefschetz_number(n: Rows) -> int:
    """Lefschetz number 1 - mu + Tr(tN N) - Tr((tN)^2 N), checked on every
    call against the trace route 1 - Tr(T): ArithmeticError when the two
    routes disagree."""
    n2 = nilpotent_square(n)
    lam, lam_trace = _lefschetz_routes(len(n), *_flag_traces(n, n2),
                                       monodromy_matrix(n, n2))
    if lam != lam_trace:
        raise ArithmeticError(
            f"lefschetz routes disagree: formula {lam}, trace {lam_trace}")
    return lam


def _flag_traces(n: Rows, n2: Rows) -> tuple[int, int]:
    """Tr(tN N) and Tr((tN)^2 N) = Tr(t(N^2) N) as entrywise sums."""
    return (sum(x * x for row in n for x in row.values()),
            sum(x * r2.get(j, 0) for r, r2 in zip(n, n2)
                for j, x in r.items()))


def _lefschetz_routes(mu: int, tr_ntn: int, tr_nt2n: int,
                      t: Rows) -> tuple[int, int]:
    """The Lefschetz number by the formula route, from its traces, and by
    the trace route 1 - Tr(T)."""
    return (1 - mu + tr_ntn - tr_nt2n,
            1 - sum(row.get(i, 0) for i, row in enumerate(t)))


K_DEFAULT = 12   # traces Tr(T^k), k = 1..K, that reports and tables give
K_CAP = 64       # bounds arbitrary-precision growth in reports


def check_k(k: int) -> int:
    """k, or ValueError unless ``type(k) is int``: no bool, float or str."""
    if type(k) is not int:
        raise ValueError(f"k = {k!r} is not an int")
    return k


def trace_powers(t: Rows, k_max: int, n: Rows | None = None) -> list[int]:
    """Exact traces Tr(T^k) for k = 1..k_max of T given as sparse rows, on
    packed rows; ValueError unless k_max is an int, and wherever
    ``_program`` rejects T or N.  The products climb ``char_poly``'s
    ladder (``_rung``).  On a narrow rung T^k lies in [-2^b, 2^b):
    |T|^k < 2^b while k s <= b, s = |T|.bit_length(), and
    then ``packed.fits`` tests it, so T^(k+1) is below |T| 2^b < 2^(w-2).
    When the test fails, T^k decoded, so it is below 2^(w-2): the next rung
    takes b = max(2 b, w - 2).  The last, (|T|^k_max).bit_length() + 1,
    needs no test.  Given N, the products may run on its rows, ``_program``.
    Every product is one ``packed.left_mul``: an index loop per row, then
    one pass for the trace."""
    check_k(k_max)
    terms, mu, norm = _program(t, n), len(t), packed.row_norm(t)
    s, w_top = norm.bit_length(), (norm ** max(k_max, 0)).bit_length() + 1
    b, out = FIRST_RUNG_BITS, []
    rows, w, masks = _rung(mu, [], 0, b, s + 2, w_top)
    for k in range(k_max):          # rows: T^k
        if masks and k * s > b and not packed.fits(rows, *masks):
            b = max(2 * b, w - 2)
            rows, w, masks = _rung(mu, rows, w, b, s + 2, w_top)
        rows, trace = packed.left_mul(terms, rows, w)
        out.append(trace)
    return out


def _program(t: Rows, n: Rows | None) -> list:
    """The row program that ``char_poly`` and ``trace_powers`` multiply by,
    after ``_check_rows`` on T, and on a given N as ``nilpotent_square``
    checks it, without the N^2 and N^3 products: ValueError wherever they
    reject either, so every ``packed`` kernel behind it reads checked ints.
    T's own rows, unless N is given and its factored program (``packed.
    factored_terms``) has fewer terms, mu + 2 nnz(N), than T has stored
    entries.  That holds on almost every chord divide from mu of about 12
    on, where T has 1.6 to 2.3 times as many, and not on coil(k).  A
    given N must be the N of T."""
    nnz_t = _check_rows(t)
    if n is not None:
        nnz = _check_rows(n, upper=True)
        if len(n) != len(t):
            raise ValueError(f"N has {len(n)} rows and T {len(t)}")
        if len(t) + 2 * nnz < nnz_t:
            return packed.factored_terms(n)
    return packed.row_terms(t)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

FIRST_RUNG_BITS = 12     # b of the first narrow rung; doubled per rung


def char_poly(t: Rows, n: Rows | None = None) -> list[int]:
    """Monic characteristic polynomial of T, given as sparse rows, constant
    term first; ValueError wherever ``_program`` rejects T or N.  Given
    the N of T, the products T M may run on N's rows (``_program``).
    Every width, bound and check below still comes from T: only the rows
    of T M are decoded, and their entries keep the bound |T| 2^b whichever
    program formed them, while a row of (Id + N) M or a partial
    back-substitution sum may leave the slot window.

    Faddeev-LeVerrier on packed rows: M_k = T M_(k-1) + a_k Id from M_0 = Id
    with a_k = -Tr(T M_(k-1))/k, checked for exact division and for M_mu = 0
    (Cayley-Hamilton).  Per step, ``packed.left_mul`` forms T M_(k-1) and
    reads its trace, adding a_k Id is one pass, a_k 2^(w i) onto row i,
    and ``packed.fits`` one more.  The steps run on a ladder of slot
    widths, resuming from the last M_(k-1) kept when a rung gives out:

    * Narrow rungs, b = 12, 24, 48, ...: w = b + |T|.bit_length() + 2 with
      |T| the largest absolute row sum.  If every entry of M_(k-1) lies in
      [-2^b, 2^b), every entry of T M_(k-1) is below |T| 2^b < 2^(w-2), so
      it and a_k decode exactly.  The step is kept when |a_k| < 2^(w-2),
      which keeps every entry of M_k in the signed window [-2^(w-1),
      2^(w-1)), and when M_k passes ``packed.fits``: that certifies the
      invariant for the next step, or the rung ends.
    * The last rung: the minors of lambda Id - T, the entries of adj(lambda
      Id - T) and det(lambda Id - T), are at most H = isqrt(prod_j c_j^2)
      + 1 on |lambda| = 1 by Hadamard's inequality (``_faddeev_width``),
      and by Cauchy's estimate so are their coefficients, the M_k and a_k:
      each T M_(k-1) is within 2H whatever the start.  A narrow rung runs
      only while its width is below this one.
    """
    terms, mu = _program(t, n), len(t)
    lift, w_top = packed.row_norm(t).bit_length() + 2, _faddeev_width(t)
    coeffs_desc = [1]       # leading first while building
    rows, w, b = [], 0, FIRST_RUNG_BITS
    while len(coeffs_desc) <= mu:
        rows, w, masks = _rung(mu, rows, w, b, lift, w_top)
        rows = _faddeev(terms, rows, w, coeffs_desc, masks)
        b *= 2
    if any(rows):
        raise ArithmeticError("Cayley-Hamilton: T M_(mu-1) + a_mu Id != 0")
    return list(reversed(coeffs_desc))


def _rung(mu: int, rows: list[int], w: int, b: int, lift: int,
          w_top: int) -> tuple[list[int], int, tuple | None]:
    """The rows moved from width w (Id when w is 0) to the next rung for
    entries in [-2^b, 2^b): width b + lift while below w_top, with its
    ``packed.slot_masks``, else w_top and None."""
    narrow = b + lift < w_top
    w2 = b + lift if narrow else w_top
    rows = (packed.respace(rows, w, w2) if w
            else [1 << (w2 * i) for i in range(mu)])
    return rows, w2, packed.slot_masks(mu, w2, b) if narrow else None


def _faddeev(terms, rows: list[int], w: int, coeffs_desc: list[int],
             masks: tuple | None) -> list[int]:
    """Steps k = len(coeffs_desc).. from the packed rows of M_(k-1) at slot
    width w, appending each a_k to coeffs_desc; the rows of the last M_k
    kept.  With the masks of a narrow rung, a step is kept only while
    |a_k| < 2^(w-2) and M_k ``packed.fits`` in [-2^b, 2^b)."""
    slots, cap = range(0, w * len(rows), w), 1 << (w - 2)
    for k in range(len(coeffs_desc), len(rows) + 1):
        out, trace = packed.left_mul(terms, rows, w)
        a_k, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        out = [x + (a_k << s) for x, s in zip(out, slots)]
        if masks and (abs(a_k) >= cap or not packed.fits(out, *masks)):
            break
        coeffs_desc.append(a_k)
        rows = out
    return rows


def _faddeev_width(t: Rows) -> int:
    """Slots for 2H, with c_j the norm of column j of |Id| + |T|."""
    col_sq = [1] * len(t)
    for i, row in enumerate(t):
        for j, x in row.items():
            col_sq[j] += x * x + 2 * abs(x) * (i == j)
    return (2 * isqrt(prod(col_sq)) + 2).bit_length() + 1


def det_from_char_poly(coeffs: list[int]) -> int:
    """det(T) from p(lambda) = det(lambda Id - T): p(0) = (-1)^mu det(T)."""
    return coeffs[0] if len(coeffs) % 2 else -coeffs[0]


def is_reciprocal(coeffs: list[int]) -> bool:
    """Whether lambda^mu p(1/lambda) = +/- p(lambda)."""
    rev = list(reversed(coeffs))
    return rev == coeffs or rev == [-c for c in coeffs]


def newton_power_sums(coeffs: list[int], k_max: int) -> list[int]:
    """Power sums of the roots of a monic integer polynomial.

    Newton's identities, run forward: with p = lambda^mu + a_1
    lambda^(mu-1) + ... + a_mu,

        s_k = -k a_k - sum_{i<k} a_i s_{k-i}        (k <= mu)
        s_k = -sum_{i<=mu} a_i s_{k-i}              (k > mu)

    ValueError unless k_max is an int and the coefficients, constant term
    first, end in 1.
    """
    check_k(k_max)
    mu = len(coeffs) - 1
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    a = [0] + [coeffs[mu - j] for j in range(1, mu + 1)]   # a[1..mu]
    s: list[int] = []
    for k in range(1, k_max + 1):
        val = -k * a[k] if k <= mu else 0
        for i in range(1, min(k, mu + 1)):
            val -= a[i] * s[k - i - 1]
        s.append(val)
    return s


# ---------------------------------------------------------------------------
# signature of the symmetrized Seifert form
# ---------------------------------------------------------------------------

def signature(n: Rows) -> int:
    """Signature of S + tS = 2 Id + N + tN, by ``sparse_signature``'s
    elimination on the form's sparse rows, built from the sparse rows of N.
    ValueError wherever ``_check_rows`` rejects N."""
    _check_rows(n)
    rows = [{i: 2} for i in range(len(n))]
    for i, row in enumerate(n):
        for j, x in row.items():
            rows[i][j] = rows[i].get(j, 0) + x
            rows[j][i] = rows[j].get(i, 0) + x
    return _signature(rows)


def sparse_signature(rows: Rows) -> int:
    """Signature of a symmetric integer form given as rows {j: value}.

    Symmetric elimination in a minimum-degree order, ties to the least
    index, skipping stale queue entries: by Sylvester's law of inertia
    each nonzero diagonal pivot adds its sign.  When every remaining
    diagonal entry is zero, the 2x2 block [[0, b], [b, 0]] through a
    nonzero b adds +1 - 1 (Bunch and Kaufman, 1977); an all-zero row adds
    nothing.

    Row u of the current Schur complement is held as integer numerators
    over one positive denominator den[u], the diagonal numerator in dg[u]
    and the others in adj[u], and each entry is stored in both of its
    rows, over each row's own denominator.  A pivot rewrites only the
    rows it touches, and each rewritten row is divided by the gcd of its
    numerators and its denominator.  ValueError wherever ``_check_rows``
    rejects the rows, or on a form that is not symmetric.
    """
    _check_rows(rows)
    if any(rows[j].get(i, 0) != x
           for i, row in enumerate(rows) for j, x in row.items()):
        raise ValueError("the form is not symmetric")
    return _signature(rows)


def _check_rows(rows: Rows, upper: bool = False) -> int:
    """The one guard on every matrix that enters a public kernel: ValueError
    unless every row is a dict, every column an int in 0..mu-1 (in
    k+1..mu-1 for row k when ``upper``: N strictly upper triangular) and
    every entry an int (``type(x) is int``: no bool, float or Fraction).
    Returns the number of stored entries; a stored int 0 is no entry to
    any kernel behind it."""
    mu, nnz = len(rows), 0
    name, where = ("N", "not above the diagonal") if upper else (
        "M", f"outside columns 0..{mu - 1}")
    for k, row in enumerate(rows):
        if type(row) is not dict:
            raise ValueError(f"{name}[{k}] is not a dict")
        nnz += len(row)
        lo = k + 1 if upper else 0
        for i, x in row.items():
            if type(i) is not int or not lo <= i < mu:
                raise ValueError(f"{name}[{k}][{i!r}] = {x!r} is {where}")
            if type(x) is not int:
                raise ValueError(f"{name}[{k}][{i}] = {x!r} is not an int")
    return nnz


def _signature(rows: Rows) -> int:
    """The elimination of ``sparse_signature`` on checked, symmetric rows.
    The queue and the parked rows are heaps of the keys degree mu + index,
    so heappop takes the least degree, then the least index: one int
    compares faster than a (degree, index) pair."""
    mu = len(rows)
    adj = [{j: x for j, x in r.items() if x} for r in rows]
    dg, den = [r.pop(i, 0) for i, r in enumerate(adj)], [1] * mu
    queue = [len(r) * mu + i for i, r in enumerate(adj)]
    heapify(queue)
    parked: list[int] = []          # popped with a zero diagonal
    sig = 0
    while queue or parked:
        deg, p = divmod(heappop(queue or parked), mu)
        if adj[p] is None or deg != len(adj[p]):
            continue                        # stale entry
        if dg[p]:
            sig += 1 if dg[p] > 0 else -1   # den[p] > 0
            pivots = (p,)
        elif queue:
            heappush(parked, deg * mu + p)
            continue
        elif not deg:
            adj[p] = None                   # zero row
            continue
        else:
            pivots = (p, min(adj[p], key=lambda j: (len(adj[j]), j)))
        for u in _eliminate(adj, dg, den, pivots):
            heappush(queue, len(adj[u]) * mu + u)
    return sig


def _eliminate(adj, dg, den, pivots):
    """Replace the form by its Schur complement on the pivot block P,
    Q_uv -= Q_uP P^-1 Q_Pv, on integer rows.  Returns the indices whose
    rows changed; the pivots' rows become None.

    Row u becomes s row_u - sum_k c_k row_k over den[u] s, one term per
    pivot k, with the pivots' own columns left out.  P = [[s]], s = dg[p]:
    the term is row_p with c = row_u[p].  P = [[0, b], [b, 0]] with b =
    x / den[p] = y / den[q], x = row_p[q] and y = row_q[p]: s = x y > 0
    and the terms are row_q with c = row_u[p] x and row_p with c =
    row_u[q] y.  The row's own entry is its diagonal.  The row, dg[u] and
    den[u] are then divided by their gcd, taken with the sign of s so that
    den[u] stays positive, and the zero entries are dropped.
    """
    if len(pivots) == 1:
        p, = pivots
        rp = adj[p]
        s, terms, touched = dg[p], ((p, rp, 1),), rp.keys()
    else:
        p, q = pivots
        rp, rq = adj[p], adj[q]
        x, y = rp.pop(q), rq.pop(p)
        s, terms = x * y, ((p, rq, x), (q, rp, y))
        touched = rp.keys() | rq.keys()
    for k in pivots:
        adj[k] = None
    for u in touched:
        ru = adj[u]
        row = {v: s * z for v, z in ru.items()}
        row[u] = s * dg[u]
        for k, rk, m in terms:
            c = ru.get(k, 0) * m
            if c:                   # row_u has an entry at k
                del row[k]
                for v, z in rk.items():
                    row[v] = row.get(v, 0) - c * z
        d = row.pop(u)
        g = gcd(den[u] * s, d, *row.values())
        if s < 0:
            g = -g
        den[u] = den[u] * s // g
        dg[u] = d // g
        if g != 1 or 0 in row.values():
            row = {v: z // g for v, z in row.items() if z}
        adj[u] = row
    return touched


# ---------------------------------------------------------------------------
# the theorem checks
# ---------------------------------------------------------------------------

PASS, FAIL, NA = "pass", "fail", "n/a"

FINDING_NAME = "multi_edge_iff_noncellular"


class TheoremReport:
    """The chain of one divide, built once from its map for every reader.

    Built at once, in the chain's order: ``stats``, ``gamma``, ``mu``, ``e``,
    ``f``, ``chi_body``, N and T as sparse rows ``n`` and ``t`` (after
    ``nilpotent_square``'s guards), ``n_square_zero``, ``flag_traces`` and the
    Lefschetz number by the formula and trace routes, ``lam`` and
    ``lam_trace``.  Built on first read and kept: ``char_poly``, ``traces``
    (Tr(T^k), k = 1..min(K_DEFAULT, mu + 2)), ``signature`` and the grades,
    ``checks`` (pass/fail/n/a by name) and ``findings`` (where the multi-edge
    and cellularity tests disagree; never a failure).
    """

    def __init__(self, m: DivideMap):
        faces = compute_faces(m)
        self.stats = classify(m, faces)
        self.gamma = gamma = build_gamma(m, faces)
        cnt = counts(gamma)
        self.mu, self.e, self.f = cnt.mu, cnt.e, cnt.f
        self.chi_body = body_euler(m, faces)
        self.n = n = matrix_N(gamma)
        n2 = nilpotent_square(n)
        self.t = monodromy_matrix(n, n2)
        self.n_square_zero = not any(n2)
        self.flag_traces = _flag_traces(n, n2)      # Tr(tN N), Tr((tN)^2 N)
        self.lam, self.lam_trace = _lefschetz_routes(
            cnt.mu, *self.flag_traces, self.t)

    @lazy
    def char_poly(self) -> list[int]:
        return char_poly(self.t, self.n)

    @lazy
    def traces(self) -> list[int]:
        return trace_powers(self.t, min(K_DEFAULT, self.mu + 2), self.n)

    @lazy
    def signature(self) -> int:
        return signature(self.n)

    def traces_to(self, k: int) -> list[int]:
        """Tr(T^k), k = 1..K for K = k clamped to 1..K_CAP: the kept
        traces, or one trace_powers call; ValueError unless k is an int."""
        k = max(1, min(check_k(k), K_CAP))
        if k <= min(K_DEFAULT, self.mu + 2):
            return self.traces[:k]
        return trace_powers(self.t, k, self.n)

    @lazy
    def checks(self) -> dict[str, str]:
        cp, traces, n, lam = self.char_poly, self.traces, self.n, self.lam
        mu, e, f, st = self.mu, self.e, self.f, self.stats
        (tr_ntn, tr_nt2n), n2_zero = self.flag_traces, self.n_square_zero
        sc = st.simple and st.cellular
        graded = {      # name: (applicable, ok)
            # nilpotent_square raised in the constructor unless N^3 = 0
            "n_cube_zero": (True, True),
            "slalom_equiv_n2_f": (True, n2_zero == (f == 0)),
            # traces[0] is Tr(T) from the program the products ran on,
            # lam_trace Tr(T) read off T's rows
            "lefschetz_two_routes":
                (True, lam == self.lam_trace == 1 - traces[0]),
            "det_seifert_one": (True,       # Id + N is triangular
                prod(1 + row.get(i, 0) for i, row in enumerate(n)) == 1),
            "det_monodromy_one": (True, det_from_char_poly(cp) == 1),
            "charpoly_reciprocal": (True, is_reciprocal(cp)),
            "newton_matches_traces":
                (True, newton_power_sums(cp, len(traces)) == traces),
            "cellular_entries_01": (st.cellular, all(
                x in (0, 1) for row in n for x in row.values())),
            "cellular_trace_nn_eq_e": (st.cellular, tr_ntn == e),
            "cellular_trace_n2n_eq_f": (st.cellular, tr_nt2n == f),
            "cellular_flags_closed":
                (st.cellular, not check_flag_edges(self.gamma)),
            "simple_chi_body_one": (st.simple, self.chi_body == 1),
            "simple_cellular_euler_one": (sc, mu - e + f == 1),
            "simple_cellular_lambda_zero": (sc, lam == 0),
            # the one-line slalom computation needs Tr(tN N) = mu - 1,
            # which the theorem supplies exactly in the simple cellular case
            "slalom_lambda_zero":
                (sc and n2_zero, tr_ntn == mu - 1 and lam == 0),
        }
        return {name: (PASS if ok else FAIL) if applicable else NA
                for name, (applicable, ok) in graded.items()}

    @lazy
    def findings(self) -> list[str]:
        # the multi-edge criterion against the walk test, compared without
        # the connectivity conjunct on either side
        vertex_simple = self.stats.regions_vertex_simple
        multi = has_multi_edge(self.gamma)
        if vertex_simple != multi:
            return []
        return [f"{FINDING_NAME}: regions vertex-simple={vertex_simple} but "
                f"multi-edge={multi}"]

    def failed(self) -> list[str]:
        return [k for k, v in self.checks.items() if v == FAIL]

    def all_pass(self) -> bool:
        return not self.failed()


def verify_theorem(m: DivideMap) -> TheoremReport:
    """Run the full chain on one divide and grade every identity.

    Unconditional checks: N^3 = 0, the two Lefschetz routes agree,
    det(Id+N) = det(T) = 1, reciprocity of the characteristic polynomial,
    Newton power sums equal monodromy traces, and N^2 = 0 iff f = 0.
    Cellular divides additionally satisfy 0/1 entries, Tr(tN N) = e,
    Tr((tN)^2 N) = f and closed flags; simple divides give chi(body) = 1;
    simple cellular divides give mu - e + f = 1 and Lefschetz number 0.
    The slalom shortcut (Tr(tN N) = mu - 1, hence Lefschetz 0) is graded
    on divides that are simple, cellular and have N^2 = 0.
    """
    thm = TheoremReport(m)
    thm.checks, thm.findings        # graded now: char_poly and the traces
    return thm


# ---------------------------------------------------------------------------
# monodromy traces next to closed walks on the diagram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkTable:
    """Rows (k, Tr(T^k), 1 - Tr(T^k), Tr(M^k)) for k = 1..K, with M = N + tN
    the adjacency matrix of the diagram.  Whether the traces of the
    monodromy iterates follow from the closed walks on the diagram is
    open: the table pairs the two exact columns and asserts nothing."""
    rows: tuple[tuple[int, int, int, int], ...]

    def to_csv(self) -> str:
        head = ("k", "tr_T_k", "lefschetz_k", "tr_M_k")
        return "".join(",".join(map(str, row)) + "\n"
                       for row in (head, *self.rows))


def walk_table(thm: TheoremReport, k: int = K_DEFAULT) -> WalkTable:
    """The walk table of the divide whose chain ``thm`` holds, for the K
    of ``thm.traces_to(k)``."""
    traces = thm.traces_to(k)
    pairs = zip(traces, trace_powers(adjacency(thm.gamma), len(traces)))
    return WalkTable(rows=tuple((i, tr_t, 1 - tr_t, tr_m)
                                for i, (tr_t, tr_m) in enumerate(pairs, 1)))
