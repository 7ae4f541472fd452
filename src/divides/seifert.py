"""Exact linear algebra on the intersection matrix of a divide.

Every quantity here is an exact integer identity, which floating point would
make meaningless.  One ``TheoremReport`` holds the chain of a divide,
``verify_theorem`` grades it and ``walk_table`` reads it.
Every matrix is held as sparse rows, row i a dict {j: value} of its
nonzero entries, and is checked by ``_check_rows`` where it enters a public
kernel; the kernels behind that take checked ints.  Each has one builder:
N^2 and the flag traces come off the rows of N, the forward substitution
``_monodromy`` gives T = (Id + tN)^-1 (Id + N), the record and
``lefschetz_number`` share that chain (``_chain``), and ``_symmetrized``
builds d Id + N + tN.  mu may be 0: every trace is 0, the Lefschetz number 1.
The characteristic polynomial and the traces Tr(T^k) hold row i as the int
sum_j v_j 2^(w j), so a row operation is one big-integer add.  A product
T M adds each of its rows by an index loop over a row program of T, then
reads its trace, and on a narrow rung whether its entries still fit the
rung, in one pass over the rows (``packed.left_mul``): there the rows are
a few hundred bits, and the interpreter's cost per operation, not
big-integer arithmetic, sets the time.  Every climb runs through
``_spectrum``, which sets its bounds and checks Faddeev-LeVerrier's exact
division and Cayley-Hamilton; its one loop, ``_climb``, argues the
ladder of slot widths and the two-block rows on which one climb gives
both the polynomial and the traces.  The public ``char_poly`` and
``trace_powers`` take T alone and multiply by its own rows.  The record
forms each product T M as (Id + tN)^-1 (Id + N) M from the rows of its
own N, and makes max(mu, K) products for the polynomial and K traces,
where the public kernels make mu + K.
The signature form 2 Id + N + tN has the diagram's sparsity and is
eliminated on sparse rows of ints, the only input format, in a
minimum-degree order: by Sylvester's law of inertia each pivot adds its
sign, and a 2x2 pivot [[0, b], [b, 0]], taken when the remaining diagonal
is zero, adds +1 - 1.  The rows stay integral: each holds integer
numerators over its own positive denominator, and a row the elimination
rewrites is divided by the gcd of its numerators and denominator.  A
single determinant shared by all rows, as in Bareiss's elimination, would
grow with every pivot, also across parts of the form that never interact.
The record eliminates less.  N joins no two double points, so Q = 2 Id +
N + tN has the block Q_DD = 2 Id on the delta double points D, and by
Haynsworth's inertia additivity (Linear Algebra Appl. 1, 1968), In(Q) =
In(Q_DD) + In(Q/Q_DD) with Q/Q_DD = R/2 and R = 2 Q_BB - Q_BD Q_DB on the
mu - delta region basepoints B: the signature is delta + sig(R), and the
nullity of Q is that of R.  R is built in one pass over the record's
checked N (``_regions_form``), each double point adding the outer product
of its at most 4 region neighbours, and is the one form eliminated.
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


def monodromy_matrix(n: Rows) -> Rows:
    """T = (Id + tN)^-1 (Id + N) as sparse rows, from those of N, after
    ``nilpotent_square``'s guards; T is integral with det 1."""
    nilpotent_square(n)
    return _monodromy(n)


def _monodromy(n: Rows) -> Rows:
    """T from the rows of a checked N by one forward substitution: Id + tN
    is unit lower triangular, so (Id + tN) T = Id + N gives row i of T as
    row i of Id + N minus N[k][i] T[k] over the entries N[k][i], k < i;
    entries that cancel to zero are dropped."""
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
    *_, lam, lam_trace = _chain(n)
    if lam != lam_trace:
        raise ArithmeticError(
            f"lefschetz routes disagree: formula {lam}, trace {lam_trace}")
    return lam


def _chain(n: Rows) -> tuple[Rows, Rows, tuple[int, int], int, int]:
    """N^2, T, the flag traces and the Lefschetz number by the formula
    route, from those traces, and by the trace route 1 - Tr(T), after
    ``nilpotent_square``'s guards on N."""
    n2 = nilpotent_square(n)
    t, flags = _monodromy(n), _flag_traces(n, n2)
    return (n2, t, flags, 1 - len(n) + flags[0] - flags[1],
            1 - sum(row.get(i, 0) for i, row in enumerate(t)))


def _flag_traces(n: Rows, n2: Rows) -> tuple[int, int]:
    """Tr(tN N) and Tr((tN)^2 N) = Tr(t(N^2) N) as entrywise sums."""
    return (sum(x * x for row in n for x in row.values()),
            sum(x * r2.get(j, 0) for r, r2 in zip(n, n2)
                for j, x in r.items()))


K_DEFAULT = 12   # traces Tr(T^k), k = 1..K, that reports and tables give
K_CAP = 64       # bounds arbitrary-precision growth in reports


def check_k(k: int) -> int:
    """k, or ValueError unless ``type(k) is int``: no bool, float or str."""
    if type(k) is not int:
        raise ValueError(f"k = {k!r} is not an int")
    return k


def trace_powers(t: Rows, k_max: int) -> list[int]:
    """Exact traces Tr(T^k) for k = 1..k_max of T given as sparse rows, by
    ``_spectrum`` on T's own rows.  ValueError unless k_max is an int, and
    wherever ``_check_rows`` rejects T."""
    check_k(k_max)
    _check_rows(t)
    return _spectrum(t, packed.row_terms(t), k_max)[1]


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

FIRST_RUNG_BITS = 12     # b of the first narrow rung


def char_poly(t: Rows) -> list[int]:
    """Monic characteristic polynomial of T, given as sparse rows, constant
    term first, by ``_spectrum`` on T's own rows; ValueError wherever
    ``_check_rows`` rejects T."""
    _check_rows(t)
    return _spectrum(t, packed.row_terms(t), 0, True)[0]


def _spectrum(t: Rows, terms, k: int, poly: bool = False
              ) -> tuple[list[int] | None, list[int]]:
    """The characteristic polynomial of T, constant term first (None unless
    ``poly``), and Tr(T^j), j = 1..k, by one ``_climb`` on the row program
    ``terms`` of the checked rows t of T: T's own rows in the public
    kernels, N's factored program in the record.  Every climb of the
    library runs here, and every bound comes from t.

    The last rung holds T^k, of entries at most |T|^k, and with ``poly``
    Faddeev-LeVerrier, M_j = T M_(j-1) + a_j Id from M_0 = Id with a_j =
    -Tr(T M_(j-1))/j, checked for exact division and for M_mu = 0
    (Cayley-Hamilton).  The minors of lambda Id - T, the entries of
    adj(lambda Id - T) and det(lambda Id - T), are at most H =
    isqrt(prod_j c_j^2) + 1 on |lambda| = 1 by Hadamard's inequality
    (``_faddeev_width``), and by Cauchy's estimate so are their
    coefficients, the M_j and a_j: each T M_(j-1) is within 2H.
    """
    norm = packed.row_norm(t)
    w_top = (norm ** max(k, 0)).bit_length() + 1
    if not poly:
        return None, _climb(terms, norm, w_top, 0, None, k)[1]
    coeffs_desc = [1]       # leading first while building

    def leverrier(j: int, trace: int) -> int:
        a_j, r = divmod(-trace, j)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        coeffs_desc.append(a_j)
        return a_j

    rows, powers = _climb(terms, norm, max(w_top, _faddeev_width(t)),
                          len(t), leverrier, k)
    if any(rows):
        raise ArithmeticError("Cayley-Hamilton: T M_(mu-1) + a_mu Id != 0")
    return coeffs_desc[::-1], powers


def _climb(terms, norm: int, w_top: int, k_max: int, coeff,
           k_pow: int) -> tuple[list[int], list[int]]:
    """The packed rows of P_k_max, of P_k = T P_(k-1) + c_k Id from P_0 =
    Id, and Tr(T^k), k = 1 to k_pow, where T has the row program ``terms``
    and |T| = norm, its largest absolute row sum, and c_k = coeff(k,
    Tr(T P_(k-1))).  Each product is one ``packed.left_mul`` and is kept.
    While both climbs run, each row holds two blocks (``packed.left_mul``):
    P_(k-1) in block 0 and T^(k-1) in block 1, so one product moves both,
    and c_k Id goes into block 0 only.  When T^k ends first, block 1 is
    dropped (``packed.low_block``).  When P_k_max ends first, it is read
    off block 0 by ``packed.low_block``, and block 0 rides on beside T^k
    instead of being shifted out: it holds T^j P_k_max, which is 0 once
    the caller's test of P_k_max for zero passes, and a nonzero P_k_max
    fails that test whatever block 1 read after it.  One climb alone sits
    in block 0: max(k_max, k_pow) products in all.

    The products run on a ladder of slot widths: narrow rungs of w = b +
    s + 2 bits, s = norm.bit_length(), from b = FIRST_RUNG_BITS while
    below w_top, then w_top, which the caller's bound certifies for every
    P_k, T P_(k-1) and T^k; a climb past w_top stops there.  On a narrow
    rung every entry of the rows lies in [-2^(b+1), 2^(b+1)), Id too, so
    every entry of the product is at most (2^s - 1) 2^(b+1) = 2^(w-1) -
    2^(b+1) in size: its rows and traces decode exactly, and its one flag
    says whether every entry of both blocks lies in [-2^b, 2^b).
    * If it does and |c_k| <= 2^b, P_k = T P_(k-1) + c_k Id lies in
      [-2^(b+1), 2^(b+1)), T^k in [-2^b, 2^b), and the rung holds.
    * Otherwise the product, inside its slot window, first moves up to
      b' = max(2 b, w - 1, |c_k|.bit_length()).  Its entries and c_k are
      below 2^b' in size, so every entry of the new rows is below
      2^(b'+1): the new rung holds, and so does w_top.
    One flag covers both blocks, and it asks only about what runs on.  At
    product k_pow < k_max block 0 alone decides: block 1 is dropped, which
    is exact because every entry of the rows, block 0's too, lies in the
    signed window (``packed.low_block``), and when the flag failed, block
    0 is tested again on its own (``packed.left_mul``'s argument, on mu
    slots), so a T^k_pow that left the rung moves nothing.  After the last
    product of all, only |c_k| > 2^b climbs, so that the caller's test of
    P_k_max for zero reads rows that decode: a product inside its window
    plus a c_k within 2^b stays inside it.
    """
    mu, lift = len(terms), norm.bit_length() + 2
    b, powers = FIRST_RUNG_BITS, []
    blocks = 1 + (min(k_max, k_pow) > 0)
    rows, w, masks = _rung(mu, blocks, [], 0, b, lift, w_top)
    end = rows                          # P_k_max, Id when k_max is 0
    for k in range(1, max(k_max, k_pow) + 1):    # rows: P_(k-1), T^(k-1)
        rows, reads, inside = packed.left_mul(terms, rows, w, masks, blocks)
        c = coeff(k, reads[0]) if k <= k_max else 0
        if k <= k_pow:
            powers.append(reads[-1])
        if blocks == 2 and k == k_pow < k_max:      # T^k ends: drop it
            rows, blocks = packed.low_block(rows, w), 1
            if masks:
                masks = packed.slot_masks(mu, w, b)
                if not inside:
                    acc, (off, high) = 0, masks
                    for x in rows:
                        acc |= x + off
                    inside = not acc & high
        if masks and (abs(c) > 1 << b or not inside and (
                k < k_max or k < k_pow)):
            b = max(2 * b, w - 1, abs(c).bit_length())
            rows, w, masks = _rung(mu, blocks, rows, w, b, lift, w_top)
        if c:
            rows = [x + (c << s) for x, s in zip(rows, range(0, w * mu, w))]
        if k == k_max:      # block 0 of two rides on
            end = packed.low_block(rows, w) if blocks == 2 else rows
    return end, powers


def _rung(mu: int, blocks: int, rows: list[int], w: int, b: int, lift: int,
          w_top: int) -> tuple[list[int], int, tuple | None]:
    """The rows of ``blocks`` blocks of mu slots moved from width w (Id in
    each block when w is 0) to the next rung for entries in [-2^b, 2^b):
    width b + lift while below w_top, with its ``packed.slot_masks``, else
    w_top and None."""
    narrow = b + lift < w_top
    w2 = b + lift if narrow else w_top
    if w:
        rows = packed.respace(rows, w, w2, blocks * mu)
    else:
        unit = 1 if blocks == 1 else 1 + (1 << (w2 * mu))
        rows = [unit << (w2 * i) for i in range(mu)]
    return rows, w2, packed.slot_masks(blocks * mu, w2, b) if narrow else None


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
    first, are ints (``type(x) is int``, as ``check_k``) ending in 1.
    """
    check_k(k_max)
    mu = len(coeffs) - 1
    if any(type(x) is not int for x in coeffs):
        raise ValueError(f"a coefficient of {coeffs!r} is not an int")
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
    return _signature(_symmetrized(n, 2))


def _symmetrized(n: Rows, d: int) -> Rows:
    """d Id + N + tN as fresh sparse rows, from the checked rows of N."""
    rows = [{i: d} if d else {} for i in range(len(n))]
    for i, row in enumerate(n):
        for j, x in row.items():
            rows[i][j] = rows[i].get(j, 0) + x
            rows[j][i] = rows[j].get(i, 0) + x
    return rows


def _regions_form(n: Rows, lo: int, delta: int) -> Rows:
    """R = 2 Q_BB - Q_BD Q_DB as fresh sparse rows, for Q = 2 Id + N + tN
    and the checked rows of an N whose double points D are the indices
    lo..lo + delta - 1.  R lives on the region basepoints B, the Plus ones
    moved down by delta: R_ij = 2 Q_ij - sum_d Q_id Q_jd, so each double
    point adds minus the outer product of its at most 4 region
    neighbours, a multi-edge by its multiplicity.  ValueError on an entry
    of N that joins two double points: then Q_DD = 2 Id, on which sig(Q) =
    delta + sig(R) rests, fails."""
    hi = lo + delta
    rows = [{i: 4} for i in range(len(n) - delta)]
    star = [[] for _ in range(delta)]   # star[d - lo]: the (b, Q_bd) of d
    for i, row in enumerate(n):
        if lo <= i < hi:
            s = star[i - lo]
            for j, x in row.items():
                if j >= hi:
                    s.append((j - delta, x))
                elif x:
                    raise ValueError(
                        f"N[{i}][{j}] = {x} joins two double points")
            continue
        b = i if i < lo else i - delta
        for j, x in row.items():
            if lo <= j < hi:
                star[j - lo].append((b, x))
            else:
                c = j if j < lo else j - delta
                rows[b][c] = rows[b].get(c, 0) + 2 * x
                rows[c][b] = rows[c].get(b, 0) + 2 * x
    for s in star:
        for b, x in s:
            row = rows[b]
            for c, y in s:
                row[c] = row.get(c, 0) - x * y
    return rows


def sparse_signature(rows: Rows) -> int:
    """Signature of a symmetric integer form given as rows {j: value}.

    Symmetric elimination in a minimum-degree order, ties to the least
    index, skipping stale queue entries: by Sylvester's law of inertia
    each nonzero diagonal pivot adds its sign.  When every remaining
    diagonal entry is zero, the 2x2 block [[0, b], [b, 0]] through a
    nonzero b adds +1 - 1 (Bunch and Kaufman, 1977); an all-zero row adds
    nothing.

    Row u of the current Schur complement, on a copy of the caller's rows,
    is held as integer numerators over one positive denominator den[u], the
    diagonal numerator in dg[u] and the others in adj[u], and each entry is
    stored in both of its rows, over each row's own denominator.  A pivot
    rewrites only the rows it touches, and each rewritten row is divided by
    the gcd of its numerators and its denominator.  ValueError wherever
    ``_check_rows`` rejects the rows, or on a form that is not symmetric.
    """
    _check_rows(rows)
    if any(rows[j].get(i, 0) != x
           for i, row in enumerate(rows) for j, x in row.items()):
        raise ValueError("the form is not symmetric")
    return _signature([dict(row) for row in rows])


def _check_rows(rows: Rows, upper: bool = False) -> None:
    """The one guard on every matrix that enters a public kernel: ValueError
    unless every row is a dict, every column an int in 0..mu-1 (in
    k+1..mu-1 for row k when ``upper``: N strictly upper triangular) and
    every entry an int (``type(x) is int``: no bool, float or Fraction).
    A stored int 0 is no entry to any kernel behind it."""
    mu = len(rows)
    name, where = ("N", "not above the diagonal") if upper else (
        "M", f"outside columns 0..{mu - 1}")
    for k, row in enumerate(rows):
        if type(row) is not dict:
            raise ValueError(f"{name}[{k}] is not a dict")
        lo = k + 1 if upper else 0
        for i, x in row.items():
            if type(i) is not int or not lo <= i < mu:
                raise ValueError(f"{name}[{k}][{i!r}] = {x!r} is {where}")
            if type(x) is not int:
                raise ValueError(f"{name}[{k}][{i}] = {x!r} is not an int")


def _signature(rows: Rows) -> int:
    """``sparse_signature``'s elimination on checked, symmetric rows, which
    it rewrites.  The queue and the parked rows are heaps of the keys
    degree mu + index, so heappop takes the least degree, then the least
    index: one int compares faster than a (degree, index) pair."""
    mu = len(rows)
    adj = [{j: x for j, x in r.items() if x} if 0 in r.values() else r
           for r in rows]
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
    (Tr(T^k), k = 1..min(K_DEFAULT, mu + 2)), the two from one climb
    of ``_spectrum`` on N's factored program (``_terms``), ``signature``,
    delta + sig(R) on the regions form R of the checked N
    (``_regions_form``), and the grades, ``checks``
    (pass/fail/n/a by name) and ``findings`` (where the multi-edge and
    cellularity tests disagree; never a failure).  No step after the
    constructor checks N or T again.
    """

    def __init__(self, m: DivideMap):
        faces = compute_faces(m)
        self.stats = classify(m, faces)
        self.gamma = gamma = build_gamma(m, faces)
        cnt = counts(gamma)
        self.mu, self.e, self.f = cnt.mu, cnt.e, cnt.f
        self.chi_body = body_euler(m, faces)
        self.n = n = matrix_N(gamma)
        n2, self.t, self.flag_traces, self.lam, self.lam_trace = _chain(n)
        self.n_square_zero = not any(n2)

    @lazy
    def char_poly(self) -> list[int]:
        cp, self.traces = _spectrum(self.t, self._terms, self._kept, True)
        return cp

    @lazy
    def traces(self) -> list[int]:
        return _spectrum(self.t, self._terms, self._kept)[1]

    @property
    def _kept(self) -> int:
        return min(K_DEFAULT, self.mu + 2)

    @property
    def _terms(self) -> list:
        """The row program of the record's T for ``_spectrum``: N's."""
        return packed.factored_terms(self.n)

    @lazy
    def signature(self) -> int:
        gamma = self.gamma
        return gamma.n_double + _signature(
            _regions_form(self.n, gamma.n_minus, gamma.n_double))

    def traces_to(self, k: int) -> list[int]:
        """Tr(T^k), k = 1..K for K = k clamped to 1..K_CAP: the kept
        traces, or one more climb of ``_spectrum``; ValueError unless k is
        an int."""
        k = max(1, min(check_k(k), K_CAP))
        if k <= self._kept:
            return self.traces[:k]
        return _spectrum(self.t, self._terms, k)[1]

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
            # traces[0] is Tr(T) from N's factored program, lam_trace
            # Tr(T) read off T's rows
            "lefschetz_two_routes":
                (True, lam == self.lam_trace == 1 - traces[0]),
            "det_seifert_one": (True,       # Id + N is triangular
                prod(1 + row.get(i, 0) for i, row in enumerate(n)) == 1),
            "det_monodromy_one": (True, det_from_char_poly(cp) == 1),
            "charpoly_reciprocal": (True, is_reciprocal(cp)),
            # a corrupted polynomial that is not monic fails, not raises
            "newton_matches_traces": (True, cp[-1:] == [1] and
                newton_power_sums(cp, len(traces)) == traces),
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
        # the multi-edge criterion against the sector test, compared without
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
    pairs = zip(traces, trace_powers(_symmetrized(thm.n, 0), len(traces)))
    return WalkTable(rows=tuple((i, tr_t, 1 - tr_t, tr_m)
                                for i, (tr_t, tr_m) in enumerate(pairs, 1)))
