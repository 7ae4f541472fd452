"""Sparse rows packed into single Python ints (Kronecker substitution).

Row i of an integer matrix M is held as the int sum_j M_ij 2^(w j): slot
j of width w holds entry j as a signed base-2^w digit, so adding or
scaling whole rows is one big-integer operation (Harvey, *Faster
polynomial multiplication via multipoint Kronecker substitution*,
J. Symb. Comput. 2009).  A slot holds its entry exactly on the signed
window [-2^(w-1), 2^(w-1)).  Callers choose w to suit.
Every function here takes rows that ``seifert._check_rows`` passed: a dict
per row, int columns in 0..mu-1 and int entries, which alone pack exactly.
Nothing here checks them again.

A product T M is run by a row program of T: per row i, the tuple (first,
rest, minus, other) of the rows it adds, subtracts and scales.  Row i of
T M is row ``first`` (or 0 when first is None), plus the rows in rest,
minus those in minus, plus c times row j for each (j, c) in other; each
row is summed by a plain index loop, Python's fast path for adding a few
rows, with no sum() call and no 0 + row copy.  A term names row j of M
for j < mu and, for mu + k, row k of T M itself, formed earlier in the
same product.  The rows of T make a program with no such back references
(``row_terms``).  The monodromy T = (Id + tN)^-1 (Id + N) also makes one
from the rows of the Seifert data N (``factored_terms``): a forward pass
over Id + N, then a back substitution over tN, with mu + 2 nnz(N) terms
against nnz(T).  Packing is Z-linear, so each row of T M comes out as the
exact packed integer of its entries whatever the terms summed on the way:
a partial sum, or a row of (Id + N) M, may leave the slot window, and only
the entries of T M itself have to lie in it to decode.

The trace of T M is read off its rows x_i in one pass once they are
formed.  With z_i = x_i >> (w i - 1), entry i of row i plus 2^(w-1) is

    (((z_i & (2^(w+1) - 1)) + 2^w + 1) >> 1) & (2^w - 1),

row 0 reads (x_0 + 2^(w-1)) & (2^w - 1), and the trace is their sum less
mu 2^(w-1).  It is exact while every entry of T M is within
+-(2^(w-1) - 1): the digits below slot i then sum to L with
|L| < 2^(w i - 1), so z_i = 2 d_i + e + 2^(w+1) H with d_i the entry,
e in {-1, 0} and H the digits above, and adding 1 before halving rounds
e off.  A lower digit at -2^(w-1) may put the read one off.  The shift
comes first, so the AND leaves w + 1 bits and the add and the halving
act on a small int, not on the whole row.
"""

from __future__ import annotations


def row_terms(t: list[dict[int, int]]) -> list:
    """The row program of t from its sparse rows {j: entry}: per row, the
    column of its first 1 (None if it has none), the columns of its other
    1s and of its -1s, and its other nonzeros as (column, entry), in one
    pass over the row's items; a stored 0 is no term."""
    terms = []
    for row in t:
        plus, minus, other = [], [], []
        for j, x in row.items():
            if x == 1:
                plus.append(j)
            elif x == -1:
                minus.append(j)
            elif x:
                other.append((j, x))
        terms.append((plus[0] if plus else None, plus[1:], minus, other))
    return terms


def row_norm(t: list[dict[int, int]]) -> int:
    """|T|, the largest absolute row sum of T given as sparse rows."""
    return max([sum(map(abs, row.values())) for row in t], default=0)


def factored_terms(n: list[dict[int, int]]) -> list:
    """The row program of T = (Id + tN)^-1 (Id + N) from the sparse rows of
    a strictly upper triangular N.  (Id + tN) T M = (Id + N) M gives row i
    of T M as

        M_i + sum_j N_ij M_j - sum_(k<i) N_ki (T M)_k,

    so row i starts from row i of M and reads row mu + k for each entry
    N_ki above it: row k of T M, formed earlier since k < i.  Entries of
    any sign and size are coefficients, a multi-edge too; as in
    ``row_terms``, a stored 0 is no term."""
    mu = len(n)
    terms = [(i, [], [], []) for i in range(mu)]
    for k, (_, rest, minus, other) in enumerate(terms):
        for j, x in n[k].items():
            if x == 1:
                rest.append(j)
                terms[j][2].append(mu + k)
            elif x == -1:
                minus.append(j)
                terms[j][1].append(mu + k)
            elif x:
                other.append((j, x))
                terms[j][3].append((mu + k, -x))
    return terms


def left_mul(terms, rows: list[int], w: int) -> tuple[list[int], int]:
    """The packed rows of T M from those of M, by a row program of T, and
    the trace of T M.  The rows are formed in order, each by an index loop
    over its terms, so a term may name row mu + k, k < i: row k of T M.
    Only the rows of T M have to decode.  The trace is then read in one
    pass, one big shift and one AND per row, exact while every entry of
    T M is within +-(2^(w-1) - 1) (see the module notes)."""
    mu = len(rows)
    src = rows.copy()       # row mu + k: row k of T M, once formed
    push = src.append
    for first, rest, minus, other in terms:
        x = 0 if first is None else src[first]
        for j in rest:
            x += src[j]
        if minus:
            for j in minus:
                x -= src[j]
        if other:
            for j, c in other:
                x += c * src[j]
        push(x)
    del src[:mu]
    if not mu:
        return src, 0
    low, odd, mask = (2 << w) - 1, (1 << w) + 1, (1 << w) - 1
    trace = (src[0] + (1 << (w - 1))) & mask
    for x, s in zip(src[1:], range(w - 1, w * mu, w)):
        trace += ((((x >> s) & low) + odd) >> 1) & mask
    return src, trace - (mu << (w - 1))


def slot_masks(mu: int, w: int, b: int) -> tuple[int, int]:
    """OFF_b, 2^b in each of mu slots of width w, and HIGH_b, the bits
    b+1..w-1 of each slot."""
    unit = _ones(mu, w)
    return unit << b, unit * ((1 << w) - (2 << b))


def fits(rows: list[int], off: int, high: int) -> bool:
    """Whether every entry v_j of the packed rows lies in [-2^b, 2^b),
    given the masks of ``slot_masks`` and every v_j in the signed window
    [-2^(w-1), 2^(w-1)).  X = P + OFF_b = sum_j d_j 2^(w j) with each
    d_j = v_j + 2^b in the window [2^b - 2^(w-1), 2^b + 2^(w-1)) of 2^w
    consecutive integers.  If every v_j is in range, the d_j in
    [0, 2^(b+1)) are X's own base-2^w digits: X >= 0 and no bit of HIGH_b
    is set.  Conversely, such an X is below 2^(w mu) and its own digits lie
    in [0, 2^(b+1)), inside that window; base-2^w digits from one window
    are unique, so they are the d_j.  One add and one AND per row, and no
    sign test: each d_j >= 1 - 2^(w-1), so X > -2^(w mu - 1), and if
    X < 0 its top slot's bit w-1, one of HIGH_b, is set."""
    for x in rows:
        if (x + off) & high:
            return False
    return True


def respace(rows: list[int], w: int, w2: int) -> list[int]:
    """Packed rows with entries in [-2^(w-1), 2^(w-1)) moved from slot
    width w to w2 > w.  Lifted by 2^(w-1), every slot holds a digit in
    [0, 2^w); slot j has to move up by j (w2 - w) bits, so for each bit l
    of j, the highest first, the slots with that bit set move up by
    2^l (w2 - w).  The slots stay disjoint and in order after every level,
    so a row costs a few big-integer operations per bit of mu."""
    mu, d = len(rows), w2 - w
    full, levels = (1 << w) - 1, []
    for l in reversed(range((mu - 1).bit_length())):
        done, move = -2 << l, 0         # done: the levels above l
        for j in range(mu):
            if j >> l & 1:
                move |= full << (w * j + d * (j & done))
        levels.append((move, d << l))
    up, down = _ones(mu, w) << (w - 1), _ones(mu, w2) << (w - 1)
    out = []
    for x in rows:
        x += up
        for move, shift in levels:
            y = x & move
            x ^= y
            x |= y << shift
        out.append(x - down)
    return out


def _ones(mu: int, w: int) -> int:
    """1 in each of mu slots of width w."""
    return ((1 << (w * mu)) - 1) // ((1 << w) - 1)
