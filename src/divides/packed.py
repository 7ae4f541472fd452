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
formed, every entry of T M within +-(2^(w-1) - 1).  Given the masks of
``slot_masks`` for a b <= w - 2, the pass also tests whether every entry
lies in [-2^b, 2^b): each row is lifted once, X_i = x_i + OFF_b, ORed
into an accumulator, and (X_i >> w i) & (2^w - 1) is added to the trace.
If no bit of HIGH_b is set in the OR, none is in any X_i, so every entry
is in range, each digit read is entry i of row i plus 2^b, and the trace
is their sum less mu 2^b.  The test is exact: X = sum_j d_j 2^(w j) with
each d_j = v_j + 2^b in the window [2^b - 2^(w-1), 2^b + 2^(w-1)) of 2^w
consecutive integers.  If every v_j is in range, the d_j in [0, 2^(b+1))
are X's own base-2^w digits: X >= 0 and no bit of HIGH_b is set.
Conversely, such an X is below 2^(w mu) and its own digits lie in
[0, 2^(b+1)), inside that window; base-2^w digits from one window are
unique, so they are the d_j.  No sign test is needed: each d_j >=
1 - 2^(w-1), so X > -2^(w mu - 1), and if X < 0 its top slot's bit w-1,
one of HIGH_b, is set, in the OR as well.

When the test fails, or no masks are given, the trace comes from the
signed read.  With z_i = x_i >> (w i - 1), entry i of row i plus
2^(w-1) is

    (((z_i & (2^(w+1) - 1)) + 2^w + 1) >> 1) & (2^w - 1),

row 0 reads (x_0 + 2^(w-1)) & (2^w - 1), and the trace is their sum less
mu 2^(w-1).  It is exact while every entry of T M is within
+-(2^(w-1) - 1): the digits below slot i then sum to L with
|L| < 2^(w i - 1), so z_i = 2 d_i + e + 2^(w+1) H with d_i the entry,
e in {-1, 0} and H the digits above, and adding 1 before halving rounds
e off.  A lower digit at -2^(w-1) may put the read one off.  In both
reads the shift comes first, so the AND leaves a few bits and the rest
of the read acts on a small int, not on the whole row.

A row may hold two matrices side by side, M_0 in slots 0..mu-1 and M_1
in slots mu..2 mu - 1: row i is row i of M_0 plus 2^(w mu) times row i of
M_1, so a row program moves both with the same adds.  To the test and
both reads that is one row of 2 mu slots, so all of the above holds with
2 mu for mu, and the trace of M_1 reads slot mu + i of row i.  With every
entry in the signed window, block 0 is the low w mu bits of the row once
each of its slots is lifted by 2^(w-1) (``low_block``).
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


def left_mul(terms, rows: list[int], w: int,
             masks: tuple[int, int] | None = None, blocks: int = 1
             ) -> tuple[list[int], tuple[int, ...], bool]:
    """The packed rows of T [M_0 | M_1 ...] from those of [M_0 | M_1 ...],
    by a row program of T: each row holds ``blocks`` (1 or 2) blocks of
    mu = len(rows) slots, block j in slots j mu to (j + 1) mu - 1, so each
    term is one add that moves every block.  Also the trace of each block
    of the product, and whether every entry of every block lies in
    [-2^b, 2^b), given the masks of ``slot_masks`` for b over all
    blocks mu slots; True when masks is None, where nothing is tested.
    The rows are formed in order, each by an index loop over its terms, so
    a term may name row mu + k, k < i: row k of the product.  Only the
    rows of the product have to decode, each entry within +-(2^(w-1) - 1).
    The traces and the test then take one pass over the rows, and a failed
    test a second, the signed read (see the module notes)."""
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
    mask, wm = (1 << w) - 1, w * mu
    if masks:
        off, high = masks
        acc = t0 = t1 = 0
        if blocks == 1:
            for x, s in zip(src, range(0, wm, w)):
                x += off
                acc |= x
                t0 += (x >> s) & mask
        else:
            for x, s in zip(src, range(0, wm, w)):
                x += off
                acc |= x
                t0 += (x >> s) & mask
                t1 += (x >> (s + wm)) & mask
        if not acc & high:
            lift = mu * (off & mask)
            return src, (t0 - lift, t1 - lift)[:blocks], True
    if not mu:
        return src, (0,) * blocks, True
    low, odd = (2 << w) - 1, (1 << w) + 1
    reads = []
    for o in range(0, blocks * wm, wm):     # bit o: the block's first slot
        xs, shifts, trace = src, range(o - 1, o + wm - 1, w), 0
        if not o:           # slot 0 of the row has no digit below it
            xs, shifts = src[1:], shifts[1:]
            trace = (src[0] + (1 << (w - 1))) & mask
        for x, s in zip(xs, shifts):
            trace += ((((x >> s) & low) + odd) >> 1) & mask
        reads.append(trace - (mu << (w - 1)))
    return src, tuple(reads), masks is None


def slot_masks(slots: int, w: int, b: int) -> tuple[int, int]:
    """OFF_b, 2^b in each of ``slots`` slots of width w (mu, or 2 mu for
    two-block rows), and HIGH_b, the bits b+1..w-1 of each slot."""
    unit = _ones(slots, w)
    return unit << b, unit * ((1 << w) - (2 << b))


def respace(rows: list[int], w: int, w2: int, slots: int) -> list[int]:
    """Packed rows of ``slots`` slots (mu, or 2 mu for two blocks), with
    entries in [-2^(w-1), 2^(w-1)), moved from slot width w to w2 > w.
    Lifted by 2^(w-1), every slot holds a digit in [0, 2^w); slot j has to
    move up by j (w2 - w) bits, so for each bit l of j, the highest first,
    the slots with that bit set move up by 2^l (w2 - w).  The slots stay
    disjoint and in order after every level, so a row costs a few
    big-integer operations per bit of the slot count."""
    d = w2 - w
    full, levels = (1 << w) - 1, []
    for l in reversed(range((slots - 1).bit_length())):
        done, move = -2 << l, 0         # done: the levels above l
        for j in range(slots):
            if j >> l & 1:
                move |= full << (w * j + d * (j & done))
        levels.append((move, d << l))
    up, down = _ones(slots, w) << (w - 1), _ones(slots, w2) << (w - 1)
    out = []
    for x in rows:
        x += up
        for move, shift in levels:
            y = x & move
            x ^= y
            x |= y << shift
        out.append(x - down)
    return out


def low_block(rows: list[int], w: int) -> list[int]:
    """Block 0 of two-block rows, its mu = len(rows) slots of width w, by
    one masked pass; exact whenever its entries lie in [-2^(w-1),
    2^(w-1)), whatever block 1 holds.  Lifted by 2^(w-1) in each of its
    slots, block 0 has digits in [0, 2^w), so it is the low w mu bits of
    the lifted row, and the row less block 0 is block 1 times 2^(w mu)."""
    mu = len(rows)
    up, low = _ones(mu, w) << (w - 1), (1 << (w * mu)) - 1
    return [((x + up) & low) - up for x in rows]


def _ones(mu: int, w: int) -> int:
    """1 in each of mu slots of width w."""
    return ((1 << (w * mu)) - 1) // ((1 << w) - 1)
