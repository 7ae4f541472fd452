"""The dense exact routines, kept as oracles for the library's kernels.

The library holds N, T and the adjacency matrix as sparse rows; ``dense``
lays them out as a list of lists for these routines.  ``mat_mul`` is the
scalar triple loop the sparse row products replaced, ``mat_trace`` and
``is_zero`` the dense trace and zero test, ``monodromy_series`` the
series (Id - tN + (tN)^2)(Id + N) the forward substitution replaced,
``monodromy_acampo`` A'Campo's product of three multi-twists, which
shares no step with either, ``signature_symmetric`` the dense congruence
elimination the sparse minimum-degree signature replaced,
``sparse_signature_fraction`` that sparse elimination on Fractions, the
twin of the library's integer-row kernel, and
``char_poly``/``trace_powers`` the dense Faddeev-LeVerrier and matrix
powers the packed-row kernel replaced.  All of them but the Fraction twin
are cubic or worse in mu, so the tests run them on small matrices only.
Their own checks raise real errors, not ``assert``, so they hold under
``python -O`` too.
"""

from bisect import insort
from fractions import Fraction
from operator import mul, neg

from divides import packed, seifert


def dense(rows):
    """The list-of-lists matrix of sparse rows {j: value}."""
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i][j] += x
    return out


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def monodromy_acampo(n, sizes):
    """T = (Id + D+ Q)(Id + D. Q)(Id + D- Q) with Q = N - tN, where D_c
    keeps the rows of the vertices of colour c and sizes = (n_minus,
    n_double, n_plus) numbers them minus first, then double, then plus:
    the monodromy of a divide as the product of the three multi-twists
    along its minus, double and plus vanishing cycles (A'Campo, *Generic
    immersions of curves, knots, monodromy and gordian number*, Publ.
    Math. IHES 88, 1998)."""
    q = mat_sub(n, transpose(n))
    out, start = identity(len(n)), 0
    for size in sizes:
        twist = identity(len(n))
        for i in range(start, start + size):
            twist[i] = [x + y for x, y in zip(twist[i], q[i])]
        out = mat_mul(twist, out)
        start += size
    return out


def monodromy_series(n):
    """T = (Id + tN)^-1 (Id + N) with the inverse expanded as
    Id - tN + (tN)^2, exact when (tN)^3 = 0."""
    mu = len(n)
    nt = transpose(n)
    nt2 = mat_mul(nt, nt)
    if any(x for row in mat_mul(nt2, nt) for x in row):
        raise ValueError("nilpotency violation: (tN)^3 != 0")
    inv = mat_add(mat_sub(identity(mu), nt), nt2)
    return mat_mul(inv, mat_add(identity(mu), n))


def mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(n):
                    oi[j] += x * bk[j]
    return out


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def faddeev_products(t):
    """The matrices T M_(k-1), k = 1..mu, of Faddeev-LeVerrier, with the
    coefficients a_k; M_0 = Id and M_k = T M_(k-1) + a_k Id."""
    mu = len(t)
    m = [[int(i == j) for j in range(mu)] for i in range(mu)]
    out = []
    for k in range(1, mu + 1):
        m = mat_mul(t, m)
        a_k, r = divmod(-sum(m[i][i] for i in range(mu)), k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        out.append((m, a_k))
        m = [[x + a_k * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    if any(x for row in m for x in row):
        raise ArithmeticError("Cayley-Hamilton: T M_(mu-1) + a_mu Id != 0")
    return out


def char_poly(t):
    """Monic characteristic polynomial, constant term first."""
    return [a_k for _, a_k in reversed(faddeev_products(t))] + [1]


def powers(t, k_max):
    """T^k for k = 1..k_max."""
    out = [t] if k_max > 0 else []
    while len(out) < k_max:
        out.append(mat_mul(t, out[-1]))
    return out


def trace_powers(t, k_max):
    return [sum(p[i][i] for i in range(len(p))) for p in powers(t, k_max)]


def signature(n):
    """Signature of 2 Id + N + tN, densely over the rationals."""
    mu = len(n)
    return signature_symmetric([[(2 if i == j else 0) + n[i][j] + n[j][i]
                                 for j in range(mu)] for i in range(mu)])


def signature_symmetric(q):
    """Signature of a symmetric rational matrix by congruence elimination.

    A nonzero diagonal pivot contributes its sign; if the remaining
    diagonal is all zero but some off-diagonal entry b is not, the 2x2
    block [[0, b], [b, 0]] contributes +1 - 1 and both indices are
    eliminated through the block inverse.  A fully zero remainder
    contributes nothing.
    """
    q = [[Fraction(x) for x in row] for row in q]
    active = list(range(len(q)))
    sig = 0
    while active:
        pivot = next((i for i in active if q[i][i] != 0), None)
        if pivot is not None:
            d = q[pivot][pivot]
            sig += 1 if d > 0 else -1
            active.remove(pivot)
            col = {j: q[j][pivot] for j in active}
            for j in active:
                if col[j] == 0:
                    continue
                factor = col[j] / d
                for k in active:
                    q[j][k] -= factor * q[pivot][k]
            continue
        block = None
        for i in active:
            for j in active:
                if i < j and q[i][j] != 0:
                    block = (i, j)
                    break
            if block:
                break
        if block is None:
            break       # remaining form is zero
        i, j = block
        b = q[i][j]
        active.remove(i)
        active.remove(j)
        # inverse of [[0, b], [b, 0]] is [[0, 1/b], [1/b, 0]]
        for u in active:
            qui, quj = q[u][i], q[u][j]
            if qui == 0 and quj == 0:
                continue
            for v in active:
                q[u][v] -= (qui * q[j][v] + quj * q[i][v]) / b
        # the block's eigenvalues are +|b| and -|b|: net 0
    return sig


def sparse_signature_fraction(rows):
    """The library's sparse signature on Fractions, with the same pivot
    order: minimum degree, stale queue entries skipped, a zero diagonal
    parked, and the 2x2 block [[0, b], [b, 0]] through the neighbour of
    least degree once the remaining diagonal is all zero.  Returns the
    signature and the pivot blocks taken, in order."""
    diag = [Fraction(r.get(i, 0)) for i, r in enumerate(rows)]
    adj = [{j: Fraction(v) for j, v in r.items() if v and j != i}
           for i, r in enumerate(rows)]
    # sorted (-degree, -index) pairs: pop() takes the least degree first
    queue = sorted((-len(r), -i) for i, r in enumerate(adj))
    parked = []                         # popped with a zero diagonal
    sig, taken = 0, []
    while queue or parked:
        deg, p = map(neg, (queue or parked).pop())
        if adj[p] is None or deg != len(adj[p]):
            continue                    # stale entry
        if diag[p]:
            sig += 1 if diag[p] > 0 else -1
            pivots, s = (p,), diag[p]
        elif queue:
            insort(parked, (-deg, -p))
            continue
        elif not deg:
            adj[p] = None               # zero row
            continue
        else:
            q = min(adj[p], key=lambda j: (len(adj[j]), j))
            pivots, s = (p, q), adj[p][q]
        taken.append(pivots)
        for u in _eliminate_fraction(adj, diag, pivots, s):
            insort(queue, (-len(adj[u]), -u))
    return sig, taken


def _eliminate_fraction(adj, diag, pivots, s):
    """Replace the form by its Schur complement on the pivot block P.

    P is [[s]] or [[0, s], [s, 0]]; either way P^-1 reverses a vector
    and divides it by s, and Q_uv -= Q_uP P^-1 Q_Pv.  Returns the
    indices whose rows changed; the pivots' rows become None.
    """
    cols = [adj[p] for p in pivots]
    for p in pivots:
        for u in adj[p]:
            del adj[u][p]
        adj[p] = None
    touched = sorted(set().union(*cols).difference(pivots))
    w = {u: [col.get(u, 0) for col in cols] for u in touched}
    y = {u: [x / s for x in reversed(wu)] for u, wu in w.items()}
    for k, u in enumerate(touched):
        diag[u] -= sum(map(mul, w[u], y[u]))
        for v in touched[k + 1:]:
            x = adj[u].get(v, 0) - sum(map(mul, w[v], y[u]))
            if x:
                adj[u][v] = adj[v][u] = x
            else:
                adj[u].pop(v, None)
                adj[v].pop(u, None)
    return touched


def rows_of(q):
    """The sparse-row form {j: value} of a dense symmetric matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in q]


class BlockPivots:
    """Records the pivot blocks the library's sparse signature takes, in
    order, as tuples of indices; ``count`` is the number of 2x2 blocks."""

    def __init__(self, monkeypatch):
        self.pivots = []
        real = seifert._eliminate

        def eliminate(adj, dg, den, pivots):
            self.pivots.append(tuple(pivots))
            return real(adj, dg, den, pivots)

        monkeypatch.setattr(seifert, "_eliminate", eliminate)

    @property
    def count(self):
        return sum(len(p) == 2 for p in self.pivots)


class Rungs:
    """Records the rungs of the library's shared product loop, one run per
    ``_climb``: the first rung's b (None on the last rung), the number of
    products and each climb as (k, old b, new b, cause), new b None on the
    last rung.  Every climb follows product k: the cause is "window" when
    the product left [-2^b, 2^b), as its flag says, and "coefficient" when
    only c_k outgrew the rung.  ``products`` holds the (w, blocks, flag) of
    every product, in order."""

    def __init__(self, monkeypatch):
        self.runs = []          # [first b, products, climbs]
        self.products = []
        rung, left_mul = seifert._rung, packed.left_mul

        def record_rung(mu, blocks, rows, w, b, lift, w_top):
            new = b if b + lift < w_top else None
            if not w:
                self.runs.append([new, 0, []])
            else:
                run = self.runs[-1]
                cause = "coefficient" if self.products[-1][2] else "window"
                run[2].append((run[1], w - lift, new, cause))
            return rung(mu, blocks, rows, w, b, lift, w_top)

        def record_left_mul(terms, rows, w, masks=None, blocks=1):
            self.runs[-1][1] += 1
            out = left_mul(terms, rows, w, masks, blocks)
            self.products.append((w, blocks, out[2]))
            return out

        monkeypatch.setattr(seifert, "_rung", record_rung)
        monkeypatch.setattr(packed, "left_mul", record_left_mul)

    def climbs(self):
        return [c for _, _, climbs in self.runs for c in climbs]

    def seen(self):
        """Which of these the runs took: "stayed", a run that made every
        product on its first, narrow rung; "narrow" and "last", a climb
        onto a narrow or the last rung; "coefficient", a climb forced by
        a wide c_k."""
        out = set()
        for first, products, climbs in self.runs:
            if first is not None and products and not climbs:
                out.add("stayed")
            for _, _, new, cause in climbs:
                out.add("narrow" if new is not None else "last")
                if cause == "coefficient":
                    out.add(cause)
        return out
