import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import divides
from divides import (
    TheoremReport, build_gamma, build_report, char_poly, coil, compute_faces,
    fixture, from_chords, gen_chords, is_reciprocal, lefschetz_number,
    matrix_N, monodromy_matrix, newton_power_sums, seifert, signature,
    trace_powers, verify_theorem, walk_table,
)
from divides.divide_map import lazy
from divides.seifert import (
    _flag_traces, det_from_char_poly, nilpotent_square, sparse_mul,
    sparse_signature,
)

import algebra_oracle
from algebra_oracle import (
    dense, identity, is_zero, mat_mul, mat_trace, transpose,
)

# a length-4 chain is strictly upper triangular but not cube-zero, so it
# cannot be the matrix of any divide diagram
CHAIN4 = [{1: 1}, {2: 1}, {3: 1}, {}]

# N in no format the guards on N accept: a column out of range or not an
# int, an entry not an int, a row not a dict
BAD_N = [
    [{5: 1}], [{-1: 1}, {}], [{1: 0.5}, {}], [{1.0: 1}, {}],
    [{1: True}, {}], [{1: "1"}, {}],
    [[0, 1], [0, 0]],           # dense rows, not dicts
]

# trace counts no guard on k accepts
BAD_K = [True, 2.5, "3", None]


def n_of(name_or_map):
    m = fixture(name_or_map) if isinstance(name_or_map, str) else name_or_map
    return matrix_N(build_gamma(m, compute_faces(m)))


class TestMatrixN:
    def test_x1(self):
        assert n_of("X1") == [{}]

    def test_loop(self):
        assert n_of("LOOP") == [{1: 1}, {}]

    def test_lens(self):
        assert n_of("LENS") == [{1: 1, 2: 1}, {}, {}]

    def test_strictly_upper(self, zoo):
        for name, m in zoo:
            n = n_of(m)
            for i, row in enumerate(n):
                assert all(i < j < len(n) and x for j, x in row.items()), name

    def test_n_cube_zero(self, zoo):
        for name, m in zoo:
            n = dense(n_of(m))
            assert is_zero(mat_mul(mat_mul(n, n), n)), name


class TestMonodromy:
    def test_x1(self):
        assert dense(monodromy_matrix(n_of("X1"))) == [[1]]

    def test_loop(self):
        assert dense(monodromy_matrix(n_of("LOOP"))) == [[1, 1], [-1, 0]]

    def test_lens(self):
        n = dense(n_of("LENS"))
        t = dense(monodromy_matrix(n_of("LENS")))
        assert t == [[1, 1, 1], [-1, 0, -1], [-1, -1, 0]]
        # defining relation: t(Id+N) T = Id+N
        s = [[(1 if i == j else 0) + n[i][j] for j in range(3)]
             for i in range(3)]
        assert mat_mul(transpose(s), t) == s

    def test_defining_relation(self, zoo):
        for name, m in zoo:
            n = dense(n_of(m))
            mu = len(n)
            s = [[(1 if i == j else 0) + n[i][j] for j in range(mu)]
                 for i in range(mu)]
            t = dense(monodromy_matrix(n_of(m)))
            assert mat_mul(transpose(s), t) == s, name

    def test_nilpotency_guard(self):
        with pytest.raises(ValueError, match="nilpotency"):
            monodromy_matrix(CHAIN4)
        with pytest.raises(ValueError, match="nilpotency"):
            algebra_oracle.monodromy_series(dense(CHAIN4))

    def test_entry_on_or_below_diagonal_rejected(self):
        # the forward substitution needs N strictly upper triangular; a
        # column past the last is outside the matrix
        for n in ([{}, {0: 1}], [{0: 1}], [{1: 1}, {}, {1: 2}], [{2: 1}, {}]):
            with pytest.raises(ValueError, match="not above the diagonal"):
                monodromy_matrix(n)

    def test_guards_survive_optimize(self):
        # python -O strips assert statements; the guards on N, and on T,
        # must still raise
        code = ("from divides import char_poly, monodromy_matrix\n"
                "for run, rows in ((monodromy_matrix, [{}, {0: 1}]),\n"
                "                  (monodromy_matrix, [{1: True}, {}]),\n"
                "                  (monodromy_matrix,\n"
                "                   [{1: 1}, {2: 1}, {3: 1}, {}]),\n"
                "                  (char_poly, [{0: 1, -1: 1}, {1: 1}])):\n"
                "    try:\n"
                "        run(rows)\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        src = str(Path(divides.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == ("N[1][0] = 1 is not above the diagonal\n"
                              "N[0][1] = True is not an int\n"
                              "nilpotency violation: (tN)^3 != 0\n"
                              "M[0][-1] = 1 is outside columns 0..1\n")

    def test_nilpotency_guard_cannot_be_skipped(self):
        # monodromy_matrix takes N alone: no caller can hand it an N^2 and
        # so pass over the N^3 = 0 guard, also under python -O
        code = ("import inspect\n"
                "from divides import monodromy_matrix\n"
                "print(len(inspect.signature(monodromy_matrix).parameters))\n"
                f"for args in (({CHAIN4!r}, []), ({CHAIN4!r},)):\n"
                "    try:\n"
                "        print(monodromy_matrix(*args))\n"
                "    except (TypeError, ValueError) as exc:\n"
                "        print(type(exc).__name__, 'nilpotency' in str(exc))\n")
        src = str(Path(divides.__file__).resolve().parents[1])
        for flags in ([], ["-O"]):
            out = subprocess.run([sys.executable, *flags, "-c", code],
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": src})
            assert out.stdout == "1\nTypeError False\nValueError True\n"

    @pytest.mark.parametrize("n", BAD_N)
    def test_every_guard_on_n_checks_types(self, n):
        # the guard of monodromy_matrix, lefschetz_number and verify_theorem
        # checks types as well as positions
        for guarded in (monodromy_matrix, lefschetz_number):
            with pytest.raises(ValueError):
                guarded(n)

    @pytest.mark.parametrize("k", BAD_K, ids=repr)
    def test_every_guard_on_k_checks_its_type(self, k):
        # as on N: a trace count is an int, not a bool, float, str or None
        m = fixture("LENS")
        g = build_gamma(m, compute_faces(m))
        t = monodromy_matrix(matrix_N(g))
        thm = TheoremReport(m)
        for guarded in (lambda k: trace_powers(t, k),
                        lambda k: build_report(m, k=k),
                        thm.traces_to,
                        lambda k: walk_table(thm, k)):
            with pytest.raises(ValueError, match=f"k = {k!r} is not an int"):
                guarded(k)

    def test_k_guard_survives_optimize(self):
        code = ("from divides import TheoremReport, build_report, "
                "fixture, walk_table\n"
                "m = fixture('LENS')\n"
                "thm = TheoremReport(m)\n"
                f"for k in {BAD_K!r}:\n"
                "    for run in (lambda: build_report(m, k=k),\n"
                "                lambda: walk_table(thm, k)):\n"
                "        try:\n"
                "            run()\n"
                "        except ValueError as exc:\n"
                "            print(exc)\n")
        src = str(Path(divides.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "".join(f"k = {k!r} is not an int\n" * 2
                                     for k in BAD_K)

    def test_dimension_zero(self):
        assert monodromy_matrix([]) == []
        assert lefschetz_number([]) == 1
        assert char_poly([]) == [1]


# N that the guards of TheoremReport's constructor reject: an entry on the
# diagonal, and a strictly upper triangular N with N^3 != 0
CORRUPT_N = [([{0: 1}, {}], "N[0][0] = 1 is not above the diagonal"),
             (CHAIN4, "nilpotency violation: (tN)^3 != 0")]

RECORD_BUILDS = (TheoremReport, verify_theorem,
                 lambda m: walk_table(TheoremReport(m), 4))


class TestRecordGuards:
    """The guards on N raise in TheoremReport's constructor, before any of
    the record's artifacts built on first read."""

    def test_lazy_artifacts(self):
        names = {name for name, v in vars(TheoremReport).items()
                 if isinstance(v, lazy)}
        assert names == {"char_poly", "traces", "signature", "checks",
                         "findings"}

    @pytest.mark.parametrize("n, message", CORRUPT_N,
                             ids=["diagonal", "cube"])
    def test_constructor_guards_n(self, monkeypatch, n, message):
        read = []
        for name, v in list(vars(TheoremReport).items()):
            if isinstance(v, lazy):
                monkeypatch.setattr(TheoremReport, name, property(
                    lambda self, name=name: read.append(name)))
        monkeypatch.setattr(seifert, "matrix_N", lambda gamma: n)
        for build in RECORD_BUILDS:
            with pytest.raises(ValueError) as excinfo:
                build(fixture("LENS"))
            assert str(excinfo.value) == message
            assert "__init__" in [e.name for e in excinfo.traceback]
        assert read == []

    def test_constructor_guards_survive_optimize(self):
        code = ("from divides import (TheoremReport, fixture, seifert,\n"
                "                     verify_theorem, walk_table)\n"
                "from divides.divide_map import lazy\n"
                "read = []\n"
                "for name, v in list(vars(TheoremReport).items()):\n"
                "    if isinstance(v, lazy):\n"
                "        setattr(TheoremReport, name, property(\n"
                "            lambda self, name=name: read.append(name)))\n"
                f"for n in {[n for n, _ in CORRUPT_N]!r}:\n"
                "    seifert.matrix_N = lambda gamma, n=n: n\n"
                "    for build in (TheoremReport, verify_theorem, lambda m:\n"
                "                  walk_table(TheoremReport(m), 4)):\n"
                "        try:\n"
                "            build(fixture('LENS'))\n"
                "        except ValueError as exc:\n"
                "            print(exc)\n"
                "print(read)\n")
        src = str(Path(divides.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "".join(f"{message}\n" * 3
                                     for _, message in CORRUPT_N) + "[]\n"


# LENS: N, T = monodromy_matrix(N) and the form 2 Id + N + tN, each also
# with a stored int 0 where it has no entry
N3 = [{1: 1, 2: 1}, {}, {}]
N3_ZERO = [{1: 1, 2: 1}, {2: 0}, {}]
T3 = [{0: 1, 1: 1, 2: 1}, {0: -1, 2: -1}, {0: -1, 1: -1}]
T3_ZERO = [{0: 1, 1: 1, 2: 1}, {0: -1, 1: 0, 2: -1}, {0: -1, 1: -1}]
FORM3 = [{0: 2, 1: 1, 2: 1}, {0: 1, 1: 2}, {0: 1, 2: 2}]
FORM3_ZERO = [{0: 2, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 0}, {0: 1, 1: 0, 2: 2}]

# every public kernel that takes a matrix: (the kernel, LENS's rows of
# that matrix, and those rows with a stored 0)
MATRIX_ENTRIES = {
    "signature": (signature, N3, N3_ZERO),
    "sparse_signature": (sparse_signature, FORM3, FORM3_ZERO),
    "nilpotent_square": (nilpotent_square, N3, N3_ZERO),
    "monodromy_matrix": (monodromy_matrix, N3, N3_ZERO),
    "lefschetz_number": (lefschetz_number, N3, N3_ZERO),
    "char_poly(t)": (char_poly, T3, T3_ZERO),
    "trace_powers(t, k)": (lambda t: trace_powers(t, 5), T3, T3_ZERO),
}

# one junk table for all of them, mu = 3: a row not a dict, a column not
# an int, outside 0..mu-1 on either side, and entries that are no int
JUNK_ROWS = {
    "list row": [[0, 1, 1], {}, {}],
    "str column": [{"1": 1}, {}, {}],
    "column -1": [{-1: 1}, {}, {}],
    "column mu": [{3: 1}, {}, {}],
    **{f"entry {x!r}": [{1: x}, {}, {}]
       for x in (True, 0.5, Fraction(1, 2), False, 0.0)},
}


class TestMatrixGuards:
    """One guard, ``_check_rows``, takes every matrix at the public entry
    of its kernel, so every kernel meets junk with ValueError, and a stored
    int 0 is no entry to any of them."""

    @pytest.mark.parametrize("junk", JUNK_ROWS)
    @pytest.mark.parametrize("entry", MATRIX_ENTRIES)
    def test_junk_raises_value_error(self, entry, junk):
        run = MATRIX_ENTRIES[entry][0]
        with pytest.raises(ValueError):
            run(JUNK_ROWS[junk])

    @pytest.mark.parametrize("entry", MATRIX_ENTRIES)
    def test_stored_int_zero_changes_nothing(self, entry):
        run, rows, zeroed = MATRIX_ENTRIES[entry]
        assert run(zeroed) == run(rows)

    def test_lens_tables(self):
        n = n_of("LENS")
        assert n == N3
        assert monodromy_matrix(n) == T3
        assert sparse_signature(FORM3) == signature(n) == 3


class TestLefschetz:
    def test_loop(self):
        assert lefschetz_number(n_of("LOOP")) == 0

    def test_fig2a(self):
        assert lefschetz_number(n_of("FIG2A")) == 2

    def test_fig2b(self):
        assert lefschetz_number(n_of("FIG2B")) == -1

    def test_fig1(self):
        assert lefschetz_number(n_of("FIG1")) == 0

    def test_routes_disagree_raises(self, monkeypatch):
        # formula 1 - 1 + 0 - 0 = 0 against trace route 1 - Tr([[5]]) = -4,
        # which the chain step works out from the T it builds
        monkeypatch.setattr(seifert, "_monodromy", lambda n: [{0: 5}])
        with pytest.raises(ArithmeticError, match="disagree"):
            lefschetz_number([{}])

    def test_entrywise_sums_equal_product_traces(self):
        maps = [fixture(name) for name in
                ("X1", "LOOP", "LENS", "FIG1", "FIG2A", "FIG2B")]
        maps += [from_chords(gen_chords(n, s))
                 for n in range(5, 9) for s in range(100, 105)]
        for m in maps:
            rows = n_of(m)
            n = dense(rows)
            nt = transpose(n)
            assert _flag_traces(rows, sparse_mul(rows, rows)) == (
                mat_trace(mat_mul(nt, n)),
                mat_trace(mat_mul(mat_mul(nt, nt), n)))


class TestTracePowers:
    def test_x1(self):
        assert trace_powers(monodromy_matrix(n_of("X1")), 3) == [1, 1, 1]

    def test_loop_order_six(self):
        t = monodromy_matrix(n_of("LOOP"))
        assert trace_powers(t, 6) == [1, -1, -2, -1, 1, 2]
        p = identity(2)
        for _ in range(6):
            p = mat_mul(p, dense(t))
        assert p == identity(2)

    def test_lens(self):
        t = monodromy_matrix(n_of("LENS"))
        assert trace_powers(t, 4) == [1, -1, 1, 3]


class TestCharPoly:
    def test_x1(self):
        assert char_poly(monodromy_matrix(n_of("X1"))) == [-1, 1]

    def test_loop(self):
        assert char_poly(monodromy_matrix(n_of("LOOP"))) == [1, -1, 1]

    def test_lens(self):
        assert char_poly(monodromy_matrix(n_of("LENS"))) == [-1, 1, -1, 1]

    def test_inexact_division_raises(self):
        # a rational input would make the first division by k = 1 inexact;
        # the guard on T rejects it before any division
        for run in (char_poly, lambda t: trace_powers(t, 3)):
            with pytest.raises(ValueError,
                               match=r"M\[0\]\[0\] = Fraction\(1, 2\) is not"):
                run([{0: Fraction(1, 2)}])

    def test_stored_zero_packs_as_nothing(self):
        # a stored int 0 is no entry; a zero of another type is no int
        t = [{0: 1, 1: 0}, {0: 0, 1: 2}]
        assert char_poly(t) == char_poly([{0: 1}, {1: 2}]) == [2, -3, 1]
        assert trace_powers(t, 3) == [3, 5, 9]
        for zero in (Fraction(0), False, 0.0):
            t = [{0: 1, 1: zero}, {0: zero, 1: 2}]
            for run in (char_poly, lambda t: trace_powers(t, 3)):
                with pytest.raises(ValueError, match="is not an int"):
                    run(t)

    def test_bool_entry_raises(self):
        # True would pack as 1; like signature and the guards on N, the
        # kernels on T take no bool for an int
        for t in ([{0: True, 1: 1}, {1: 1}], [{0: 1}, {0: True, 1: 2}]):
            with pytest.raises(ValueError, match="True is not an int"):
                char_poly(t)
            with pytest.raises(ValueError, match="True is not an int"):
                trace_powers(t, 3)

    def test_oracle_checks_survive_optimize(self):
        # python -O strips assert statements; the dense oracle must still
        # reject an inexact division
        code = ("from fractions import Fraction\n"
                "import algebra_oracle\n"
                "try:\n"
                "    algebra_oracle.faddeev_products([[Fraction(1, 2)]])\n"
                "except ArithmeticError:\n"
                "    print('raised')\n")
        src = str(Path(divides.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ,
                                  "PYTHONPATH": os.pathsep.join((src, tests))})
        assert out.stdout == "raised\n"

    def test_det_one_and_reciprocal(self, zoo):
        for name, m in zoo:
            cp = char_poly(monodromy_matrix(n_of(m)))
            assert det_from_char_poly(cp) == 1, name
            assert is_reciprocal(cp), name

    def test_brute_force_determinant_cross_check(self):
        # p(x) must equal det(x Id - T) at integer points; 3x3 by Sarrus
        t = monodromy_matrix(n_of("LENS"))
        cp = char_poly(t)
        t = dense(t)
        for x in (-2, -1, 0, 1, 2, 3):
            a = [[(x if i == j else 0) - t[i][j] for j in range(3)]
                 for i in range(3)]
            det = (a[0][0] * a[1][1] * a[2][2] + a[0][1] * a[1][2] * a[2][0]
                   + a[0][2] * a[1][0] * a[2][1]
                   - a[0][2] * a[1][1] * a[2][0]
                   - a[0][0] * a[1][2] * a[2][1]
                   - a[0][1] * a[1][0] * a[2][2])
            assert _poly_eval(cp, x) == det


class TestNewton:
    def test_linear(self):
        assert newton_power_sums([-1, 1], 3) == [1, 1, 1]

    def test_loop_poly(self):
        assert newton_power_sums([1, -1, 1], 6) == [1, -1, -2, -1, 1, 2]

    def test_lens_poly(self):
        assert newton_power_sums([-1, 1, -1, 1], 4) == [1, -1, 1, 3]

    def test_matches_traces(self, zoo):
        for name, m in zoo:
            t = monodromy_matrix(n_of(m))
            cp = char_poly(t)
            assert newton_power_sums(cp, 12) == trace_powers(t, 12), name

    def test_non_monic_rejected(self):
        # constant term first: [1, 2] is 1 + 2x, while [2, 1] is monic
        assert newton_power_sums([2, 1], 3) == [-2, 4, -8]
        with pytest.raises(ValueError, match="monic"):
            newton_power_sums([1, 2], 3)

    @pytest.mark.parametrize("coeffs, k", [
        ([1], True), ([1], 2.0), ([-1, 1], "3"),     # k is no int
        ([], 3),                                    # no leading 1
        ([0.5, 1], 3), ([Fraction(1, 2), 1], 3),    # inexact coefficients
        ([1, True], 3), ([None, 1], 3),             # True == 1, None
        ([1, 1.0], 3),
    ], ids=["bool k", "float k", "str k", "empty", "float coefficient",
            "Fraction coefficient", "bool leading 1", "None coefficient",
            "float leading 1"])
    def test_inputs_checked(self, coeffs, k):
        with pytest.raises(ValueError, match="is not an int|monic"):
            newton_power_sums(coeffs, k)

    def test_non_monic_rejected_under_optimize(self):
        # python -O strips assert statements; the guard must survive it
        code = ("from divides.seifert import newton_power_sums\n"
                "for coeffs in ([1, 2], [0.5, 1]):\n"
                "    try:\n"
                "        newton_power_sums(coeffs, 3)\n"
                "    except ValueError:\n"
                "        print('raised')\n")
        src = str(Path(divides.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "raised\n" * 2


class TestSignature:
    def test_x1(self):
        assert signature(n_of("X1")) == 1

    def test_loop_positive_definite(self):
        # 2 Id + N + tN = [[2, 1], [1, 2]]: both eigenvalues positive
        assert signature(n_of("LOOP")) == 2

    def test_lens(self):
        # leading principal minors 2, 3, 4: positive definite
        assert signature(n_of("LENS")) == 3

    def test_degenerate(self):
        assert signature([{1: 2}, {}]) == 1         # form [[2,2],[2,2]]
        assert signature([{1: 1}, {0: -1}]) == 2    # form [[2,0],[0,2]]

    def test_symmetric_core_block_pivot(self):
        # (dense form, its sparse rows {j: value}, signature)
        forms = [
            ([[0, 1], [1, 0]], [{1: 1}, {0: 1}], 0),
            ([[0, 0, 1], [0, 2, 0], [1, 0, 0]],
             [{2: 1}, {1: 2}, {0: 1}], 1),
            ([[0]], [{}], 0),
            ([[-3]], [{0: -3}], -1),
        ]
        for q, rows, sig in forms:
            assert sparse_signature(rows) == sig, q
            assert algebra_oracle.signature_symmetric(q) == sig, q
            assert algebra_oracle.rows_of(q) == rows, q
        # a stored zero is no entry, so never the b of a 2x2 block
        assert sparse_signature([{1: 0, 2: 1}, {0: 0}, {0: 1}]) == 0

    def test_sparse_signature_leaves_the_rows(self):
        # the elimination pops the diagonal, drops stored zeros and rewrites
        # rows: it runs on a copy, never on the caller's rows
        rows = [{0: 2, 1: 1, 2: 0}, {0: 1, 1: -3}, {0: 0, 2: 5}]
        kept = [dict(row) for row in rows]
        assert sparse_signature(rows) == 1
        assert rows == kept

    @pytest.mark.parametrize("rows", [
        [{5: 1}],                   # a column outside 0..mu-1
        [{-1: 1}],
        [{True: 1}, {0: 1}],
        [{1: 1}, {0: 2}],           # not symmetric
        [{1: 1}, {}],
        [{0: 0.5}],                 # an entry that is not an int
        [{0: True}],
        [{0: Fraction(-1, 2)}],
        [{0: 1}, None],             # a row that is not a dict
    ])
    def test_sparse_signature_guards(self, rows):
        with pytest.raises(ValueError):
            sparse_signature(rows)

    @pytest.mark.parametrize("n", BAD_N)
    def test_signature_guards(self, n):
        with pytest.raises(ValueError):
            signature(n)

    def test_jacobi_minor_oracle(self, zoo):
        # when every leading principal minor is nonzero, the signature is
        # the number of sign agreements minus disagreements along them
        for name, m in zoo:
            n = dense(n_of(m))
            mu = len(n)
            q = [[(2 if i == j else 0) + n[i][j] + n[j][i]
                  for j in range(mu)] for i in range(mu)]
            minors = [1]
            ok = True
            for k in range(1, mu + 1):
                d = _det_int([row[:k] for row in q[:k]])
                if d == 0:
                    ok = False
                    break
                minors.append(d)
            if not ok:
                continue
            sig = sum(1 if minors[i - 1] * minors[i] > 0 else -1
                      for i in range(1, mu + 1))
            assert signature(n_of(m)) == sig, name


def _poly_eval(coeffs, x):
    """Evaluate a constant-first coefficient list at an integer."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _det_int(a):
    """Fraction-free Gauss-Bareiss determinant of a small integer matrix."""
    a = [row[:] for row in a]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class TestVerifyTheorem:
    def test_n_cube_zero_rests_on_the_nilpotency_guard(self, monkeypatch):
        # n_cube_zero is graded pass without a product of its own, which
        # holds only because a nonzero N^3 never gets past nilpotent_square
        monkeypatch.setattr(divides.seifert, "matrix_N",
                            lambda gamma: [dict(row) for row in CHAIN4])
        with pytest.raises(ValueError, match="nilpotency"):
            verify_theorem(fixture("LENS"))

    def test_lens_all_pass(self):
        rep = verify_theorem(fixture("LENS"))
        assert rep.lam == 0
        assert rep.all_pass()
        assert all(v in ("pass", "n/a") for v in rep.checks.values())

    def test_fig1_theorem_not_applicable(self):
        rep = verify_theorem(fixture("FIG1"))
        assert rep.lam == 0
        assert not rep.stats.cellular
        assert rep.checks["simple_cellular_lambda_zero"] == "n/a"
        assert rep.all_pass()

    def test_coil3(self):
        rep = verify_theorem(coil(3))
        assert rep.lam == -2
        assert not rep.stats.simple
        assert rep.checks["simple_chi_body_one"] == "n/a"
        assert rep.all_pass()

    def test_fig2a_findings_channel(self):
        rep = verify_theorem(fixture("FIG2A"))
        assert rep.lam == 2
        assert rep.all_pass()
        # pinched region and a multi-edge: the two sides agree, no finding
        assert rep.findings == []

    def test_zoo_no_hard_failures(self, zoo):
        for name, m in zoo:
            rep = verify_theorem(m)
            assert rep.all_pass(), (name, rep.failed())

    def test_chord_instance(self):
        m = from_chords(gen_chords(5, 7))
        rep = verify_theorem(m)
        assert rep.all_pass()

    def test_corrupted_char_poly_grades_fail(self, monkeypatch):
        # constant term + 2: no longer monic at mu 0, where Newton's
        # identities cannot take it; the record and the corpus must grade
        # the fault, not raise it.  The record's polynomial comes from its
        # climb in seifert._spectrum, not from the public char_poly
        real = seifert._spectrum

        def corrupted(t, terms, k, poly=False):
            cp, traces = real(t, terms, k, poly)
            return [c + 2 * (i == 0) for i, c in enumerate(cp)], traces

        monkeypatch.setattr(seifert, "_spectrum", corrupted)
        thm = TheoremReport(from_chords(gen_chords(1, 1)))
        assert thm.mu == 0 and thm.char_poly == [3]
        assert thm.checks["newton_matches_traces"] == "fail"
        assert thm.checks["det_monodromy_one"] == "fail"
        summary = divides.run_corpus(1, 1, 1)
        assert (1, "newton_matches_traces") in summary.discrepancies
        rep = verify_theorem(from_chords(gen_chords(5, 7)))
        assert "det_monodromy_one" in rep.failed()

    def test_dropped_segment_edge_fails_flags_closed(self, monkeypatch):
        # every flag of a correct diagram closes, so cellular_flags_closed
        # grades build_gamma's segment edges against its sector edges
        real = seifert.build_gamma

        def drop_first_segment_edge(m, faces):
            g = real(m, faces)
            ns = g.n_sector
            return replace(g, lo=g.lo[:ns] + g.lo[ns + 1:],
                           hi=g.hi[:ns] + g.hi[ns + 1:])

        m = from_chords(gen_chords(8, 2))
        assert verify_theorem(m).all_pass()
        monkeypatch.setattr(seifert, "build_gamma", drop_first_segment_edge)
        rep = verify_theorem(m)
        assert rep.stats.cellular
        assert rep.failed() == ["cellular_trace_n2n_eq_f",
                                "cellular_flags_closed"]

    def test_factored_program_is_tied_to_t(self, monkeypatch):
        # a factored program that drops the back-substitution term N_ki of
        # its last row multiplies by a T' with T'_ii = T_ii + N_ki T_ki:
        # the Tr(T) it gives must fail the Lefschetz grade against T's rows
        real = seifert.packed.factored_terms
        dropped = []

        def drop_one(n):
            terms, t = real(n), monodromy_matrix(n)
            mu = len(n)
            for lst in terms[-1][1:]:       # [0]: the row's own row of M
                for term in lst:
                    k = (term if isinstance(term, int) else term[0]) - mu
                    if k >= 0 and t[k].get(mu - 1):
                        lst.remove(term)
                        dropped.append(k)
                        return terms
            return terms

        m = from_chords(gen_chords(12, 3))
        clean = verify_theorem(m)
        assert clean.all_pass() and clean.mu >= 12
        monkeypatch.setattr(seifert.packed, "factored_terms", drop_one)
        try:
            rep = verify_theorem(m)
        except ArithmeticError:
            pass
        else:
            assert rep.checks["lefschetz_two_routes"] == "fail"
            assert (rep.lam, rep.lam_trace) == (clean.lam, clean.lam_trace)
        assert dropped

    def test_carries_chain_artifacts(self, zoo):
        for name, m in zoo:
            rep = verify_theorem(m)
            assert rep.gamma == build_gamma(m, compute_faces(m)), name
            assert rep.n == matrix_N(rep.gamma), name
            assert rep.t == monodromy_matrix(rep.n), name
            assert rep.char_poly == char_poly(rep.t), name
            k = min(12, rep.mu + 2)
            assert rep.traces == trace_powers(rep.t, k), name
