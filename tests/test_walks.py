from divides import (
    TheoremReport, adjacency, build_gamma, char_poly, compute_faces, counts,
    fixture, monodromy_matrix, matrix_N, newton_power_sums, walk_table,
)

from algebra_oracle import dense, mat_mul, mat_trace


def gamma_of(m):
    return build_gamma(m, compute_faces(m))


class TestAdjacency:
    def test_x1(self):
        assert dense(adjacency(gamma_of(fixture("X1")))) == [[0]]

    def test_loop(self):
        assert dense(adjacency(gamma_of(fixture("LOOP")))) \
            == [[0, 1], [1, 0]]

    def test_lens(self):
        assert dense(adjacency(gamma_of(fixture("LENS")))) == \
            [[0, 1, 1], [1, 0, 0], [1, 0, 0]]


class TestWalkTable:
    def test_loop_k4(self):
        table = walk_table(TheoremReport(fixture("LOOP")), 4)
        assert table.rows == ((1, 1, 0, 0), (2, -1, 2, 2),
                              (3, -2, 3, 0), (4, -1, 2, 2))

    def test_x1_k2(self):
        table = walk_table(TheoremReport(fixture("X1")), 2)
        assert table.rows == ((1, 1, 0, 0), (2, 1, 0, 0))

    def test_lens_k2(self):
        table = walk_table(TheoremReport(fixture("LENS")), 2)
        assert table.rows == ((1, 1, 0, 0), (2, -1, 2, 4))

    def test_handshake(self, zoo):
        from divides import has_multi_edge, matrix_N as n_mat
        for name, m in zoo:
            g = gamma_of(m)
            a = dense(adjacency(g))
            assert mat_trace(a) == 0, name
            n = n_mat(g)
            sq = 2 * sum(x * x for row in n for x in row.values())
            assert mat_trace(mat_mul(a, a)) == sq, name
            if not has_multi_edge(g):
                # simple-graph handshake: squared multiplicities reduce to e
                assert mat_trace(mat_mul(a, a)) == 2 * counts(g).e, name

    def test_walk_counts_nonnegative(self, zoo):
        for name, m in zoo:
            table = walk_table(TheoremReport(m), 8)
            assert all(row[3] >= 0 for row in table.rows), name

    def test_trace_column_matches_newton(self, zoo):
        for name, m in zoo:
            thm = TheoremReport(m)
            table = walk_table(thm, 10)
            cp = char_poly(monodromy_matrix(matrix_N(thm.gamma)))
            assert [r[1] for r in table.rows] == \
                newton_power_sums(cp, 10), name

    def test_k_clamped(self):
        thm = TheoremReport(fixture("LOOP"))
        assert len(walk_table(thm, 0).rows) == 1
        assert len(walk_table(thm, 1000).rows) == 64

    def test_csv(self):
        csv = walk_table(TheoremReport(fixture("LOOP")), 2).to_csv()
        assert csv == "k,tr_T_k,lefschetz_k,tr_M_k\n1,1,0,0\n2,-1,2,2\n"
