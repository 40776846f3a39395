import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dissimjl import (
    BallSpec,
    DissimilarityError,
    DissimilarityMatrix,
    SimplexSpec,
    center_gram,
    decompose,
    gen_balls,
    gen_simplex,
    graph_hops,
    parse_edge_list,
)


class TestGenSimplex:
    def test_returns_validated_matrix(self):
        D = gen_simplex(SimplexSpec(30))
        assert isinstance(D, DissimilarityMatrix)
        A = D.entries
        assert A.shape == (30, 30)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0.0)

    @pytest.mark.parametrize("n", [50, 120])
    def test_negative_part_dominates(self, n):
        for seed in (0, 1, 2):
            dec = decompose(center_gram(gen_simplex(SimplexSpec(n, seed=seed))))
            assert abs(dec.q - round(0.9 * n)) <= 2
            assert dec.q > dec.p
            assert dec.p + dec.q + dec.zero_rank == n

    def test_zero_alpha_degenerates_to_simplex(self):
        D = gen_simplex(SimplexSpec(12, alpha=0.0))
        expected = 2.0 * (1.0 - np.eye(12))
        assert_allclose(D.entries, expected, atol=0)
        dec = decompose(center_gram(D))
        assert dec.q == 0
        assert dec.p == 11

    def test_heavy_block_makes_entries_negative(self):
        A = gen_simplex(SimplexSpec(40)).entries
        assert A.min() < 0.0

    def test_deterministic_in_seed(self):
        a = gen_simplex(SimplexSpec(15, seed=7)).entries
        b = gen_simplex(SimplexSpec(15, seed=7)).entries
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_simplex(SimplexSpec(15, seed=8)).entries)

    def test_rejects_bad_spec(self):
        with pytest.raises(DissimilarityError, match="n >= 2"):
            gen_simplex(SimplexSpec(1))
        for alpha in (-1.0, np.nan, np.inf):
            with pytest.raises(DissimilarityError, match="alpha"):
                gen_simplex(SimplexSpec(5, alpha=alpha))
        with pytest.raises(DissimilarityError, match="seed"):
            SimplexSpec(5, seed=-1)


class TestGenBalls:
    def test_shape_and_clamping(self):
        A = gen_balls(BallSpec(120)).entries
        assert A.shape == (120, 120)
        assert np.array_equal(A, A.T)
        assert np.all(A >= 0.0)
        assert np.all(np.diag(A) == 0.0)

    def test_validation_keeps_a_view(self):
        # r_i + r_j is formed once, so D_ij and D_ji round alike and the
        # generated matrix is canonical: validation copies nothing
        for seed in range(3):
            assert gen_balls(BallSpec(120, seed=seed)).entries.base is not None

    def test_overlapping_pairs_produce_zeros(self):
        A = gen_balls(BallSpec(120)).entries
        off = A[np.triu_indices(120, 1)]
        frac = np.mean(off == 0.0)
        assert 0.01 < frac < 0.15

    def test_not_euclidean(self):
        dec = decompose(center_gram(gen_balls(BallSpec(120))))
        assert dec.q > 0

    def test_violates_triangle_inequality(self):
        # Clamped surface gaps: a ball overlapping two distant balls
        # gives D_ij = D_jk = 0 with D_ik > 0.
        A = gen_balls(BallSpec(120)).entries
        n = A.shape[0]
        found = False
        for j in range(n):
            touching = np.flatnonzero(A[j] == 0.0)
            touching = touching[touching != j]
            if touching.size < 2:
                continue
            sub = A[np.ix_(touching, touching)]
            if sub.max() > 1e-9:
                found = True
                break
        assert found

    def test_deterministic_in_seed(self):
        a = gen_balls(BallSpec(25, seed=3)).entries
        b = gen_balls(BallSpec(25, seed=3)).entries
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_balls(BallSpec(25, seed=4)).entries)

    def test_rejects_bad_spec(self):
        with pytest.raises(DissimilarityError, match="n >= 2"):
            gen_balls(BallSpec(1))
        with pytest.raises(DissimilarityError, match="dim"):
            gen_balls(BallSpec(5, dim=0))
        with pytest.raises(DissimilarityError, match="radius"):
            gen_balls(BallSpec(5, radius_min=2.0, radius_max=1.0))
        with pytest.raises(DissimilarityError, match="radius"):
            gen_balls(BallSpec(5, radius_min=-0.5))
        with pytest.raises(DissimilarityError, match="radius"):
            gen_balls(BallSpec(5, radius_max=np.inf))
        with pytest.raises(DissimilarityError, match="seed"):
            BallSpec(5, seed=-1)


class TestParseEdgeList:
    def test_parses_pairs_skipping_blanks(self):
        lines = ["0 1", "", "  1   2 ", "\t", "2 0"]
        assert parse_edge_list(lines) == [(0, 1), (1, 2), (2, 0)]

    def test_wrong_token_count_names_line(self):
        with pytest.raises(DissimilarityError, match="line 2"):
            parse_edge_list(["0 1", "0 1 2"])

    def test_non_integer_names_line(self):
        with pytest.raises(DissimilarityError, match="line 1"):
            parse_edge_list(["a b"])

    def test_negative_id_rejected(self):
        with pytest.raises(DissimilarityError, match="negative"):
            parse_edge_list(["0 -1"])

    def test_empty_input_rejected(self):
        with pytest.raises(DissimilarityError, match="empty"):
            parse_edge_list(["", "   "])


class TestGraphHops:
    def test_path_graph(self):
        D = graph_hops([(0, 1), (1, 2)])
        assert_allclose(
            D.entries, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=0
        )

    def test_triangle_with_pendant(self):
        D = graph_hops([(0, 1), (1, 2), (2, 0), (2, 3)])
        expected = np.array(
            [[0, 1, 1, 2], [1, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0]], dtype=float
        )
        assert_allclose(D.entries, expected, atol=0)

    def test_self_loops_and_duplicates_ignored(self):
        D = graph_hops([(0, 0), (0, 1), (1, 0), (0, 1)])
        assert_allclose(D.entries, [[0, 1], [1, 0]], atol=0)

    def test_disconnected_keeps_largest_component(self):
        with pytest.warns(RuntimeWarning, match="disconnected"):
            D = graph_hops([(0, 1), (2, 3), (3, 4)])
        assert_allclose(D.entries, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=0)

    def test_implicit_isolated_vertices_dropped(self):
        # ids 1..4 never appear in an edge, so only {0, 5} survives
        with pytest.warns(RuntimeWarning, match="disconnected"):
            D = graph_hops([(0, 5)])
        assert_allclose(D.entries, [[0, 1], [1, 0]], atol=0)

    def test_only_self_loops_rejected(self):
        with pytest.raises(DissimilarityError, match="no edges"):
            graph_hops([(0, 0), (3, 3)])

    def test_hop_counts_are_integral(self):
        rng = np.random.default_rng(0)
        edges = [(int(rng.integers(0, 20)), int(rng.integers(0, 20)))
                 for _ in range(60)]
        edges = [(u, v) for u, v in edges if u != v]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            D = graph_hops(edges)
        A = D.entries
        assert np.array_equal(A, np.round(A))
        assert A.min() == 0.0
