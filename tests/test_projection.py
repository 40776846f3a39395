import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dissimjl import (
    BallSpec,
    DissimilarityError,
    ProjectionConfig,
    PseudoEuclideanEmbedding,
    center_gram,
    decompose,
    decompose_power,
    embed_pq,
    gaussian_map,
    gen_balls,
    project,
    reconstruct,
    squared_distances,
    target_dim,
    validate_matrix,
)

from conftest import pairwise_sq_oracle

# P(chi2_m / m outside [0.5, 1.5]) for the target dims used below,
# computed from the chi-square CDF.
BAND_MISS_M13 = 0.18235
BAND_MISS_M80 = 0.00260


class TestProjectionConfig:
    def test_defaults(self):
        cfg = ProjectionConfig()
        assert (cfg.epsilon, cfg.dim_constant, cfg.seed) == (0.5, 2.0, 0)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1])
    def test_epsilon_out_of_range(self, eps):
        with pytest.raises(DissimilarityError, match="epsilon"):
            ProjectionConfig(epsilon=eps)

    @pytest.mark.parametrize("c", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_nonpositive_constant(self, c):
        with pytest.raises(DissimilarityError, match="constant"):
            ProjectionConfig(dim_constant=c)

    def test_negative_seed(self):
        with pytest.raises(DissimilarityError, match="seed"):
            ProjectionConfig(seed=-1)


class TestTargetDim:
    @pytest.mark.parametrize("n,eps,c,expected", [
        (1000, 0.5, 2.0, 80),
        (1000, 0.5, 4.0, 160),
        (2, 0.5, 2.0, 8),
        (3, 0.5, 2.0, 13),
        (100, 0.3, 2.0, 148),
    ])
    def test_known_values(self, n, eps, c, expected):
        assert target_dim(n, ProjectionConfig(epsilon=eps, dim_constant=c)) == expected

    def test_monotone_in_n_and_epsilon(self):
        cfg = ProjectionConfig()
        dims = [target_dim(n, cfg) for n in (2, 10, 100, 1000, 10_000)]
        assert dims == sorted(dims)
        tight = target_dim(500, ProjectionConfig(epsilon=0.2))
        loose = target_dim(500, ProjectionConfig(epsilon=0.8))
        assert tight > loose

    @pytest.mark.parametrize("eps,c", [
        (1e-9, 2.0), (1e-12, 2.0), (0.5, 1e300), (1e-160, 2.0), (1e-300, 2.0),
    ])
    def test_dimension_numpy_cannot_address_is_a_data_error(self, eps, c):
        # eps^2 would underflow at 1e-160 (subnormal) and 1e-300 (zero)
        with pytest.raises(DissimilarityError, match=r"^epsilon .* dim constant .* m = "):
            target_dim(6, ProjectionConfig(epsilon=eps, dim_constant=c))

    def test_largest_dimension_is_the_longest_column_numpy_addresses(self):
        # at n = 2 and eps = 1/2, m = 4c exactly; numpy indexes up to 2^63 - 1
        # bytes, so a column holds at most 2^60 - 1 doubles
        below = ProjectionConfig(epsilon=0.5, dim_constant=2.0**58 - 64)
        assert target_dim(2, below) == 2**60 - 256
        with pytest.raises(DissimilarityError, match="more than numpy can address"):
            target_dim(2, ProjectionConfig(epsilon=0.5, dim_constant=2.0**58))

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_too_few_points(self, n):
        with pytest.raises(DissimilarityError, match="two points"):
            target_dim(n, ProjectionConfig())


class TestGaussianMap:
    def test_shape_and_scale(self):
        M = gaussian_map(40, 500, seed=0)
        assert M.shape == (40, 500)
        assert abs(M.mean()) < 0.005
        assert abs(M.std() - 1.0 / np.sqrt(40)) < 0.01

    def test_deterministic_in_seed(self):
        a = gaussian_map(8, 5, seed=3)
        b = gaussian_map(8, 5, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gaussian_map(8, 5, seed=4))

    def test_apply_is_linear(self):
        M = gaussian_map(6, 4, seed=1)
        rng = np.random.default_rng(2)
        X, Y = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        assert_allclose((X + Y) @ M.T, X @ M.T + Y @ M.T, atol=1e-12)
        assert_allclose((2.5 * X) @ M.T, 2.5 * (X @ M.T), atol=1e-12)

    def test_zero_input_dimension_maps_to_origin(self):
        out = np.zeros((4, 0)) @ gaussian_map(7, 0, seed=0).T
        assert out.shape == (4, 7)
        assert np.all(out == 0.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(DissimilarityError):
            gaussian_map(0, 3, seed=0)
        with pytest.raises(DissimilarityError):
            gaussian_map(3, -1, seed=0)

    def test_norm_band_rate_small_dim(self):
        # ||Mx||^2 / ||x||^2 is a chi2_13 / 13 draw for an m = 13 map.
        x = np.random.default_rng(5).standard_normal(7)
        sq = float(x @ x)
        misses = 0
        trials = 2500
        for seed in range(trials):
            y = gaussian_map(13, 7, seed=seed) @ x
            ratio = float(y @ y) / sq
            misses += not (0.5 <= ratio <= 1.5)
        assert abs(misses / trials - BAND_MISS_M13) < 0.04

    def test_norm_band_rate_working_dim(self):
        x = np.random.default_rng(6).standard_normal(50)
        sq = float(x @ x)
        misses = 0
        trials = 400
        for seed in range(trials):
            y = gaussian_map(80, 50, seed=seed) @ x
            ratio = float(y @ y) / sq
            misses += not (0.5 <= ratio <= 1.5)
        assert misses / trials <= 0.02


def three_point_gram():
    D = validate_matrix(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]]))
    return center_gram(D)


def three_point_decomposition():
    return decompose(three_point_gram())


def three_point_power(radius=None):
    return decompose_power(three_point_gram(), radius)[1]


def three_point_embedding():
    return embed_pq(three_point_decomposition())


def balls_embedding():
    return embed_pq(decompose(center_gram(gen_balls(BallSpec(40, seed=1)))))


def negated_points_embedding():
    """p = 0: D = -(squared distances of 5 points in R^4) has q = 4."""
    X = np.random.default_rng(14).standard_normal((5, 4))
    return embed_pq(decompose(center_gram(validate_matrix(-squared_distances(X)))))


class TestProject:
    def test_shapes_share_target_dim(self):
        emb = three_point_embedding()
        proj = project(emb, ProjectionConfig())
        assert proj.pos_coords.shape == (3, 13)
        assert proj.neg_coords.shape == (3, 13)
        assert proj.n == 3

    def test_returns_input_type(self):
        proj = project(three_point_embedding(), ProjectionConfig())
        assert type(proj) is PseudoEuclideanEmbedding
        assert (proj.p, proj.q, proj.radius) == (13, 13, 0.0)
        assert np.array_equal(
            proj.coords, np.hstack([proj.pos_coords, proj.neg_coords])
        )

    def test_power_returns_input_type(self):
        rep = three_point_power(radius=2.5)
        proj = project(rep, ProjectionConfig(seed=2))
        assert type(proj) is PseudoEuclideanEmbedding
        assert proj.radius == 2.5
        assert proj.centers is proj.pos_coords
        assert (proj.p, proj.q) == (13, 0)

    @pytest.mark.parametrize(
        "make", [three_point_embedding, balls_embedding, negated_points_embedding],
        ids=["three-point", "balls", "negated-points"],
    )
    def test_parts_are_their_gaussian_maps_bitwise(self, make):
        emb = make()
        cfg = ProjectionConfig(seed=6)
        m = target_dim(emb.n, cfg)
        proj = project(emb, cfg)
        for part, coords, seed in ((proj.pos_coords, emb.pos_coords, 6),
                                   (proj.neg_coords, emb.neg_coords, 7)):
            if coords.shape[1]:
                assert np.array_equal(part, coords @ gaussian_map(m, coords.shape[1], seed).T)
            else:
                assert part.shape == (emb.n, 0)

    def test_parts_use_independent_maps(self):
        coords = np.random.default_rng(7).standard_normal((5, 2))
        emb = PseudoEuclideanEmbedding(coords, coords.copy())
        proj = project(emb, ProjectionConfig())
        assert not np.allclose(proj.pos_coords, proj.neg_coords)

    def test_empty_negative_part_stays_empty(self):
        X = np.random.default_rng(8).standard_normal((6, 3))
        emb = embed_pq(decompose(center_gram(validate_matrix(squared_distances(X)))))
        assert emb.q == 0
        proj = project(emb, ProjectionConfig())
        assert proj.neg_coords.shape == (6, 0)
        assert proj.pos_coords.shape[1] == target_dim(6, ProjectionConfig())

    def test_empty_positive_part_stays_empty(self):
        emb = negated_points_embedding()
        assert (emb.p, emb.q) == (0, 4)
        proj = project(emb, ProjectionConfig())
        assert proj.pos_coords.shape == (5, 0)
        assert proj.neg_coords.shape[1] == target_dim(5, ProjectionConfig())
        assert np.array_equal(reconstruct(proj), -squared_distances(proj.neg_coords))

    def test_deterministic(self):
        emb = three_point_embedding()
        a = project(emb, ProjectionConfig(seed=9))
        b = project(emb, ProjectionConfig(seed=9))
        assert np.array_equal(a.pos_coords, b.pos_coords)
        assert np.array_equal(a.neg_coords, b.neg_coords)
        c = project(emb, ProjectionConfig(seed=10))
        assert not np.array_equal(a.pos_coords, c.pos_coords)

    def test_radius_carried_through(self):
        rep = three_point_power()
        proj = project(rep, ProjectionConfig(seed=2))
        assert proj.radius == rep.radius
        assert proj.centers.shape == (3, 13)

    def test_classical_matches_power_on_centers(self):
        rep = three_point_power()
        cfg = ProjectionConfig(seed=4)
        proj = project(rep, cfg)
        classical = rep.centers @ gaussian_map(target_dim(3, cfg), rep.p, cfg.seed).T
        assert np.array_equal(proj.centers, classical)


@pytest.mark.one_blas_thread
class TestReconstruct:
    def test_plain_coordinates(self):
        X = np.random.default_rng(10).standard_normal((7, 4))
        assert_allclose(reconstruct(X), pairwise_sq_oracle(X), atol=1e-10)

    def test_projected_pq_is_signed_difference(self):
        rng = np.random.default_rng(11)
        pos, neg = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        D = reconstruct(PseudoEuclideanEmbedding(pos, neg))
        expected = pairwise_sq_oracle(pos) - pairwise_sq_oracle(neg)
        np.fill_diagonal(expected, 0.0)
        assert_allclose(D, expected, atol=1e-10)
        assert_allclose(D, D.T, atol=0)
        assert np.all(np.diag(D) == 0.0)

    def test_projected_power_subtracts_radius_term(self):
        centers = np.random.default_rng(12).standard_normal((6, 3))
        D = reconstruct(PseudoEuclideanEmbedding(centers, np.zeros((6, 0)), 1.5))
        expected = pairwise_sq_oracle(centers) - 9.0
        np.fill_diagonal(expected, 0.0)
        assert_allclose(D, expected, atol=1e-10)
        assert np.all(np.diag(D) == 0.0)
        assert D.min() < 0.0  # large radius drives close pairs negative

    def test_euclidean_input_routes_agree(self, full_branch):
        # jl's one part and jl-pq's embedding (no negative part here) give
        # the same sketch, bit for bit
        X = np.random.default_rng(13).standard_normal((9, 4))
        D = validate_matrix(squared_distances(X))
        dec = decompose(center_gram(D))
        emb = embed_pq(dec)
        cfg = ProjectionConfig(seed=5)
        one_part = project(PseudoEuclideanEmbedding(emb.pos_coords, np.zeros((9, 0))), cfg)
        classical = emb.pos_coords @ gaussian_map(target_dim(9, cfg), emb.p, cfg.seed).T
        assert np.array_equal(one_part.pos_coords, classical)
        via_classical = squared_distances(one_part.pos_coords)
        via_pq = reconstruct(project(emb, cfg))
        assert np.array_equal(via_classical, via_pq)
