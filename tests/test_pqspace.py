import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dissimjl import (
    DissimilarityError,
    PseudoEuclideanEmbedding,
    center_gram,
    decompose,
    embed_pq,
    norm_ratio_sample,
    reconstruct,
    squared_distances,
    validate_matrix,
)

from conftest import band_columns, interval_matrices, random_hollow

THREE_POINT = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])


def embed(D):
    return embed_pq(decompose(center_gram(validate_matrix(D))))


def factors(emb):
    """The jl-pq band pass's factor column over the pairs i < j, row-major.

    D and Dhat are the embedding's own signed intervals P - Q.
    """
    D = interval_matrices(emb)[0]
    return band_columns("jl-pq", D, D, 0.5, emb=emb)["factor"]


class TestEmbedPq:
    def test_two_point_single_positive_coordinate(self, full_branch):
        emb = embed(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert (emb.p, emb.q) == (1, 0)
        assert_allclose(np.abs(emb.pos_coords).ravel(),
                        [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert_allclose(interval_matrices(emb)[0][0, 1], 2.0, atol=1e-12)

    def test_three_point_coordinates_up_to_sign(self):
        emb = embed(THREE_POINT)
        assert (emb.p, emb.q) == (1, 1)
        # sqrt(5/2) * (0, 1, -1)/sqrt(2) and sqrt(1/6) * (2, -1, -1)/sqrt(6)
        assert_allclose(np.sort(emb.pos_coords.ravel()),
                        np.sort([0.0, math.sqrt(5) / 2, -math.sqrt(5) / 2]),
                        atol=1e-9)
        assert_allclose(np.sort(np.abs(emb.neg_coords.ravel())),
                        np.sort([2 / 6, 1 / 6, 1 / 6]), atol=1e-9)

    def test_three_point_intervals(self):
        pq, eu = interval_matrices(embed(THREE_POINT))
        assert_allclose(pq[0, 1], 1.0, atol=1e-9)
        assert_allclose(pq[1, 2], 5.0, atol=1e-9)
        assert_allclose(eu[0, 1], 1.5, atol=1e-9)
        assert_allclose(eu[1, 2], 5.0, atol=1e-9)

    def test_reproduces_random_hollow_matrices(self):
        rng = np.random.default_rng(17)
        for n in (2, 7, 23, 50):
            D = random_hollow(rng, n)
            emb = embed(D)
            pq, _ = interval_matrices(emb)
            scale = max(1.0, np.abs(D).max())
            assert np.abs(pq - D).max() <= 1e-6 * scale

    def test_dimensions_match_signature(self):
        D = random_hollow(np.random.default_rng(23), 14)
        dec = decompose(center_gram(D))
        emb = embed_pq(dec)
        assert emb.pos_coords.shape == (14, dec.p)
        assert emb.neg_coords.shape == (14, dec.q)

    def test_all_zero_matrix_gives_empty_embedding(self):
        emb = embed(np.zeros((5, 5)))
        assert (emb.p, emb.q) == (0, 0)
        pq, eu = interval_matrices(emb)
        assert not pq.any() and not eu.any()


class TestIntervals:
    def test_matrix_forms_match_pairwise_ops(self):
        # the signed intervals are the embedding's own reconstruction, the
        # Euclidean ones the squared distances of its signs-discarded rows
        emb = embed(random_hollow(np.random.default_rng(2), 9))
        pq, eu = interval_matrices(emb)
        assert_allclose(pq, reconstruct(emb), atol=1e-10)
        assert_allclose(eu, squared_distances(emb.coords), atol=1e-10)

    def test_euclid_dominates_signed(self):
        pq, eu = interval_matrices(embed(random_hollow(np.random.default_rng(3), 20)))
        assert np.all(eu >= np.abs(pq) - 1e-9)


class TestDistortionFactor:
    """The factor column of the band pass the jl-pq bound check runs."""

    def test_at_least_one(self):
        factor = factors(embed(random_hollow(np.random.default_rng(5), 16)))
        assert factor.size == 16 * 15 // 2
        assert np.all(np.isfinite(factor))
        assert np.all(factor >= 1.0)

    def test_three_point_values(self):
        # pairs (0, 1), (0, 2), (1, 2)
        factor = factors(embed(THREE_POINT))
        assert_allclose(factor[[0, 2]], [1.5, 1.0], atol=1e-9)

    def test_euclidean_input_factor_is_exactly_one(self):
        X = np.random.default_rng(8).standard_normal((10, 3))
        emb = embed(squared_distances(X))
        assert emb.q == 0
        assert np.all(factors(emb) == 1.0)

    def test_null_separation_returns_infinity(self):
        coords = np.array([[0.0], [1.0]])
        emb = PseudoEuclideanEmbedding(coords, coords.copy())
        assert interval_matrices(emb)[0][0, 1] == 0.0
        assert factors(emb)[0] == math.inf

    def test_coincident_points_are_excluded(self):
        # D == 0 on every pair: no signed interval to divide by
        emb = PseudoEuclideanEmbedding(np.zeros((3, 2)), np.zeros((3, 1)))
        assert np.all(factors(emb) == math.inf)


class TestNormRatioSample:
    def test_concentrates_near_dimension_ratio(self):
        # (p + q) / (p - q) = 2 for (300, 100)
        ratios = norm_ratio_sample(300, 100, 10_000, seed=0)
        assert abs(ratios.mean() - 2.0) < 0.1

    def test_tail_mass_below_slack_threshold(self):
        # q well below (C-1)/(C+1) * p at C = 2: nearly all mass under 2.2
        ratios = norm_ratio_sample(330, 70, 10_000, seed=0)
        assert np.mean(ratios < 2.2) >= 0.99

    def test_euclidean_part_only_gives_unit_ratio(self):
        ratios = norm_ratio_sample(6, 0, 100, seed=1)
        assert_allclose(ratios, 1.0, atol=1e-12)

    def test_balanced_signature_warns(self):
        with pytest.warns(RuntimeWarning, match="p == q"):
            norm_ratio_sample(5, 5, 10, seed=0)

    def test_deterministic_given_seed(self):
        a = norm_ratio_sample(20, 5, 50, seed=3)
        b = norm_ratio_sample(20, 5, 50, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, norm_ratio_sample(20, 5, 50, seed=4))

    def test_rejects_empty_or_no_trials(self):
        with pytest.raises(DissimilarityError):
            norm_ratio_sample(0, 0, 10)
        with pytest.raises(DissimilarityError):
            norm_ratio_sample(3, 1, 0)


@given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_embedding_reproduces_matrix_property(n, seed):
    D = random_hollow(np.random.default_rng(seed), n, scale=2.0)
    pq, eu = interval_matrices(embed(D))
    scale = max(1.0, np.abs(D).max())
    assert np.abs(pq - D).max() <= 1e-6 * scale
    assert np.all(eu >= np.abs(pq) - 1e-9 * scale)
