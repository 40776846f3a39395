import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dissimjl import (
    BallSpec,
    DissimilarityError,
    DissimilarityMatrix,
    NumericalError,
    SimplexSpec,
    center_gram,
    decompose,
    gen_balls,
    gen_simplex,
    squared_distances,
    validate_matrix,
)

from conftest import dense_gram_oracle, grid_hops, pairwise_sq_oracle, random_hollow

THREE_POINT = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])


class TestValidateMatrix:
    def test_canonicalizes_within_tolerance(self):
        raw = np.array([[1e-12, 2.0], [2.0 + 1e-12, -1e-13]])
        out = validate_matrix(raw)
        assert np.array_equal(out.entries, out.entries.T)
        assert out.entries[0, 0] == 0.0 and out.entries[1, 1] == 0.0
        assert out.n == 2

    def test_accepts_negative_entries(self):
        out = validate_matrix(np.array([[0.0, -3.0], [-3.0, 0.0]]))
        assert out.entries[0, 1] == -3.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DissimilarityError, match="square"):
            validate_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite_naming_index(self):
        A = np.zeros((3, 3))
        A[1, 2] = A[2, 1] = np.nan
        with pytest.raises(DissimilarityError, match=r"\(1, 2\)"):
            validate_matrix(A)

    def test_rejects_asymmetry_naming_index(self):
        A = np.zeros((3, 3))
        A[0, 2] = 1.0
        with pytest.raises(DissimilarityError, match="asymmetric"):
            validate_matrix(A)

    def test_rejects_nonzero_diagonal(self):
        A = random_hollow(np.random.default_rng(0), 4)
        A[2, 2] = 0.5
        with pytest.raises(DissimilarityError, match=r"\(2, 2\)"):
            validate_matrix(A)

    def test_tolerance_scales_with_magnitude(self):
        # asymmetry of 1e-5 passes at entry scale 1e5, fails at scale 1
        big = np.array([[0.0, 1e5], [1e5 + 1e-5, 0.0]])
        validate_matrix(big)
        small = np.array([[0.0, 1.0], [1.0 + 1e-5, 0.0]])
        with pytest.raises(DissimilarityError):
            validate_matrix(small)

    def test_accepts_a_validated_matrix(self):
        # gen_simplex returns a DissimilarityMatrix, not an array
        D = gen_simplex(SimplexSpec(12, seed=2))
        out = validate_matrix(D)
        assert np.array_equal(out.entries, D.entries)
        broken = DissimilarityMatrix(np.zeros((2, 3)))
        with pytest.raises(DissimilarityError, match="square"):
            validate_matrix(broken)


class TestCenterGram:
    def test_two_point_values(self):
        B = center_gram(validate_matrix(np.array([[0.0, 2.0], [2.0, 0.0]])))
        assert_allclose(B, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_three_point_values(self):
        B = center_gram(validate_matrix(THREE_POINT))
        expected = np.array(
            [
                [-1 / 9, 1 / 18, 1 / 18],
                [1 / 18, 11 / 9, -23 / 18],
                [1 / 18, -23 / 18, 11 / 9],
            ]
        )
        assert_allclose(B, expected, atol=1e-12)

    def test_matches_dense_centering_oracle(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 17, 40):
            D = random_hollow(rng, n, scale=3.0)
            assert_allclose(center_gram(D), dense_gram_oracle(D), atol=1e-12)

    def test_rows_sum_to_zero(self):
        D = random_hollow(np.random.default_rng(3), 30)
        B = center_gram(D)
        assert np.abs(B.sum(axis=0)).max() < 1e-9
        assert np.abs(B - B.T).max() == 0.0


class TestDecompose:
    def test_three_point_spectrum_and_signature(self):
        dec = decompose(center_gram(validate_matrix(THREE_POINT)))
        assert_allclose(dec.eigenvalues, [2.5, 0.0, -1 / 6], atol=1e-9)
        assert (dec.p, dec.q, dec.zero_rank) == (1, 1, 1)
        assert dec.eigenvalues[-1] < 0  # triangle-violating input

    def test_descending_order_with_matching_vectors(self):
        B = center_gram(random_hollow(np.random.default_rng(11), 20))
        dec = decompose(B)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        for k in range(dec.n):
            assert_allclose(
                B @ dec.eigenvectors[:, k],
                dec.eigenvalues[k] * dec.eigenvectors[:, k],
                atol=1e-8,
            )

    def test_eigenvalues_match_independent_solver(self):
        B = center_gram(random_hollow(np.random.default_rng(5), 25))
        dec = decompose(B)
        assert_allclose(dec.eigenvalues, np.sort(np.linalg.eigvalsh(B))[::-1],
                        atol=1e-10)

    def test_roundtrip_reconstructs_gram(self):
        rng = np.random.default_rng(2)
        for n in (5, 20, 50):
            B = center_gram(random_hollow(rng, n))
            dec = decompose(B)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
            scale = max(1.0, np.abs(B).max())
            assert np.abs(rebuilt - B).max() <= 1e-7 * scale

    def test_euclidean_input_has_no_negative_part(self):
        X = np.random.default_rng(1).standard_normal((30, 4))
        dec = decompose(center_gram(squared_distances(X)))
        assert dec.q == 0
        assert dec.eigenvalues[-1] >= -dec.tau

    def test_ones_direction_lies_in_zero_bucket(self):
        D = random_hollow(np.random.default_rng(9), 15)
        dec = decompose(center_gram(D))
        assert dec.zero_rank >= 1
        zero = np.abs(dec.eigenvalues) <= dec.tau
        Uz = dec.eigenvectors[:, zero]
        ones = np.ones(dec.n)
        assert_allclose(Uz @ (Uz.T @ ones), ones, atol=1e-8)

    def test_all_zero_matrix(self):
        dec = decompose(np.zeros((4, 4)))
        assert (dec.p, dec.q, dec.zero_rank) == (0, 0, 4)
        assert dec.tau == 0.0

    def test_counts_partition_n(self):
        dec = decompose(center_gram(random_hollow(np.random.default_rng(4), 33)))
        assert dec.p + dec.q + dec.zero_rank == dec.n == 33

    def test_rejects_asymmetric(self):
        with pytest.raises(DissimilarityError, match="symmetric"):
            decompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        B = np.zeros((3, 3))
        B[0, 1] = B[1, 0] = bad
        with pytest.raises(NumericalError, match="not finite"):
            decompose(B)

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-12, 1e12))
    @settings(max_examples=40, deadline=None)
    def test_signature_stable_under_positive_scaling(self, seed, scale):
        D = random_hollow(np.random.default_rng(seed), 12)
        base = decompose(center_gram(D))
        scaled = decompose(center_gram(scale * D))
        assert (base.p, base.q, base.zero_rank) == (
            scaled.p,
            scaled.q,
            scaled.zero_rank,
        )
        # relative to the scaled spectrum, with no floor that would make
        # the check vacuous below scale 1
        assert_allclose(
            scaled.eigenvalues,
            scale * base.eigenvalues,
            atol=1e-9 * scale * np.abs(base.eigenvalues).max(),
        )


def bits(a):
    return np.ascontiguousarray(a).tobytes()


# Gram matrices whose eigh spectrum has no exact tie, and two that do: the
# alpha = 0 simplex (32 tied neighbours in eigh's output at n = 50) and zero
ORDER_CASES = {
    "simplex": (lambda: center_gram(gen_simplex(SimplexSpec(120, seed=3))), False),
    "balls": (lambda: center_gram(gen_balls(BallSpec(120, seed=3))), False),
    "grid": (lambda: center_gram(grid_hops(8)), False),
    "simplex-alpha-0": (
        lambda: center_gram(gen_simplex(SimplexSpec(50, alpha=0.0, seed=0))), True
    ),
    "zero": (lambda: np.zeros((6, 6)), True),
}


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_descending_order_is_the_stable_sort_bitwise(name):
    # tied eigenvalues keep their vectors in the solver's order, so a
    # reversal would differ from the stable sort exactly on the tied inputs
    make, tied = ORDER_CASES[name]
    B = make()
    lam, U = np.linalg.eigh(B)
    assert bool(np.any(lam[:-1] == lam[1:])) == tied
    order = np.argsort(-lam, kind="stable")
    dec = decompose(B)
    assert bits(dec.eigenvalues) == bits(lam[order])
    assert bits(dec.eigenvectors) == bits(U[:, order])
    alone = np.linalg.eigvalsh(B)
    assert bits(decompose(B, vectors=False).eigenvalues) == bits(
        alone[np.argsort(-alone, kind="stable")]
    )


class TestSquaredDistances:
    def test_matches_pairwise_loop_oracle(self):
        X = np.random.default_rng(0).standard_normal((12, 5))
        assert_allclose(squared_distances(X), pairwise_sq_oracle(X), atol=1e-10)

    def test_symmetric_hollow_nonnegative(self):
        X = np.random.default_rng(1).standard_normal((8, 3)) * 1e-4
        D = squared_distances(X)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert D.min() >= 0.0

    def test_zero_column_input(self):
        D = squared_distances(np.zeros((5, 0)))
        assert D.shape == (5, 5)
        assert np.all(D == 0.0)
