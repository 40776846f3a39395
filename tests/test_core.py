import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dissimjl import (
    DissimilarityError,
    DissimilarityMatrix,
    NumericalError,
    ProjectionConfig,
    SimplexSpec,
    center_gram,
    decompose,
    decompose_power,
    embed_pq,
    gen_simplex,
    run_projection,
    squared_distances,
    validate_matrix,
)
from dissimjl import core
from dissimjl.pipeline import METHODS

from conftest import (
    GRAM_CASES,
    ORDER_CASES,
    copy_cases,
    dense_gram_oracle,
    eigh_factors,
    grid_hops,
    in_place_lapack,
    pairwise_sq_oracle,
    random_hollow,
    ref_validate,
)

THREE_POINT = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])


@pytest.mark.one_blas_thread
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

    def test_rejects_empty(self):
        with pytest.raises(DissimilarityError, match="matrix is empty"):
            validate_matrix(np.zeros((0, 0)))

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
        # entries of another dtype, built without validation, come back float
        wrapped = DissimilarityMatrix(np.array([[0, 3], [3, 0]]))
        out = validate_matrix(wrapped).entries
        assert out.dtype == np.float64 and np.array_equal(out, [[0.0, 3.0], [3.0, 0.0]])

    def test_canonical_input_is_a_read_only_view(self):
        raw = random_hollow(np.random.default_rng(4), 40)
        out = validate_matrix(raw).entries
        assert np.shares_memory(out, raw)
        assert not out.flags.writeable and raw.flags.writeable
        assert out.tobytes() == ref_validate(raw).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            out[0, 1] = 1.0
        raw[0, 1] = 7.0  # the validated matrix shares the caller's memory
        assert out[0, 1] == 7.0

    def test_revalidation_returns_a_view(self):
        D = gen_simplex(SimplexSpec(12, seed=2))
        assert np.shares_memory(validate_matrix(D).entries, D.entries)
        assert np.shares_memory(validate_matrix(D.entries).entries, D.entries)

    @pytest.mark.parametrize("case", list(copy_cases(7)))
    def test_other_input_is_a_read_only_copy(self, case):
        raw, expected = copy_cases(7)[case]
        out = validate_matrix(raw).entries
        assert not np.shares_memory(out, raw)
        assert out.flags.c_contiguous and not out.flags.writeable
        assert out.dtype == np.float64 and out.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            out[0, 1] = 1.0


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
        # the full branch's factors are eigenvectors scaled by sqrt(|lambda|):
        # column k of P is one of lambda_k, and column k of N of lambda_(n-q+k)
        B = center_gram(random_hollow(np.random.default_rng(11), 20))
        dec = decompose(B.copy())
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        P, N = dec.factors
        assert (P.shape[1], N.shape[1]) == (dec.p, dec.q)
        lam = dec.eigenvalues
        for x, value in zip(np.hstack([P, N]).T,
                            np.concatenate([lam[:dec.p], lam[dec.n - dec.q:]])):
            assert_allclose(np.linalg.norm(x) ** 2, abs(value), rtol=1e-12)
            assert_allclose(B @ x, value * x, atol=1e-8 * np.sqrt(abs(value)))
        assert np.abs(P @ P.T - N @ N.T - B).max() <= 1e-12 * np.abs(B).max()

    def test_eigenvalues_match_independent_solver(self):
        B = center_gram(random_hollow(np.random.default_rng(5), 25))
        dec = decompose(B.copy())
        assert_allclose(dec.eigenvalues, np.sort(np.linalg.eigvalsh(B))[::-1],
                        atol=1e-10)

    def test_roundtrip_reconstructs_gram(self):
        rng = np.random.default_rng(2)
        for n in (5, 20, 50):
            B = center_gram(random_hollow(rng, n))
            dec = decompose(B.copy())
            P, N = dec.factors
            rebuilt = P @ P.T - N @ N.T
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
        # the factors' columns are the other eigenvectors, scaled: the
        # all-ones direction is orthogonal to every one of them
        lam = dec.eigenvalues
        P, N = dec.factors
        kept = np.hstack([P / np.sqrt(lam[:dec.p]), N / np.sqrt(-lam[dec.n - dec.q:])])
        assert kept.shape[1] == dec.n - dec.zero_rank
        assert_allclose(kept.T @ np.ones(dec.n), 0.0, atol=1e-8)

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


def same_bits(a, b):
    return a.shape == b.shape and bits(a) == bits(b)


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_descending_order_is_the_solver_order_reversed_bitwise(name, full_branch):
    # tied eigenvalues come with their vectors in reverse solver order:
    # on the tied inputs this differs from a stable sort, and the tie
    # order carries no meaning.  Simplex, grid and zero input would slice
    make, tied = ORDER_CASES[name]
    B = make()
    lam = np.linalg.eigh(B)[0]
    assert bool(np.any(lam[:-1] == lam[1:])) == tied
    dec = decompose(B.copy())
    assert bits(dec.eigenvalues) == bits(lam[::-1])
    assert all(map(same_bits, dec.factors, eigh_factors(B)))
    alone = np.linalg.eigvalsh(B)
    assert bits(decompose(B.copy(), vectors=False).eigenvalues) == bits(alone[::-1])


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_both_lapack_routes_give_numpys_bits(name, lapack_route, full_branch):
    # in B's own buffer or through the np.linalg fallback, on the full
    # branch: eigh's and eigvalsh's bits, reversed, and the factors
    # gathered from eigh's eigenvectors
    B = GRAM_CASES[name]()
    lam = np.linalg.eigh(B)[0]
    dec = decompose(B.copy())
    assert bits(dec.eigenvalues) == bits(lam[::-1])
    assert all(map(same_bits, dec.factors, eigh_factors(B)))
    alone = np.linalg.eigvalsh(B)
    assert bits(decompose(B.copy(), vectors=False).eigenvalues) == bits(alone[::-1])


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_eigenvalues_alone_leave_b_as_it_was(name, lapack_route):
    # the spectrum alone is eigvalsh's, on numpy's own copy of B^T, on
    # either route: B is never written
    B = GRAM_CASES[name]()
    before = B.copy()
    decompose(B, vectors=False)
    assert bits(B) == bits(before)


@pytest.mark.one_blas_thread
def test_eigenvalues_alone_leave_a_nearly_symmetric_b_as_it_was():
    # B is symmetric only within the tolerance: (3, 7) is one ulp off its
    # mirror.  The spectrum reads B's upper triangle, as eigvalsh(B.T) does,
    # and B keeps both triangles, bit for bit
    B = center_gram(gen_simplex(SimplexSpec(300, seed=2)))
    B[3, 7] = np.nextafter(B[3, 7], np.inf)
    before = B.copy()
    dec = decompose(B, vectors=False)
    assert bits(B) == bits(before)
    assert bits(dec.eigenvalues) == bits(np.linalg.eigvalsh(B.T)[::-1])


@pytest.mark.one_blas_thread
@in_place_lapack
def test_factorizations_run_in_b_own_buffer(monkeypatch):
    # numpy's LAPACKE is found, so no factorization reaches np.linalg (the
    # spectrum alone is eigvalsh's, on a copy), and decompose leaves the
    # eigenvectors in B's rows, in eigh's own order, and gathers the
    # factors from them
    B = center_gram(random_hollow(np.random.default_rng(7), 40))
    lam, U = np.linalg.eigh(B)
    oracle = eigh_factors(B)
    for name in ("eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, None)
    dec = decompose(B)
    assert all(map(same_bits, dec.factors, oracle))
    assert bits(B) == bits(U.T)
    assert bits(dec.eigenvalues) == bits(lam[::-1])
    for method in METHODS:  # a call of np.linalg would raise
        run_projection(random_hollow(np.random.default_rng(7), 40), method)


POINTS = np.random.default_rng(5).standard_normal((300, 5))

# inputs whose smaller signature part is sliced off, with (p, q): the part
# is empty on all but the default simplex (alpha 6)
SLICE_CASES = {
    "simplex": (lambda: gen_simplex(SimplexSpec(300, seed=0)), (29, 270)),
    "simplex-alpha-0.2": (lambda: gen_simplex(SimplexSpec(300, alpha=0.2, seed=0)), (299, 0)),
    "simplex-alpha-0": (lambda: gen_simplex(SimplexSpec(300, alpha=0.0, seed=0)), (299, 0)),
    "grid": (lambda: grid_hops(8), (14, 0)),
    "points": (lambda: validate_matrix(squared_distances(POINTS)), (5, 0)),
    "negated": (lambda: validate_matrix(-squared_distances(POINTS)), (0, 5)),
}


@pytest.mark.one_blas_thread
@in_place_lapack
class TestSlice:
    @pytest.mark.parametrize("name", sorted(SLICE_CASES))
    def test_factors_reproduce_d(self, name):
        # P P^T - N N^T is B to rounding, so every pair of the unprojected
        # embedding is D's within 1e-9 relative; the smaller part is its
        # count of eigenvectors wide, and both live in B's buffer unless
        # together they are at most n/2 wide
        make, signature = SLICE_CASES[name]
        D = as_array(make())
        B = center_gram(D)
        alone = np.linalg.eigvalsh(B)
        dec = decompose(B)
        assert (dec.p, dec.q) == signature and dec.p + dec.q + dec.zero_rank == dec.n
        assert dec.factors is not None
        # the spectrum is dsterf's after dsytrd: eigvalsh's own steps and bits
        assert bits(dec.eigenvalues) == bits(alone[::-1])
        emb = embed_pq(dec)
        smaller, larger = sorted((emb.pos_coords, emb.neg_coords), key=lambda x: x.shape[1])
        assert smaller.shape[1] == min(dec.p, dec.q)
        assert larger.shape[1] - max(dec.p, dec.q) in (0, 1)
        assert np.shares_memory(larger, B) == (2 * (emb.p + emb.q) > dec.n)
        signed = squared_distances(emb.pos_coords) - squared_distances(emb.neg_coords)
        scale = np.abs(D).max()
        nonzero = D != 0.0
        assert (np.abs(signed - D)[nonzero] / np.abs(D[nonzero])).max() <= 1e-9
        assert np.abs(signed[~nonzero]).max() <= 1e-9 * scale

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_a_b_beyond_dsyevds_range_is_scaled_as_dsyevd_scales(self, scale):
        # below 1e-146 or above 1e146 dsyevd reduces a scaled copy: the full
        # branch keeps eigh's bits, and the slice eigvalsh's, with factors
        # that reproduce B
        hollow = center_gram(scale * random_hollow(np.random.default_rng(6), 60))
        lam = np.linalg.eigh(hollow)[0]
        dec = decompose(hollow.copy())
        assert bits(dec.eigenvalues) == bits(lam[::-1])
        assert all(map(same_bits, dec.factors, eigh_factors(hollow)))
        B = center_gram(scale * gen_simplex(SimplexSpec(120, seed=3)).entries)
        dec = decompose(B.copy())
        assert bits(dec.eigenvalues) == bits(np.linalg.eigvalsh(B)[::-1])
        P, N = dec.factors
        assert np.abs(P @ P.T - N @ N.T - B).max() <= 1e-12 * np.abs(B).max()

    def test_a_dstein_failure_takes_the_full_branch(self, monkeypatch):
        # dstein's nonzero info: the tridiagonal form goes on to dstedc and
        # dormtr, whose eigenvectors are eigh's, and so are the factors'
        B = center_gram(gen_simplex(SimplexSpec(120, seed=3)))
        lam = np.linalg.eigh(B)[0]
        real = core._lapacke()
        failing = dict(real, dstein=lambda *args: 1)
        monkeypatch.setattr(core, "_lapacke", lambda: failing)
        dec = decompose(B.copy())
        assert bits(dec.eigenvalues) == bits(lam[::-1])
        assert all(map(same_bits, dec.factors, eigh_factors(B)))

    def test_a_sketch_follows_the_full_branch_law(self, monkeypatch):
        # a sliced embedding is the full one rotated within each part, so its
        # jl-pq sketch has the same law: over 40 seeds the mean violation rate
        # and the mean median_rel agree within 4 standard errors
        runs = {"slice": [], "full": []}
        for seed in range(40):
            D = gen_simplex(SimplexSpec(300, seed=seed))
            config = ProjectionConfig(seed=seed)
            for branch, share in (("slice", core._SLICE_SHARE), ("full", -1.0)):
                monkeypatch.setattr(core, "_SLICE_SHARE", share)
                res = run_projection(D, "jl-pq", config)
                assert (res.decomposition.p, res.decomposition.q) != (0, 0)
                runs[branch].append((res.pq_check.violation_rate, res.stats.median_rel))
        slice_runs, full_runs = np.array(runs["slice"]), np.array(runs["full"])
        gap = np.abs(slice_runs.mean(axis=0) - full_runs.mean(axis=0))
        se = np.sqrt((slice_runs.var(axis=0, ddof=1) + full_runs.var(axis=0, ddof=1)) / 40)
        assert np.all(gap <= 4.0 * se), (gap, se)
        assert not np.array_equal(slice_runs, full_runs)


def as_array(D):
    return D.entries if isinstance(D, DissimilarityMatrix) else np.asarray(D)


@pytest.mark.parametrize("factor", [decompose, decompose_power])
@pytest.mark.parametrize("shape,message", [((3, 4), "square"), ((4,), "square"),
                                           ((0, 0), "matrix is empty")])
def test_decomposition_of_a_non_square_or_empty_b_is_a_data_error(factor, shape, message):
    with pytest.raises(DissimilarityError, match=message):
        factor(np.zeros(shape))


def test_np_linalg_failure_is_a_numerical_error(monkeypatch):
    # the fallback route turns numpy's LinAlgError into the library's error
    monkeypatch.setattr(core, "_lapacke", lambda: None)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    B = center_gram(random_hollow(np.random.default_rng(9), 12))
    with pytest.raises(NumericalError, match="eigendecomposition failed: Eigenvalues"):
        decompose(B.copy())
    # a matrix with a negative eigenvalue has no Cholesky factor
    with pytest.raises(NumericalError, match="Cholesky factorization failed"):
        core._potrf(B.copy())


def test_lapack_failure_is_a_numerical_error(monkeypatch):
    # a nonzero info from an in-place routine (no convergence, or a leading
    # minor that is not positive definite) raises, whatever B's contents are
    # then, and so does eigvalsh's LinAlgError on the spectrum
    failing = dict.fromkeys(core._SYMBOLS, lambda *args: 3)
    failing["dpotrf"] = lambda *args: 2
    monkeypatch.setattr(core, "_lapacke", lambda: failing)
    B = center_gram(random_hollow(np.random.default_rng(9), 12))
    with pytest.raises(NumericalError, match="eigendecomposition failed: dsytrd info 3"):
        decompose(B.copy())
    with pytest.raises(NumericalError, match="Cholesky factorization failed: dpotrf info 2"):
        decompose_power(B.copy(), radius=3.0)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericalError, match="eigendecomposition failed: Eigenvalues"):
        decompose_power(B.copy())


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("kind", ["read-only view", "F-ordered", "float32"])
def test_input_that_cannot_be_factored_in_place_is_not_written(kind):
    B = center_gram(random_hollow(np.random.default_rng(8), 30))
    if kind == "read-only view":
        arg = B.view()
        arg.flags.writeable = False
    elif kind == "F-ordered":
        arg = np.asfortranarray(B)
    else:
        arg = B.astype(np.float32)
    before = arg.copy(order="K")
    full = decompose(arg)
    decompose(arg, vectors=False)
    decompose_power(arg)
    assert bits(arg) == bits(before) and arg.flags.f_contiguous == before.flags.f_contiguous
    if kind != "float32":
        assert all(map(same_bits, full.factors, decompose(B.copy()).factors))


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
