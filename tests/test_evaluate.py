import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dissimjl import (
    BallSpec,
    DissimilarityError,
    PseudoEuclideanEmbedding,
    SimplexSpec,
    center_gram,
    decompose,
    decompose_power,
    embed_pq,
    gen_balls,
    gen_simplex,
    kmeans_projected,
    reconstruct,
    relational_cost,
    relational_kmeans,
    relative_error_stats,
    run_projection,
    squared_distances,
    validate_matrix,
    validate_power_residual,
    validate_pq_bound,
)

from dissimjl import core, evaluate
from dissimjl.evaluate import _band_tiles

from conftest import (
    band_columns,
    brute_force_best_2partition,
    coordinate_kmeans_cost,
    grid_hops,
    random_hollow,
    relational_cost_oracle,
)

THREE_POINT = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])


def two_blobs(n_per=15, gap=8.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.standard_normal((n_per, 2)),
        rng.standard_normal((n_per, 2)) + np.array([gap, 0.0]),
    ])
    truth = np.repeat([0, 1], n_per)
    return X, truth


class TestRelativeErrorStats:
    def test_hand_example(self):
        D = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 8.0], [4.0, 8.0, 0.0]])
        Dhat = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 6.0], [4.0, 6.0, 0.0]])
        stats = relative_error_stats(D, Dhat)
        assert_allclose(stats.max_rel, 0.5, atol=1e-15)
        assert_allclose(stats.mean_rel, 0.25, atol=1e-15)
        assert_allclose(stats.median_rel, 0.25, atol=1e-15)
        assert stats.excluded_pairs == 0

    def test_perfect_reconstruction(self):
        D = random_hollow(np.random.default_rng(1), 10)
        stats = relative_error_stats(D, D.copy())
        assert stats.max_rel == 0.0
        assert stats.mean_rel == 0.0

    def test_zero_pairs_excluded(self):
        D = np.array([[0.0, 0.0, 4.0], [0.0, 0.0, 8.0], [4.0, 8.0, 0.0]])
        Dhat = np.array([[0.0, 9.0, 4.0], [9.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
        stats = relative_error_stats(D, Dhat)
        assert stats.excluded_pairs == 1
        assert_allclose(stats.max_rel, 0.5, atol=1e-15)  # only (1,2) errs

    def test_all_pairs_zero(self):
        stats = relative_error_stats(np.zeros((4, 4)), np.zeros((4, 4)))
        assert stats == type(stats)(0.0, 0.0, 0.0, 6)

    def test_non_finite_reconstruction_is_infinite_error(self):
        D = np.array([[0.0, 2.0], [2.0, 0.0]])
        Dhat = np.array([[0.0, np.inf], [np.inf, 0.0]])
        stats = relative_error_stats(D, Dhat)
        assert stats.max_rel == math.inf
        assert stats.mean_rel == math.inf

    def test_negative_entries_use_absolute_denominator(self):
        D = np.array([[0.0, -2.0], [-2.0, 0.0]])
        Dhat = np.array([[0.0, -1.0], [-1.0, 0.0]])
        stats = relative_error_stats(D, Dhat)
        assert_allclose(stats.max_rel, 0.5, atol=1e-15)


class TestValidatePqBound:
    def embedding(self):
        D = validate_matrix(THREE_POINT)
        return D, embed_pq(decompose(center_gram(D)))

    def test_exact_reconstruction_never_violates(self):
        D, emb = self.embedding()
        check = validate_pq_bound(_band_tiles("jl-pq", D, D.entries, 0.5, emb=emb))
        band = band_columns("jl-pq", D, D.entries, 0.5, emb=emb)
        assert not band["violated"].any()
        assert check.violation_rate == 0.0
        assert check.excluded_pairs == 0
        assert_allclose(np.sort(band["factor"]), [1.0, 1.5, 1.5], atol=1e-9)

    def test_band_uses_factor_widened_width(self):
        D, emb = self.embedding()
        eps = 0.5
        band = band_columns("jl-pq", D, D.entries, eps, emb=emb)
        d = D.entries[np.triu_indices(D.n, 1)]
        half = band["band_upper"] - d
        assert_allclose(half, eps * band["factor"] * np.abs(d), atol=1e-9)
        assert_allclose(d - band["band_lower"], half, atol=1e-12)

    def test_out_of_band_entry_is_flagged(self):
        D, emb = self.embedding()
        Dhat = THREE_POINT.copy()
        Dhat[0, 1] = Dhat[1, 0] = 4.0  # band at eps=0.5 is [0.25, 1.75]
        check = validate_pq_bound(_band_tiles("jl-pq", D, Dhat, 0.5, emb=emb))
        violated = band_columns("jl-pq", D, Dhat, 0.5, emb=emb)["violated"]
        assert violated.sum() == 1
        iu, ju = np.triu_indices(3, 1)
        pair = (int(iu[violated][0]), int(ju[violated][0]))
        assert pair == (0, 1)
        assert_allclose(check.violation_rate, 1.0 / 3.0, atol=1e-15)

    def test_null_pairs_are_excluded_not_violated(self):
        coords = np.array([[0.0], [1.0], [3.0]])
        emb = PseudoEuclideanEmbedding(coords, coords.copy())
        D = np.zeros((3, 3))
        Dhat = np.full((3, 3), 100.0)
        np.fill_diagonal(Dhat, 0.0)
        check = validate_pq_bound(_band_tiles("jl-pq", D, Dhat, 0.5, emb=emb))
        assert check.excluded_pairs == 3
        assert not band_columns("jl-pq", D, Dhat, 0.5, emb=emb)["violated"].any()
        assert check.violation_rate == 0.0

    def test_single_point_matrix(self):
        emb = embed_pq(decompose(center_gram(np.zeros((1, 1)))))
        check = validate_pq_bound(
            _band_tiles("jl-pq", np.zeros((1, 1)), np.zeros((1, 1)), 0.5, emb=emb))
        assert repr(check) == repr(type(check)(0.0, 0))

    @pytest.mark.one_blas_thread
    @pytest.mark.parametrize("gap", [1e-9, 1e-11])
    def test_band_never_inverts(self, gap):
        # point 299 copies point 0 up to D = gap, far below the rounding
        # of the pair's intervals: P + Q must not come out under |D|
        A = gen_simplex(SimplexSpec(300)).entries.copy()
        A[299], A[:, 299] = A[0], A[0]
        A[0, 299] = A[299, 0] = gap
        A[299, 299] = 0.0
        D = validate_matrix(A)
        emb = embed_pq(decompose(center_gram(D)))
        band = band_columns("jl-pq", D, reconstruct(emb), 0.5, emb=emb)
        d, factor = band["dissimilarity"], band["factor"]
        usable = d != 0.0
        assert np.all(factor[np.isfinite(factor)] >= 1.0)
        assert np.all((band["band_upper"] - d)[usable] >= 0.5 * np.abs(d[usable]))
        assert np.all(band["band_lower"] <= band["band_upper"])

    @pytest.mark.one_blas_thread
    @pytest.mark.parametrize("tile_rows", [None, 7], ids=["default", "rows7"])
    @pytest.mark.parametrize("kind", ["balls", "grid"])
    def test_exclusions_are_the_zero_pairs_of_d(self, kind, tile_rows, monkeypatch):
        # the check and the error stats exclude the same pairs, D_ij == 0,
        # however the band products round
        D = validate_matrix(gen_balls(BallSpec(800, seed=1)) if kind == "balls"
                            else grid_hops(8))
        if tile_rows:
            monkeypatch.setattr(core, "_TILE_ENTRIES", tile_rows * D.n)
        zero = np.count_nonzero(D.entries[np.triu_indices(D.n, 1)] == 0.0)
        assert kind == "grid" or zero > 0
        res = run_projection(D, "jl-pq")
        assert res.pq_check.excluded_pairs == res.stats.excluded_pairs == zero

    @pytest.mark.parametrize("D", [
        gen_simplex(SimplexSpec(300, seed=5)),
        gen_balls(BallSpec(300, seed=5)),
        # p = 0: the signed embedding has no positive part
        -squared_distances(np.random.default_rng(5).standard_normal((300, 10))),
        grid_hops(8),  # q = 0
    ], ids=["simplex", "balls", "negated-points", "grid"])
    def test_band_products_of_the_smaller_part_only(self, D, monkeypatch):
        D = validate_matrix(D)
        emb = embed_pq(decompose(center_gram(D)))
        widths = []

        def recording(X, _upper=evaluate._upper_distances):
            widths.append(X.shape[1])
            return _upper(X)

        monkeypatch.setattr(evaluate, "_upper_distances", recording)
        validate_pq_bound(_band_tiles("jl-pq", D, D.entries, 0.5, emb=emb))
        assert widths == [min(emb.p, emb.q)]


class TestValidatePowerResidual:
    def test_exact_reconstruction(self):
        D = random_hollow(np.random.default_rng(2), 8)
        bound = 4.0 * 0.5 * 1.2**2  # the slack 4 eps r^2 at r = 1.2
        check = validate_power_residual(
            _band_tiles("jl-power", D, D.copy(), 0.5, bound=bound), bound)
        assert check.max_residual == 0.0
        assert check.fraction_within == 1.0
        assert_allclose(check.bound, 4.0 * 0.5 * 1.2**2, atol=1e-15)

    def test_residual_is_excess_beyond_multiplicative_band(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        Dhat = np.array([[0.0, 2.0], [2.0, 0.0]])
        bound = 4.0 * 0.5 * 1.0**2  # the slack 4 eps r^2 at r = 1
        check = validate_power_residual(
            _band_tiles("jl-power", D, Dhat, 0.5, bound=bound), bound)
        band = band_columns("jl-power", D, Dhat, 0.5, bound=check.bound)
        assert_allclose(band["residual"], [0.5], atol=1e-15)
        assert_allclose(check.max_residual, 0.5, atol=1e-15)
        assert check.fraction_within == 1.0  # bound is 2.0

    def test_residual_beyond_slack_counts_against_fraction(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        Dhat = np.array([[0.0, 4.0], [4.0, 0.0]])
        bound = 4.0 * 0.5 * 1.0**2  # the slack 4 eps r^2 at r = 1
        check = validate_power_residual(
            _band_tiles("jl-power", D, Dhat, 0.5, bound=bound), bound)
        band = band_columns("jl-power", D, Dhat, 0.5, bound=check.bound)
        assert_allclose(band["residual"], [2.5], atol=1e-15)
        assert band["violated"].tolist() == [True]
        assert check.fraction_within == 0.0

    def test_single_point_matrix(self):
        bound = 4.0 * 0.5 * 0.5**2  # the slack 4 eps r^2 at r = 0.5
        check = validate_power_residual(
            _band_tiles("jl-power", np.zeros((1, 1)), np.zeros((1, 1)), 0.5, bound=bound),
            bound)
        assert check.max_residual == 0.0
        assert check.fraction_within == 1.0


class TestRelationalCost:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        D = random_hollow(rng, 25)
        labels = rng.integers(0, 4, size=25)
        assert_allclose(relational_cost(D, labels),
                        relational_cost_oracle(D, labels), atol=1e-10)

    def test_equals_coordinate_cost_on_squared_distances(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3))
        labels = rng.integers(0, 5, size=30)
        assert_allclose(relational_cost(squared_distances(X), labels),
                        coordinate_kmeans_cost(X, labels), atol=1e-8)

    def test_singletons_cost_nothing(self):
        D = random_hollow(np.random.default_rng(5), 6)
        assert relational_cost(D, np.arange(6)) == 0.0


class TestRelationalKMeans:
    def test_recovers_two_blobs(self):
        X, truth = two_blobs()
        D = squared_distances(X)
        result = relational_kmeans(D, 2, seed=0)
        same = result.assignment == result.assignment[0]
        assert np.array_equal(same, truth == truth[0])

    def test_finds_global_optimum_on_blob_instances(self):
        # restarts only guarantee the global optimum when the data has
        # cluster structure; unstructured points can strand the moves in a
        # local minimum no matter how often they restart
        for seed in (0, 1, 2):
            X, _ = two_blobs(n_per=5, gap=5.0, seed=seed)
            D = squared_distances(X)
            best_cost, _ = brute_force_best_2partition(D)
            result = relational_kmeans(D, 2, seed=0, restarts=20)
            assert result.cost >= best_cost - 1e-9
            assert_allclose(result.cost, best_cost, atol=1e-9)

    def test_k_equals_one_is_total_mean(self):
        D = random_hollow(np.random.default_rng(6), 12)
        result = relational_kmeans(D, 1, seed=0, restarts=1)
        assert_allclose(result.cost, D.sum() / (2.0 * 12), atol=1e-10)
        assert result.k == 1

    def test_k_equals_n_isolates_everyone(self):
        X, _ = two_blobs(n_per=5)
        D = squared_distances(X)
        result = relational_kmeans(D, 10, seed=0, restarts=3)
        assert result.k == 10
        assert_allclose(result.cost, 0.0, atol=1e-12)

    def test_deterministic(self):
        D = squared_distances(two_blobs(seed=7)[0])
        a = relational_kmeans(D, 2, seed=3, restarts=4)
        b = relational_kmeans(D, 2, seed=3, restarts=4)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.cost == b.cost

    def test_cost_is_relational_cost_of_assignment(self):
        D = random_hollow(np.random.default_rng(8), 20)
        result = relational_kmeans(D, 3, seed=1, restarts=3)
        assert_allclose(result.cost, relational_cost(D, result.assignment),
                        atol=1e-12)

    def test_converges_and_cost_shifts_by_constant(self):
        # the power centers' squared distances are D + 4r^2 off the
        # diagonal, so each k-cluster cost moves by the same 2r^2 (n - k):
        # Hartigan's moves on D and on the centers take the same path, and
        # converge on indefinite D
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(20, 81))
            D = random_hollow(rng, n)
            _, rep = decompose_power(center_gram(D))
            seed = int(rng.integers(100))
            result = relational_kmeans(D, 3, seed=seed, restarts=3)
            centers = kmeans_projected(D, rep, 3, seed=seed, restarts=3)
            labels = result.assignment
            assert np.array_equal(centers.assignment, labels)
            assert centers.iterations == result.iterations < 100
            assert result.k == 3
            assert_allclose(result.cost, relational_cost(D, labels), rtol=1e-9)
            shift = 2.0 * rep.radius**2 * (n - 3)
            assert_allclose(result.cost,
                            coordinate_kmeans_cost(rep.centers, labels) - shift,
                            rtol=1e-9)

    def test_validation(self):
        D = squared_distances(np.random.default_rng(9).standard_normal((5, 2)))
        with pytest.raises(DissimilarityError, match="k must lie"):
            relational_kmeans(D, 0)
        with pytest.raises(DissimilarityError, match="k must lie"):
            relational_kmeans(D, 6)
        with pytest.raises(DissimilarityError, match="restarts"):
            relational_kmeans(D, 2, restarts=0)
        with pytest.raises(DissimilarityError, match="seed must be nonnegative, got -1"):
            relational_kmeans(D, 2, seed=-1)


class TestKMeansProjected:
    def test_matches_relational_on_clean_blobs(self):
        X, truth = two_blobs(seed=10)
        D = squared_distances(X)
        coord = kmeans_projected(D, X, 2, seed=0)
        relational = relational_kmeans(D, 2, seed=0)
        assert_allclose(coord.cost, relational.cost, atol=1e-9)
        same = coord.assignment == coord.assignment[0]
        assert np.array_equal(same, truth == truth[0])

    def test_scored_on_matrix_not_coordinates(self):
        X, _ = two_blobs(seed=11)
        D = squared_distances(X)
        result = kmeans_projected(D, X, 2, seed=2, restarts=3)
        assert_allclose(result.cost, relational_cost(D, result.assignment),
                        atol=1e-12)

    def test_row_mismatch_rejected(self):
        D = squared_distances(np.random.default_rng(12).standard_normal((6, 2)))
        with pytest.raises(DissimilarityError, match="do not match"):
            kmeans_projected(D, np.zeros((5, 2)), 2)

    def test_validation(self):
        X, _ = two_blobs(n_per=3, seed=13)
        D = squared_distances(X)
        with pytest.raises(DissimilarityError, match="k must lie"):
            kmeans_projected(D, X, 0)
        with pytest.raises(DissimilarityError, match="restarts"):
            kmeans_projected(D, X, 2, restarts=0)
        with pytest.raises(DissimilarityError, match="seed must be nonnegative, got -1"):
            kmeans_projected(D, X, 2, seed=-1)
        with pytest.raises(DissimilarityError, match="square"):
            kmeans_projected(D[:, :-1], X, 2)


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("D", [
    gen_simplex(SimplexSpec(300, seed=0)),
    gen_balls(BallSpec(300, seed=0)),
], ids=["simplex", "balls"])
def test_row_major_rows_cluster_as_the_column_major_gather(D, full_branch):
    # a full branch embedding's parts are column gathers of eigenvectors,
    # Fortran ordered; k-means clusters row-major copies of the sketch's
    # rows, so C- and F-ordered parts give the same assignment, cost and
    # sweep count
    emb = embed_pq(decompose(center_gram(D)))
    assert all(part.flags.f_contiguous and not part.flags.c_contiguous
               for part in (emb.pos_coords, emb.neg_coords))
    rows = PseudoEuclideanEmbedding(np.ascontiguousarray(emb.pos_coords),
                                    np.ascontiguousarray(emb.neg_coords))
    for coords in ((emb, rows), (emb.neg_coords, rows.neg_coords)):
        for k in (3, 8):
            for seed in (0, 3):
                column, row = (kmeans_projected(D, c, k, seed=seed, restarts=1)
                               for c in coords)
                assert np.array_equal(column.assignment, row.assignment)
                assert column.cost == row.cost
                assert column.iterations == row.iterations


def test_coincident_points_fill_every_cluster():
    # moves never empty a cluster: each restart's k draws keep their own
    # clusters, and a singleton keeps its point, with no reseeding
    D = np.zeros((6, 6))
    for result in (relational_kmeans(D, 3, restarts=2),
                   kmeans_projected(D, np.zeros((6, 0)), 3, restarts=2)):
        assert np.bincount(result.assignment, minlength=3).min() >= 1
        assert result.k == 3


def single_moves(labels, k):
    """Each labelling one point's move away that keeps every cluster nonempty."""
    sizes = np.bincount(labels, minlength=k)
    for i in np.flatnonzero(sizes[labels] > 1):
        for b in range(k):
            if b != labels[i]:
                moved = labels.copy()
                moved[i] = b
                yield moved


@pytest.mark.parametrize("D", [
    gen_simplex(SimplexSpec(40, seed=0)),
    gen_balls(BallSpec(40, seed=1)),
    validate_matrix(-squared_distances(np.random.default_rng(5).standard_normal((40, 5)))),
], ids=["simplex", "balls", "p=0"])
def test_no_single_move_lowers_the_cost(D):
    # the projected run stops where no move lowers its sketch's own cost,
    # whatever the route's form, and the baseline where none lowers D's
    k = 4
    runs = [(D.entries, relational_kmeans(D, k, restarts=3))]
    for method in ("jl", "jl-pq", "jl-power"):
        sketch = run_projection(D, method).projected
        runs.append((reconstruct(sketch), kmeans_projected(D, sketch, k, restarts=3)))
    for A, result in runs:
        assert result.iterations < 100
        cost = relational_cost(A, result.assignment)
        tol = 1e-9 * 40 * np.abs(A).max()
        assert min(relational_cost(A, moved)
                   for moved in single_moves(result.assignment, k)) >= cost - tol
