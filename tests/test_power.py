import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dissimjl import (
    DEFAULT_TAU_REL,
    BallSpec,
    DissimilarityError,
    GaussianCluster,
    ProjectionConfig,
    PseudoEuclideanEmbedding,
    SimplexSpec,
    as_matrix,
    center_gram,
    decompose,
    decompose_power,
    embed_pq,
    gen_balls,
    gen_simplex,
    power_distance,
    power_radius,
    reconstruct,
    run_projection,
    silhouette_gaussian,
    squared_distances,
    validate_matrix,
)
from dissimjl import core
from dissimjl.cli import main, write_matrix

from conftest import (
    GRAM_CASES,
    calls,
    euclideanize,
    grid_hops,
    in_place_lapack,
    mc_silhouette,
    pivoted_cholesky,
    random_hollow,
    recover_centers,
)

THREE_POINT = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])


def decomposed(D):
    return decompose(center_gram(validate_matrix(D)))


def power_rep(D, radius=None):
    return decompose_power(center_gram(validate_matrix(D)), radius)[1]


def power_matrix(rep: PseudoEuclideanEmbedding) -> np.ndarray:
    out = squared_distances(rep.centers) - 4.0 * rep.radius**2
    np.fill_diagonal(out, 0.0)
    return out


class TestPowerDistance:
    def test_disjoint_balls(self):
        assert power_distance([0.0, 0.0], 1.0, [3.0, 0.0], 1.0) == 5.0

    def test_overlapping_balls_go_negative(self):
        assert power_distance([0.0, 0.0], 1.0, [1.0, 0.0], 1.0) == -3.0

    def test_zero_radius_is_squared_distance(self):
        rng = np.random.default_rng(0)
        c1, c2 = rng.standard_normal(4), rng.standard_normal(4)
        assert_allclose(power_distance(c1, 0.0, c2, 0.0),
                        np.sum((c1 - c2) ** 2), atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DissimilarityError, match="dimensions differ"):
            power_distance([0.0], 1.0, [0.0, 0.0], 1.0)
        with pytest.raises(DissimilarityError, match="nonnegative"):
            power_distance([0.0], -0.5, [1.0], 1.0)


class TestPowerRadius:
    def test_three_point_value(self):
        dec = decompose(center_gram(validate_matrix(THREE_POINT)))
        assert_allclose(power_radius(dec), math.sqrt(1.0 / 12.0), atol=1e-12)

    def test_euclidean_input_gives_zero(self):
        X = np.random.default_rng(1).standard_normal((8, 3))
        dec = decompose(center_gram(validate_matrix(squared_distances(X))))
        assert power_radius(dec) == 0.0


class TestEuclideanize:
    def test_three_point_shift(self):
        E = euclideanize(validate_matrix(THREE_POINT), math.sqrt(1.0 / 12.0))
        expected = np.array([
            [0.0, 4.0 / 3.0, 4.0 / 3.0],
            [4.0 / 3.0, 0.0, 16.0 / 3.0],
            [4.0 / 3.0, 16.0 / 3.0, 0.0],
        ])
        assert_allclose(E, expected, atol=1e-12)

    def test_diagonal_stays_zero(self):
        E = euclideanize(random_hollow(np.random.default_rng(2), 6), 1.7)
        assert np.all(np.diag(E) == 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(DissimilarityError, match="nonnegative"):
            euclideanize(THREE_POINT, -0.1)


class TestRecoverCenters:
    def test_three_point_centers(self):
        E = euclideanize(validate_matrix(THREE_POINT), math.sqrt(1.0 / 12.0))
        centers = recover_centers(E)
        assert centers.shape == (3, 1)
        assert_allclose(np.sort(np.abs(centers.ravel())),
                        [0.0, 2.0 / math.sqrt(3.0), 2.0 / math.sqrt(3.0)],
                        atol=1e-9)
        assert_allclose(squared_distances(centers), E, atol=1e-9)

    def test_roundtrips_euclidean_matrices(self):
        X = np.random.default_rng(3).standard_normal((12, 4))
        E = squared_distances(X)
        assert_allclose(squared_distances(recover_centers(E)), E, atol=1e-8)

    def test_rejects_clearly_non_euclidean(self):
        with pytest.raises(DissimilarityError, match="not Euclidean"):
            recover_centers(THREE_POINT)

    def test_radius_threshold_is_sharp(self):
        D = validate_matrix(random_hollow(np.random.default_rng(4), 15))
        r = power_radius(decompose(center_gram(D)))
        assert r > 0.0
        centers = recover_centers(euclideanize(D, r))
        assert centers.shape[0] == 15
        with pytest.raises(DissimilarityError, match="not Euclidean"):
            recover_centers(euclideanize(D, 0.99 * r))


class TestPowerRepresentation:
    def test_reproduces_three_point(self):
        rep = power_rep(THREE_POINT)
        # the default radius is the minimum sqrt(1 / 12) plus the margin:
        # r^2 - 1 / 12 = 1e-9 (e_1 - e_n)
        lam = decomposed(THREE_POINT).eigenvalues
        assert_allclose(rep.radius**2 - 1.0 / 12.0,
                        DEFAULT_TAU_REL * (lam[0] - lam[-1]), rtol=1e-6)
        for i in range(3):
            for j in range(i + 1, 3):
                assert_allclose(
                    power_distance(rep.centers[i], rep.radius,
                                   rep.centers[j], rep.radius),
                    THREE_POINT[i, j], atol=1e-9)

    def test_matrix_roundtrip(self):
        D = random_hollow(np.random.default_rng(5), 20)
        rep = power_rep(D)
        assert rep.q == 0 and rep.centers is rep.pos_coords
        assert_allclose(power_matrix(rep), D, atol=1e-7)

    def test_larger_radius_also_reproduces(self):
        D = random_hollow(np.random.default_rng(6), 10)
        dec = decomposed(D)
        r = power_radius(dec)
        rep = power_rep(D, radius=2.0 * r + 1.0)
        assert rep.radius == 2.0 * r + 1.0
        assert_allclose(power_matrix(rep), D, atol=1e-6)

    def test_radius_below_minimum_rejected(self):
        D = random_hollow(np.random.default_rng(7), 10)
        r = power_radius(decomposed(D))
        with pytest.raises(DissimilarityError, match="not Euclidean"):
            power_rep(D, radius=0.5 * r)

    # the one representation type checks its radius, with or without a
    # negative part
    def test_negative_radius_rejected_in_dataclass(self):
        for q in (0, 1):
            with pytest.raises(DissimilarityError, match="nonnegative"):
                PseudoEuclideanEmbedding(np.zeros((2, 1)), np.zeros((2, q)), -1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, radius):
        with pytest.raises(DissimilarityError, match="nonnegative and finite"):
            PseudoEuclideanEmbedding(np.zeros((2, 1)), np.zeros((2, 0)), radius)
        with pytest.raises(DissimilarityError, match="nonnegative and finite"):
            power_rep(THREE_POINT, radius)


def max_rel_offdiag(E, Ehat):
    iu = np.triu_indices(E.shape[0], 1)
    e, eh = E[iu], Ehat[iu]
    mask = e != 0.0
    return float(np.max(np.abs(eh[mask] - e[mask]) / np.abs(e[mask])))


# (matrix, radius factor over power_radius, additive radius); None keeps
# the default radius, and a factor of 1 overrides with the minimal radius,
# at which B + 2r^2 I is singular and the centers are its pivoted
# Cholesky factor
EQUIVALENCE_CASES = {
    "simplex": (lambda: gen_simplex(SimplexSpec(120, seed=3)), None, 0.0),
    "simplex-minimum": (lambda: gen_simplex(SimplexSpec(120, seed=3)), 1.0, 0.0),
    "balls": (lambda: gen_balls(BallSpec(120, seed=3)), None, 0.0),
    "balls-minimum": (lambda: gen_balls(BallSpec(120, seed=3)), 1.0, 0.0),
    "random": (lambda: random_hollow(np.random.default_rng(12), 40), None, 0.0),
    "random-minimum": (
        lambda: random_hollow(np.random.default_rng(12), 40), 1.0, 0.0
    ),
    "random-larger-radius": (
        lambda: random_hollow(np.random.default_rng(13), 40), 3.0, 1.0
    ),
    "grid-null-block": (lambda: grid_hops(8), 1.0, 1.5),
}


class TestMatchesTwoEighOracle:
    """decompose_power's centers against a second eigh of the shifted matrix."""

    @staticmethod
    def build(name):
        make, factor, extra = EQUIVALENCE_CASES[name]
        D = validate_matrix(as_matrix(make()))
        dec = decompose(center_gram(D))
        r_min = power_radius(dec)
        radius = None if factor is None else factor * r_min + extra
        return D, dec, r_min, radius

    @pytest.fixture(params=sorted(EQUIVALENCE_CASES))
    def case(self, request):
        return self.build(request.param)

    def test_centers_reproduce_shifted_matrix(self, case):
        D, dec, r_min, radius = case
        _, rep = decompose_power(center_gram(D), radius)
        E = euclideanize(D, rep.radius)
        assert max_rel_offdiag(E, squared_distances(rep.centers)) <= 1e-6

    @staticmethod
    def oracle_dim(rep, E):
        """Oracle dimension, plus the all-ones direction when r > 0."""
        return recover_centers(E).shape[1] + (rep.radius > 0.0)

    def test_center_dimension_matches_oracle(self, case):
        D, dec, r_min, radius = case
        _, rep = decompose_power(center_gram(D), radius)
        E = euclideanize(D, rep.radius)
        assert rep.p == self.oracle_dim(rep, E)

    def test_pipeline_uses_the_same_centers(self, case):
        D, _, r_min, radius = case
        res = run_projection(D, "jl-power", radius_override=radius)
        E = euclideanize(D, res.representation.radius)
        assert res.representation.p == self.oracle_dim(res.representation, E)
        assert max_rel_offdiag(
            E, squared_distances(res.representation.centers)
        ) <= 1e-6

    # the grid is Euclidean (minimal radius 0), so it has no radius below;
    # the "-minimum" cases share their input's minimum with the default ones
    @pytest.mark.parametrize("name", sorted(
        name for name in EQUIVALENCE_CASES
        if name != "grid-null-block" and not name.endswith("-minimum")
    ))
    def test_radius_below_minimum_still_rejected(self, name, tmp_path, capsys):
        D, dec, r_min, _ = self.build(name)
        assert r_min > 0.0
        with pytest.raises(DissimilarityError, match="not Euclidean"):
            decompose_power(center_gram(D), 0.5 * r_min)
        with pytest.raises(DissimilarityError, match="not Euclidean"):
            run_projection(D, "jl-power", radius_override=0.5 * r_min)
        path = tmp_path / "D.csv"
        write_matrix(str(path), D)
        assert main(["project", str(path), "--method", "jl-power",
                     "--radius-override", repr(0.5 * r_min)]) == 2
        assert "not Euclidean" in capsys.readouterr().err

    def test_grid_null_block_holds_the_ones_direction(self):
        D = grid_hops(8)
        B = center_gram(D)
        dec = decompose(B.copy())
        assert dec.zero_rank == 50
        _, rep = decompose_power(B.copy(), 1.5)
        assert rep.p == D.n
        # Gram B + 2r^2 I: the whole null block, ones direction included,
        # is kept at 2r^2
        gram = B + 2.0 * 1.5**2 * np.eye(D.n)
        err = np.abs(rep.centers @ rep.centers.T - gram).max()
        assert err <= DEFAULT_TAU_REL * np.abs(gram).max()


EUCLIDEAN_CASES = {
    "grid": lambda: grid_hops(8),
    "simplex-alpha-0": lambda: gen_simplex(SimplexSpec(60, alpha=0.0, seed=4)),
    "points": lambda: squared_distances(
        np.random.default_rng(16).standard_normal((30, 5))
    ),
}


@pytest.mark.parametrize("name", sorted(EUCLIDEAN_CASES))
def test_euclidean_input_centers_reproduce_d(name):
    """At r = 0 the centers are a pivoted Cholesky factor of B with its
    all-ones direction lifted: one column per positive eigenvalue and one
    for that direction, reproducing D within 1e-12 of max|D|.  A factor at
    most n/2 wide is copied out of B's buffer."""
    D = validate_matrix(EUCLIDEAN_CASES[name]())
    B = center_gram(D)
    p = decompose(B.copy(), vectors=False).p
    dec, rep = decompose_power(B)
    assert rep.radius == 0.0 and dec.q == 0 and dec.factors is None
    assert rep.p == p + 1
    assert np.shares_memory(rep.centers, B) == (2 * rep.p > D.n)
    scale = np.abs(D.entries).max()
    assert np.abs(reconstruct(rep) - D.entries).max() <= 1e-12 * scale


@pytest.mark.parametrize("make", [
    lambda: squared_distances(np.random.default_rng(16).standard_normal((300, 5))),
    lambda: gen_simplex(SimplexSpec(300, alpha=0.0, seed=0)),
], ids=["points", "simplex-alpha-0"])
def test_euclidean_input_sketch_follows_the_jl_law(make):
    """At r = 0 a pair's sketch is its centers' squared distance, D to
    rounding, times chi^2_m / m: per pair, D-hat / D has mean 1 and
    variance 2 / m.  Over 40 seeds, each seed's mean over pairs of the
    ratio and of its squared deviation from 1 are within 4 standard
    errors of 1 and of 2 / m."""
    D = validate_matrix(make())
    iu = np.triu_indices(D.n, 1)
    d = D.entries[iu]
    seeds = []
    for seed in range(40):
        res = run_projection(D, "jl-power", ProjectionConfig(seed=seed))
        assert res.representation.radius == 0.0
        ratio = res.reconstructed[iu] / d
        seeds.append((ratio.mean(), ((ratio - 1.0) ** 2).mean()))
    seeds = np.array(seeds)
    gap = np.abs(seeds.mean(axis=0) - [1.0, 2.0 / res.out_dim])
    se = seeds.std(axis=0, ddof=1) / np.sqrt(len(seeds))
    assert np.all(gap <= 4.0 * se), (gap, se)


def test_negative_zero_radius_is_returned_as_positive_zero():
    # -0.0 passes every radius check on Euclidean input, and would reach
    # the report with its sign
    D = validate_matrix(EUCLIDEAN_CASES["points"]())
    _, rep = decompose_power(center_gram(D), -0.0)
    assert rep.radius == 0.0 and math.copysign(1.0, rep.radius) == 1.0


SPECTRUM_CASES = {
    "simplex": lambda: gen_simplex(SimplexSpec(120, seed=3)),
    "balls": lambda: gen_balls(BallSpec(120, seed=3)),
    "random": lambda: random_hollow(np.random.default_rng(12), 40),
    "grid": lambda: grid_hops(8),
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_eigenvalues_alone_give_the_same_signature(name):
    B = center_gram(validate_matrix(as_matrix(SPECTRUM_CASES[name]())))
    full, alone = decompose(B.copy()), decompose(B.copy(), vectors=False)
    assert alone.factors is None
    assert (alone.p, alone.q, alone.zero_rank) == (full.p, full.q, full.zero_rank)
    assert_allclose(alone.tau, full.tau, rtol=1e-12)
    assert_allclose(alone.eigenvalues, full.eigenvalues,
                    atol=1e-12 * np.abs(full.eigenvalues).max())


# the branch each GRAM_CASES input takes at the default radius: r > 0 factors
# B + 2r^2 I; Euclidean input (r = 0) keeps a null direction and takes its
# pivoted Cholesky factor
POWER_BRANCHES = {"simplex": "cholesky", "balls": "cholesky", "random": "cholesky",
                  "grid": "pstrf", "simplex-alpha-0": "pstrf", "zero": "pstrf"}


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_both_lapack_routes_give_numpys_centers(name, lapack_route):
    # in B's own buffer or through the np.linalg fallback: eigvalsh's
    # spectrum, and cholesky's factor bit for bit; at a singular radius a
    # factor of B + 2r^2 I + s 11^T / n (s the largest mu) to rounding, one
    # column per eigenvalue above the tolerance and one for the lifted
    # all-ones direction, where it was null (dpstrf's, or on the fallback
    # eigh's vectors above the tolerance, scaled)
    B = GRAM_CASES[name]()
    n = B.shape[0]
    dec, rep = decompose_power(B.copy())
    r = rep.radius
    alone = np.linalg.eigvalsh(B)
    assert dec.factors is None
    assert dec.eigenvalues.tobytes() == alone[::-1].tobytes()
    shifted = B.copy()
    shifted.flat[:: n + 1] += 2.0 * r**2
    if POWER_BRANCHES[name] == "cholesky":
        oracle = np.linalg.cholesky(shifted)
        assert rep.centers.flags.c_contiguous
        assert np.ascontiguousarray(rep.centers).tobytes() == oracle.tobytes()
    else:
        mu = alone + 2.0 * r**2
        tol = DEFAULT_TAU_REL * max(np.abs(mu).max(), np.abs(alone).max())
        count = int(np.sum(mu > tol))
        assert rep.p == count + (mu.max() > 0.0)
        shifted += mu.max() / n
        residual = np.abs(rep.centers @ rep.centers.T - shifted).max()
        assert residual <= 1e-12 * np.abs(shifted).max()


class TestCholeskyCenters:
    """decompose_power on non-Euclidean input: eigenvalues, then one Cholesky."""

    @pytest.mark.parametrize("name", ["simplex", "balls", "random"])
    def test_centers_reproduce_d_just_above_the_minimal_radius(self, name):
        D = validate_matrix(as_matrix(SPECTRUM_CASES[name]()))
        B = center_gram(D)
        full = decompose(B.copy())
        dec, rep = decompose_power(B.copy())
        assert dec.factors is None and rep.p == D.n
        assert np.abs(reconstruct(rep) - D.entries).max() <= (
            1e-12 * np.abs(D.entries).max())
        # r^2 = -e_n / 2 + m with the margin m = 1e-9 (e_1 - e_n)
        lam = full.eigenvalues
        r_min = power_radius(full)
        assert rep.radius >= r_min
        margin = DEFAULT_TAU_REL * (lam[0] - lam[-1])
        assert_allclose(rep.radius**2 - r_min**2, margin, rtol=1e-6)
        # so the radius grows by about 1e-9 (1 + e_1 / |e_n|) relative: below
        # 1e-8 while e_1 < 9 |e_n| (6.3 on balls here, 10.5 on balls n=120
        # seed 0, whose gap is 1.15e-8)
        gap = rep.radius / r_min - 1.0
        assert gap <= 1.01e-9 * (1.0 - lam[0] / lam[-1])
        assert gap <= 1e-8

    def test_centers_are_the_cholesky_factor(self):
        D = validate_matrix(random_hollow(np.random.default_rng(17), 25))
        B = center_gram(D)
        dec, rep = decompose_power(B.copy(), radius=3.0)
        assert rep.radius == 3.0
        assert np.array_equal(rep.centers, np.tril(rep.centers))
        gram = B + 2.0 * 3.0**2 * np.eye(D.n)
        assert_allclose(rep.centers @ rep.centers.T, gram,
                        atol=1e-12 * np.abs(gram).max())

    def test_gram_matrix_is_shifted_in_place(self):
        # the factor is formed and returned in B's own buffer: B is then L
        B = center_gram(random_hollow(np.random.default_rng(18), 12))
        gram = B + 2.0 * np.eye(12) * decompose_power(B.copy())[1].radius**2
        _, rep = decompose_power(B)
        assert rep.centers is B
        assert np.array_equal(B, np.tril(B))
        assert_allclose(B @ B.T, gram, atol=1e-12 * np.abs(gram).max())

    @in_place_lapack
    def test_override_at_the_minimal_radius_takes_the_pivoted_factor(self):
        D = validate_matrix(random_hollow(np.random.default_rng(19), 30))
        B = center_gram(D)
        alone = decompose(B.copy(), vectors=False)
        r_min = power_radius(alone)
        dec, rep = decompose_power(B.copy(), r_min)
        # the direction of e_n has no length left, so it is dropped
        assert dec.factors is None
        assert rep.radius == r_min and rep.p == D.n - 1
        # the pivoted Cholesky factor of B + 2r^2 I + s 11^T / n, s the
        # largest mu, stopped at the tolerance over n: the same pivots, so
        # the same zeros, and the same values to rounding
        lam = alone.eigenvalues
        mu = lam + 2.0 * r_min**2
        tol = DEFAULT_TAU_REL * max(np.abs(mu).max(), np.abs(lam).max())
        gram = B + 2.0 * r_min**2 * np.eye(D.n) + mu[0] / D.n
        oracle = pivoted_cholesky(gram, tol / D.n)
        assert rep.centers.shape == oracle.shape
        assert np.array_equal(rep.centers == 0.0, oracle == 0.0)
        assert_allclose(rep.centers, oracle, rtol=0.0,
                        atol=1e-12 * np.sqrt(np.abs(gram).max()))
        assert np.abs(reconstruct(rep) - D.entries).max() <= (
            1e-12 * np.abs(D.entries).max())
        res = run_projection(D, "jl-power", radius_override=r_min)
        assert res.representation.radius == r_min
        # the run keeps the spectrum only, and the same centers
        assert res.decomposition.factors is None
        assert np.array_equal(res.representation.centers, rep.centers)

    def test_vectorless_decomposition_has_no_eigenvector_route(self):
        dec = decompose(center_gram(THREE_POINT), vectors=False)
        with pytest.raises(DissimilarityError, match="no factors"):
            embed_pq(dec)


class TestSingleEigendecomposition:
    """LAPACK calls of one run: jl-power's eigenvalues plus one Cholesky
    factor, pivoted where the radius leaves a direction at 0, and never a
    second reduction of B; jl-pq's one decomposition, on the branch its
    input's signature picks."""

    # (input, radius override, the kinds of conftest.CALLS the run makes);
    # "minimum" overrides with power_radius, at which B + 2r^2 I is singular.
    # Full-rank Euclidean input leaves only the all-ones direction null at
    # r = 0, and takes the pivoted factor like the grid's 50-fold null block
    CASES = {
        "default": ("hollow", None, ("eigvalsh", "cholesky")),
        "override": ("hollow", 5.0, ("eigvalsh", "cholesky")),
        "euclidean": ("grid", None, ("eigvalsh", "pstrf")),
        "full-rank-euclidean": ("simplex-alpha-0", None, ("eigvalsh", "pstrf")),
        "override-at-minimum": ("hollow", "minimum", ("eigvalsh", "pstrf")),
    }

    # decompose's branch by input: (p, q) at these sizes are simplex (11, 108),
    # balls (47, 72), hollow (15, 14), grid (14, 0), simplex at alpha 0
    # (59, 0), points (5, 0) and negated (0, 5); only a smaller part of at
    # most core._SLICE_SHARE of n slices
    BRANCHES = {
        "simplex": ("slice", "vectors"), "balls": ("full",), "hollow": ("full",),
        "grid": ("slice",), "simplex-alpha-0": ("slice",), "points": ("slice",),
        "negated": ("slice",),
    }

    @staticmethod
    def matrix(kind):
        points = np.random.default_rng(16).standard_normal((30, 5))
        return validate_matrix({
            "simplex": lambda: gen_simplex(SimplexSpec(120, seed=3)),
            "balls": lambda: gen_balls(BallSpec(120, seed=3)),
            "hollow": lambda: random_hollow(np.random.default_rng(14), 30),
            "grid": lambda: grid_hops(8),
            "simplex-alpha-0": lambda: gen_simplex(SimplexSpec(60, alpha=0.0, seed=4)),
            "points": lambda: squared_distances(points),
            "negated": lambda: -squared_distances(points),
        }[kind]())

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_projection_solver_calls(self, lapack_calls, case):
        kind, radius, expected = self.CASES[case]
        D = self.matrix(kind)
        if radius == "minimum":
            radius = power_radius(decompose(center_gram(D), vectors=False))
            lapack_calls.clear()
        run_projection(D, "jl-power", radius_override=radius)
        assert lapack_calls == calls(*expected)

    @pytest.mark.parametrize("kind", sorted(BRANCHES))
    def test_decompose_takes_one_branch(self, lapack_calls, kind):
        D = self.matrix(kind)
        dec = decompose(center_gram(D), vectors=False)
        expected = self.BRANCHES[kind]
        assert (min(dec.p, dec.q) <= core._SLICE_SHARE * D.n) == ("slice" in expected)
        assert (min(dec.p, dec.q) > 0) == ("vectors" in expected or "full" in expected)
        lapack_calls.clear()
        res = run_projection(D, "jl-pq")
        assert lapack_calls == calls(*expected)
        assert (res.decomposition.p, res.decomposition.q) == (dec.p, dec.q)


class TestSilhouette:
    def test_matches_power_distance_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ma, mb = rng.standard_normal(3), rng.standard_normal(3)
            sa, sb = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            gap = silhouette_gaussian(GaussianCluster(ma, sa),
                                      GaussianCluster(mb, sb))
            assert gap == power_distance(ma, sa, mb, sb)

    def test_well_separated_positive_overlapping_negative(self):
        far = silhouette_gaussian(GaussianCluster(np.zeros(2), 0.5),
                                  GaussianCluster(np.array([10.0, 0.0]), 0.5))
        near = silhouette_gaussian(GaussianCluster(np.zeros(2), 2.0),
                                   GaussianCluster(np.array([1.0, 0.0]), 2.0))
        assert far > 0.0 > near

    def test_negative_sigma_rejected(self):
        with pytest.raises(DissimilarityError, match="nonnegative"):
            GaussianCluster(np.zeros(2), -0.3)

    @pytest.mark.parametrize("ma,sa,mb,sb", [
        ((0.0, 0.0, 0.0), 1.0, (3.0, 0.0, 0.0), 0.5),
        ((1.0, -1.0), 0.8, (1.5, 0.5), 1.2),
        ((0.0,) * 5, 2.0, (0.5,) * 5, 2.0),
    ])
    def test_monte_carlo_agrees_with_closed_form(self, ma, sa, mb, sb):
        closed = silhouette_gaussian(GaussianCluster(np.array(ma), sa),
                                     GaussianCluster(np.array(mb), sb))
        est, se = mc_silhouette(np.array(ma), sa, np.array(mb), sb,
                                samples=60_000, batches=60, seed=11)
        assert abs(est - closed) <= 3.0 * se + 1e-3


@given(n=st.integers(2, 18), seed=st.integers(0, 2**32 - 1))
# n=2 with the radius cancelling B's one nonzero eigenvalue: every Gram
# eigenvalue of the shifted matrix is rounding noise
@example(n=2, seed=536870911)
@settings(max_examples=40, deadline=None)
def test_representation_roundtrip_property(n, seed):
    D = random_hollow(np.random.default_rng(seed), n, scale=3.0)
    rep = power_rep(D)
    assert rep.radius >= 0.0
    scale = max(1.0, np.abs(D).max())
    assert np.abs(power_matrix(rep) - D).max() <= 1e-6 * scale
