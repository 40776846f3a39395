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
    PowerRepresentation,
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
    power_representation,
    reconstruct,
    run_projection,
    silhouette_gaussian,
    squared_distances,
    validate_matrix,
)
from dissimjl.cli import main, write_matrix

from conftest import (
    euclideanize,
    grid_hops,
    mc_silhouette,
    random_hollow,
    recover_centers,
)

THREE_POINT = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])


def decomposed(D):
    return decompose(center_gram(validate_matrix(D)))


def power_matrix(rep: PowerRepresentation) -> np.ndarray:
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
        rep = power_representation(decomposed(THREE_POINT))
        assert_allclose(rep.radius, math.sqrt(1.0 / 12.0), atol=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert_allclose(
                    power_distance(rep.centers[i], rep.radius,
                                   rep.centers[j], rep.radius),
                    THREE_POINT[i, j], atol=1e-9)

    def test_matrix_roundtrip(self):
        D = random_hollow(np.random.default_rng(5), 20)
        rep = power_representation(decomposed(D))
        assert_allclose(power_matrix(rep), D, atol=1e-7)

    def test_larger_radius_also_reproduces(self):
        D = random_hollow(np.random.default_rng(6), 10)
        dec = decomposed(D)
        r = power_radius(dec)
        rep = power_representation(dec, radius=2.0 * r + 1.0)
        assert rep.radius == 2.0 * r + 1.0
        assert_allclose(power_matrix(rep), D, atol=1e-6)

    def test_radius_below_minimum_rejected(self):
        dec = decomposed(random_hollow(np.random.default_rng(7), 10))
        r = power_radius(dec)
        with pytest.raises(DissimilarityError, match="not Euclidean"):
            power_representation(dec, radius=0.5 * r)

    def test_negative_radius_rejected_in_dataclass(self):
        with pytest.raises(DissimilarityError, match="nonnegative"):
            PowerRepresentation(np.zeros((2, 1)), -1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, radius):
        with pytest.raises(DissimilarityError, match="nonnegative and finite"):
            PowerRepresentation(np.zeros((2, 1)), radius)
        with pytest.raises(DissimilarityError, match="nonnegative and finite"):
            power_representation(decomposed(THREE_POINT), radius)


def max_rel_offdiag(E, Ehat):
    iu = np.triu_indices(E.shape[0], 1)
    e, eh = E[iu], Ehat[iu]
    mask = e != 0.0
    return float(np.max(np.abs(eh[mask] - e[mask]) / np.abs(e[mask])))


# (matrix, radius factor over power_radius, additive radius); None keeps
# the minimal radius
EQUIVALENCE_CASES = {
    "simplex": (lambda: gen_simplex(SimplexSpec(120, seed=3)), None, 0.0),
    "balls": (lambda: gen_balls(BallSpec(120, seed=3)), None, 0.0),
    "random": (lambda: random_hollow(np.random.default_rng(12), 40), None, 0.0),
    "random-larger-radius": (
        lambda: random_hollow(np.random.default_rng(13), 40), 3.0, 1.0
    ),
    "grid-null-block": (lambda: grid_hops(8), 1.0, 1.5),
}


class TestMatchesTwoEighOracle:
    """Centers from B's eigenpairs against a second eigh of the shifted matrix."""

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
        rep = power_representation(dec, radius)
        E = euclideanize(D, r_min if radius is None else radius)
        assert max_rel_offdiag(E, squared_distances(rep.centers)) <= 1e-6

    @staticmethod
    def oracle_dim(rep, E):
        """Oracle dimension, plus the all-ones direction when r > 0."""
        return recover_centers(E).shape[1] + (rep.radius > 0.0)

    def test_center_dimension_matches_oracle(self, case):
        D, dec, r_min, radius = case
        rep = power_representation(dec, radius)
        E = euclideanize(D, rep.radius)
        assert rep.dim == self.oracle_dim(rep, E)

    def test_pipeline_uses_the_same_centers(self, case):
        D, _, r_min, radius = case
        res = run_projection(D, "jl-power", radius_override=radius)
        E = euclideanize(D, res.representation.radius)
        assert res.representation.dim == self.oracle_dim(res.representation, E)
        assert max_rel_offdiag(
            E, squared_distances(res.representation.centers)
        ) <= 1e-6

    # the grid is Euclidean (minimal radius 0), so it has no radius below
    @pytest.mark.parametrize(
        "name", sorted(set(EQUIVALENCE_CASES) - {"grid-null-block"})
    )
    def test_radius_below_minimum_still_rejected(self, name, tmp_path, capsys):
        D, dec, r_min, _ = self.build(name)
        assert r_min > 0.0
        with pytest.raises(DissimilarityError, match="not Euclidean"):
            power_representation(dec, 0.5 * r_min)
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
        dec = decompose(B)
        assert dec.zero_rank == 50
        rep = power_representation(dec, 1.5)
        assert rep.dim == D.n
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
def test_euclidean_input_centers_are_the_pq_coordinates(name):
    """At r = 0 the power centers are embed_pq's coordinates, bit for bit."""
    D = validate_matrix(EUCLIDEAN_CASES[name]())
    res = run_projection(D, "jl-power")
    emb = embed_pq(decompose(center_gram(D)))
    assert res.representation.radius == 0.0 and emb.q == 0
    assert np.array_equal(res.representation.centers, emb.pos_coords)


SPECTRUM_CASES = {
    "simplex": lambda: gen_simplex(SimplexSpec(120, seed=3)),
    "balls": lambda: gen_balls(BallSpec(120, seed=3)),
    "random": lambda: random_hollow(np.random.default_rng(12), 40),
    "grid": lambda: grid_hops(8),
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_eigenvalues_alone_give_the_same_signature(name):
    B = center_gram(validate_matrix(as_matrix(SPECTRUM_CASES[name]())))
    full, alone = decompose(B), decompose(B, vectors=False)
    assert alone.eigenvectors is None
    assert (alone.p, alone.q, alone.zero_rank) == (full.p, full.q, full.zero_rank)
    assert_allclose(alone.tau, full.tau, rtol=1e-12)
    assert_allclose(alone.eigenvalues, full.eigenvalues,
                    atol=1e-12 * np.abs(full.eigenvalues).max())


class TestCholeskyCenters:
    """decompose_power on non-Euclidean input: eigenvalues, then one Cholesky."""

    @pytest.mark.parametrize("name", ["simplex", "balls", "random"])
    def test_centers_reproduce_d_just_above_the_minimal_radius(self, name):
        D = validate_matrix(as_matrix(SPECTRUM_CASES[name]()))
        B = center_gram(D)
        full = decompose(B)
        dec, rep = decompose_power(B)
        assert dec.eigenvectors is None and rep.dim == D.n
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
        B = center_gram(random_hollow(np.random.default_rng(18), 12))
        before = B.copy()
        _, rep = decompose_power(B)
        off = ~np.eye(12, dtype=bool)
        assert np.array_equal(B[off], before[off])
        assert np.array_equal(np.diag(B), np.diag(before) + 2.0 * rep.radius**2)

    def test_override_at_the_minimal_radius_takes_eigh(self):
        D = validate_matrix(random_hollow(np.random.default_rng(19), 30))
        full = decompose(center_gram(D))
        r_min = power_radius(full)
        dec, rep = decompose_power(center_gram(D), r_min)
        # the direction of e_n has no length left, so it is dropped
        assert dec.eigenvectors is not None
        assert rep.radius == r_min and rep.dim == D.n - 1
        assert np.array_equal(rep.centers, power_representation(full, r_min).centers)
        assert np.abs(reconstruct(rep) - D.entries).max() <= (
            1e-12 * np.abs(D.entries).max())
        res = run_projection(D, "jl-power", radius_override=r_min)
        assert res.representation.radius == r_min
        # the run keeps the spectrum only; its centers are eigh's
        assert res.decomposition.eigenvectors is None
        assert np.array_equal(res.representation.centers,
                              power_representation(full, r_min).centers)

    def test_vectorless_decomposition_has_no_eigenvector_route(self):
        dec = decompose(center_gram(THREE_POINT), vectors=False)
        with pytest.raises(DissimilarityError, match="no eigenvectors"):
            power_representation(dec)
        with pytest.raises(DissimilarityError, match="no eigenvectors"):
            embed_pq(dec)


class TestSingleEigendecomposition:
    """LAPACK calls of one jl-power run: eigenvalues plus one Cholesky factor,
    or eigh after the eigenvalues where the radius leaves a direction at 0."""

    @pytest.fixture()
    def solver_calls(self, monkeypatch):
        calls = dict.fromkeys(("eigh", "eigvalsh", "cholesky"), 0)
        for name in calls:
            def counting(*args, _real=getattr(np.linalg, name), _name=name,
                         **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    # (input, radius override, (eigh, eigvalsh, cholesky) calls); "minimum"
    # overrides with power_radius, at which B + 2r^2 I is singular
    CASES = {
        "default": ("hollow", None, (0, 1, 1)),
        "override": ("hollow", 5.0, (0, 1, 1)),
        "euclidean": ("grid", None, (1, 1, 0)),
        "override-at-minimum": ("hollow", "minimum", (1, 1, 0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_projection_solver_calls(self, solver_calls, case):
        kind, radius, expected = self.CASES[case]
        if kind == "grid":
            D = grid_hops(8)
        else:
            D = validate_matrix(random_hollow(np.random.default_rng(14), 30))
        if radius == "minimum":
            radius = power_radius(decompose(center_gram(D), vectors=False))
            solver_calls.update(dict.fromkeys(solver_calls, 0))
        run_projection(D, "jl-power", radius_override=radius)
        assert tuple(solver_calls.values()) == expected

    def test_power_representation_calls_eigh_once(self, solver_calls):
        power_representation(decomposed(random_hollow(np.random.default_rng(15), 30)))
        assert solver_calls == {"eigh": 1, "eigvalsh": 0, "cholesky": 0}


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
    rep = power_representation(decomposed(D))
    assert rep.radius >= 0.0
    scale = max(1.0, np.abs(D).max())
    assert np.abs(power_matrix(rep) - D).max() <= 1e-6 * scale
