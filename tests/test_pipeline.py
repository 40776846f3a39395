import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dissimjl
from dissimjl import pipeline
from dissimjl import (
    METHODS,
    BallSpec,
    DissimilarityError,
    NumericalError,
    ProjectionConfig,
    SimplexSpec,
    as_matrix,
    center_gram,
    decompose,
    decompose_power,
    embed_pq,
    gaussian_map,
    gen_balls,
    gen_simplex,
    reconstruct,
    relational_kmeans,
    report_dict,
    run_projection,
    target_dim,
    validate_matrix,
)

from dissimjl.evaluate import (
    ErrorStats,
    PqBoundCheck,
    _band_tiles,
    relative_error_stats,
    validate_power_residual,
    validate_pq_bound,
)

from conftest import grid_hops, interval_matrices, random_hollow


def test_every_exported_name_resolves():
    missing = [name for name in dissimjl.__all__ if not hasattr(dissimjl, name)]
    assert missing == []


@pytest.mark.parametrize("method", METHODS)
def test_coords_match_route_branch(method):
    D = gen_simplex(SimplexSpec(30, seed=1))
    res = run_projection(D, method, ProjectionConfig(seed=3))
    if method == "jl-pq":
        expected = np.hstack([res.projected.pos_coords, res.projected.neg_coords])
    elif method == "jl-power":
        expected = res.projected.centers
    else:
        expected = res.projected
    assert np.array_equal(res.coords, expected)
    assert res.coords.shape[0] == 30


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("D", [
    gen_simplex(SimplexSpec(300, seed=0)),
    gen_balls(BallSpec(300, seed=1)),
], ids=["simplex", "balls"])
def test_jl_projects_the_signs_discarded_coords_as_one_part(D):
    # jl is project's one-part case: the plain rows of the classical map
    # of both parts side by side, drawn from the run's seed alone
    config = ProjectionConfig(seed=7)
    emb = embed_pq(decompose(center_gram(D)))
    m = target_dim(D.n, config)
    expected = emb.coords @ gaussian_map(m, emb.p + emb.q, config.seed).T
    projected = run_projection(D, "jl", config).projected
    assert type(projected) is np.ndarray
    assert projected.tobytes() == expected.tobytes()
    assert projected.shape == (D.n, m)


class TestStagesTheBenchmarkReads:
    """perfbench/run.py (roadmap_lines) reads the spans core.decompose,
    projection.reconstruct and evaluate.validate_pq_bound with no default,
    so a route that stops calling one of them through pipeline crashes the
    traced benchmark.  These tests fail first."""

    SPANS = {
        "decompose": "core.decompose",
        "reconstruct": "projection.reconstruct",
        "validate_pq_bound": "evaluate.validate_pq_bound",
    }

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {}
        for name in self.SPANS:
            real = getattr(pipeline, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counting)
        return counts

    def test_span_names(self):
        for name, span in self.SPANS.items():
            fn = getattr(pipeline, name)
            assert f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}" == span

    @pytest.mark.parametrize("method", ["jl", "jl-pq"])
    def test_stages_run_once(self, calls, method):
        run_projection(gen_simplex(SimplexSpec(30, seed=1)), method)
        expected = {"decompose": 1, "reconstruct": 1}
        if method == "jl-pq":
            expected["validate_pq_bound"] = 1
        assert calls == expected


@pytest.mark.parametrize("D", [
    gen_simplex(SimplexSpec(50, seed=2)).entries,
    gen_balls(BallSpec(50, seed=2)).entries,
], ids=["simplex", "balls"])
def test_scaling_the_input_scales_every_tolerance(D):
    # reconstructions are not compared: simplex has degenerate eigenspaces,
    # which the solver may rotate differently at another scale
    base = run_projection(D, "jl-power")
    ref = base.decomposition
    cost = relational_kmeans(D, 3).cost
    for c in (1e-12, 1e-6, 1e6, 1e12):
        res = run_projection(c * D, "jl-power")
        dec = res.decomposition
        assert (dec.p, dec.q, dec.zero_rank) == (ref.p, ref.q, ref.zero_rank)
        assert_allclose(dec.tau / c, ref.tau, rtol=1e-9)
        assert_allclose(res.representation.radius / math.sqrt(c),
                        base.representation.radius, rtol=1e-9)
        assert_allclose(relational_kmeans(c * D, 3).cost / c, cost, rtol=1e-9)



@pytest.mark.one_blas_thread
@pytest.mark.parametrize("method", METHODS)
def test_view_and_copy_of_the_input_give_the_same_run(method):
    # a canonical array is validated as a view, its Fortran-order copy
    # as a C-ordered copy: every later stage reads the same bits
    for D in (gen_simplex(SimplexSpec(200, seed=0)), gen_balls(BallSpec(200, seed=1)),
              grid_hops(8)):
        view = run_projection(D.entries, method)
        copy = run_projection(np.asfortranarray(D.entries), method)
        assert np.shares_memory(view.matrix.entries, D.entries)
        assert not np.shares_memory(copy.matrix.entries, D.entries)
        assert view.reconstructed.tobytes() == copy.reconstructed.tobytes()
        assert report_dict(view) == report_dict(copy)


@pytest.mark.parametrize("method", ["jl", "jl-pq"])
def test_radius_override_off_the_power_route_is_a_data_error(method):
    # only jl-power has a radius to override
    D = gen_simplex(SimplexSpec(30, seed=1))
    with pytest.raises(DissimilarityError, match=f"jl-power only, not {method}$"):
        run_projection(D, method, radius_override=3.0)


def test_unknown_method_is_a_data_error_naming_every_method():
    with pytest.raises(DissimilarityError, match="unknown method 'bogus'") as err:
        run_projection(gen_simplex(SimplexSpec(6, seed=0)), "bogus")
    assert all(method in str(err.value) for method in METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_target_dimension_is_checked_before_any_eigendecomposition(method, monkeypatch):
    # centering or either builder, if reached, would fail on calling None
    for stage in ("center_gram", "decompose", "decompose_power"):
        monkeypatch.setattr(pipeline, stage, None)
    config = ProjectionConfig(epsilon=1e-9)
    with pytest.raises(DissimilarityError, match="target dimension"):
        run_projection(gen_simplex(SimplexSpec(6, seed=0)), method, config)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("D", [
    # the CLI tests' zeros_csv (most pairs exactly 0) and simplex_csv
    gen_balls(BallSpec(14, dim=2, radius_min=0.8, radius_max=1.6, seed=2)),
    gen_simplex(SimplexSpec(12, seed=1)),
], ids=["zeros", "simplex"])
def test_d_scored_against_itself_is_exact(D, method):
    # the scoring folds on D-hat = D, which no representation produces: an
    # exact-zero oracle of the checks and the stats, on every route
    run = pipeline._project(D, method)
    epsilon = run.config.epsilon
    bound = 4.0 * epsilon * run.representation.radius**2 if method == "jl-power" else None

    def tiles():
        return _band_tiles(method, D, D.entries, epsilon, run.embedding, bound)

    zeros = int(np.count_nonzero(np.triu(D.entries == 0.0, 1)))
    assert (zeros > 0) == (D.n == 14)
    assert not any(columns["violated"].any() for *_, columns in tiles())
    if method == "jl-pq":
        assert validate_pq_bound(tiles()) == PqBoundCheck(0.0, zeros)
    elif method == "jl-power":
        check = validate_power_residual(tiles(), bound)
        assert (check.max_residual, check.fraction_within) == (0.0, 1.0)
    assert relative_error_stats(D, D.entries) == ErrorStats(0.0, 0.0, 0.0, zeros)


@given(kind=st.sampled_from(["hollow", "simplex", "balls"]),
       n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_row_order_keeps_signature_and_exactness(kind, n, seed):
    # sketches are a new draw under permutation (eigenvector order and
    # signs), but the signature and both exact representations are not
    if kind == "hollow":
        D = random_hollow(np.random.default_rng(seed), n)
    elif kind == "simplex":
        D = as_matrix(gen_simplex(SimplexSpec(n, seed=seed)))
    else:
        D = as_matrix(gen_balls(BallSpec(n, seed=seed)))
    perm = np.random.default_rng(seed + 1).permutation(n)
    P = D[np.ix_(perm, perm)]
    base = decompose(center_gram(validate_matrix(D)))
    dec = decompose(center_gram(validate_matrix(P)))
    assert (dec.p, dec.q, dec.zero_rank) == (base.p, base.q, base.zero_rank)
    # criteria 1-2's 1e-6, relative to max |D|
    tol = 1e-6 * np.abs(D).max()
    assert np.abs(interval_matrices(embed_pq(dec))[0] - P).max() <= tol
    _, rep = decompose_power(center_gram(validate_matrix(P)))
    assert np.abs(reconstruct(rep) - P).max() <= tol


def test_centering_overflow_is_numerical_error():
    # every entry is finite, so validation passes, but the row sums of the
    # centering overflow and B fills with inf and nan; numpy must not warn
    D = as_matrix(gen_balls(BallSpec(60, seed=1))) * 1e306
    assert np.all(np.isfinite(D))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in METHODS:
            with pytest.raises(NumericalError, match="not finite"):
                run_projection(D, method)
        with pytest.raises(NumericalError, match="not finite"):
            relational_kmeans(D, 3)
