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
    NumericalError,
    ProjectionConfig,
    SimplexSpec,
    as_matrix,
    center_gram,
    decompose,
    embed_pq,
    gen_balls,
    gen_simplex,
    power_representation,
    reconstruct,
    relational_kmeans,
    run_projection,
    validate_matrix,
)

from conftest import interval_matrices, random_hollow


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
    assert np.abs(reconstruct(power_representation(dec)) - P).max() <= tol


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
