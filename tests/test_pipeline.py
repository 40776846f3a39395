import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dissimjl
from dissimjl import pipeline
from dissimjl import (
    METHODS,
    BallSpec,
    ProjectionConfig,
    SimplexSpec,
    gen_balls,
    gen_simplex,
    relational_kmeans,
    run_projection,
)


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
