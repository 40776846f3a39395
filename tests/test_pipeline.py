import numpy as np
import pytest

import dissimjl
from dissimjl import pipeline
from dissimjl import (
    METHODS,
    ProjectionConfig,
    SimplexSpec,
    gen_simplex,
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
