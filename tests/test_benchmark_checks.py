"""The benchmark's per-op output checks, run on library results.

``perfbench/workload.py`` marks a ``sketch`` op failed when its result
breaks one of these checks, so a change that would fail ops fails here
first.  The module is imported as it is, from its own directory.
"""

import importlib
from pathlib import Path

import pytest

from dissimjl import (
    METHODS,
    BallSpec,
    ProjectionConfig,
    SimplexSpec,
    gen_balls,
    gen_simplex,
    run_projection,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workload")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("D", [
    gen_simplex(SimplexSpec(300, seed=5)).entries,
    gen_balls(BallSpec(300, seed=5)).entries,
], ids=["simplex", "balls"])
def test_library_results_pass_benchmark_checks(workload, D, method):
    res = run_projection(D, method, ProjectionConfig(seed=7))
    assert workload.check_library(D, res, method, 7) == []
