"""The benchmark's per-op output checks, run on library and CLI results.

``perfbench/workload.py`` marks a ``sketch`` or ``cli`` op failed when its
result breaks one of these checks, so a change that would fail ops fails
here first.  The module is imported as it is, from its own directory.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from dissimjl import (
    METHODS,
    BallSpec,
    ProjectionConfig,
    SimplexSpec,
    gen_balls,
    gen_simplex,
    run_projection,
    squared_distances,
)
from dissimjl.cli import main, write_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workload")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("D", [
    gen_simplex(SimplexSpec(300, seed=5)).entries,
    gen_balls(BallSpec(300, seed=5)).entries,
    # p = 0: the signed embedding has no positive part
    -squared_distances(np.random.default_rng(5).standard_normal((300, 10))),
], ids=["simplex", "balls", "negated-points"])
def test_library_results_pass_benchmark_checks(workload, D, method):
    res = run_projection(D, method, ProjectionConfig(seed=7))
    assert workload.check_library(D, res, method, 7) == []


@pytest.mark.parametrize("cmd", ["project", "validate", "kmeans"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("D", [
    gen_simplex(SimplexSpec(80, seed=5)),
    gen_balls(BallSpec(80, seed=5)),
], ids=["simplex", "balls"])
def test_cli_outputs_pass_benchmark_checks(workload, D, method, cmd, tmp_path):
    schema = json.loads((workload.ROOT / "docs" / "report-schema.json").read_text())
    path = tmp_path / "input.csv"
    write_matrix(str(path), D)
    outputs = {key: tmp_path / name for key, name in
               (("report", "report.json"), ("matrix", "out.csv"),
                ("pairs", "pairs.csv"))}
    assert main(workload.cli_argv(cmd, method, path, 7, outputs)) == 0
    assert workload.check_cli(cmd, method, 80, outputs, schema) == []
