import argparse
import contextlib
import gzip
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import jsonschema

import dissimjl
from dissimjl import (
    DEFAULT_DIM_CONSTANT,
    DEFAULT_EPSILON,
    BallSpec,
    ProjectionConfig,
    SimplexSpec,
    as_matrix,
    center_gram,
    decompose,
    embed_pq,
    gen_balls,
    gen_simplex,
    kmeans_projected,
    reconstruct,
    relational_kmeans,
    report_dict,
    run_projection,
    squared_distances,
    target_dim,
    validate_matrix,
)
from dissimjl import cli, core, evaluate, projection
from dissimjl.cli import main, read_matrix, write_matrix

from conftest import calls, grid_hops, ref_power_residual, ref_pq_bound

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"
METHODS = ["jl", "jl-pq", "jl-power"]


def subprocess_env():
    """Environment whose PYTHONPATH finds the dissimjl these tests import."""
    src = str(Path(dissimjl.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        loaded = json.load(fh)
    jsonschema.Draft202012Validator.check_schema(loaded)
    return loaded


@pytest.fixture()
def simplex_csv(tmp_path):
    path = tmp_path / "simplex.csv"
    assert main(["gen", "simplex", "--n", "12", "--seed", "1",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def blobs_csv(tmp_path):
    rng = np.random.default_rng(3)
    X = np.vstack([
        rng.standard_normal((10, 2)),
        rng.standard_normal((10, 2)) + np.array([9.0, 0.0]),
    ])
    path = tmp_path / "blobs.csv"
    write_matrix(str(path), squared_distances(X))
    return str(path)


@pytest.fixture()
def zeros_csv(tmp_path):
    # overlapping balls: most off-diagonal entries are exactly 0, which
    # puts inf, -inf and nan into the ratio column
    path = tmp_path / "zeros.csv"
    assert main(["gen", "ball", "--n", "14", "--dim", "2", "--rmin", "0.8",
                 "--rmax", "1.6", "--seed", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def twin_simplex_csv(tmp_path):
    # a simplex of 100 points whose point 2 is a twin of point 1 (D_12 = 0):
    # p = 8 of n slices, and the smaller part's twin rows coincide, so the
    # one-part P + Q of the twin pair is 0, where whole products of both
    # parts give 4.5e-13 at 2 BLAS threads
    path = tmp_path / "twin.csv"
    A = gen_simplex(SimplexSpec(100, seed=2)).entries.copy()
    A[2], A[:, 2] = A[1], A[:, 1]
    A[2, 2] = 0.0
    write_matrix(str(path), A)
    return str(path)


@pytest.fixture()
def negated_csv(tmp_path):
    # negated squared distances of seeded points: no positive part (p = 0)
    path = tmp_path / "negated.csv"
    X = np.random.default_rng(5).standard_normal((300, 5))
    write_matrix(str(path), -squared_distances(X))
    return str(path)


def patch_everywhere(monkeypatch, fn, replacement):
    """Rebind fn to replacement in every dissimjl module that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "dissimjl" or name.startswith("dissimjl."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, *fns):
    """Count the calls of each fn, by name, through every binding of it."""
    counts = {fn.__name__: 0 for fn in fns}
    for fn in fns:
        def counting(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        patch_everywhere(monkeypatch, fn, counting)
    return counts


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def reference_pair_csv(method, A, Dhat, emb, radius, epsilon):
    """Pair CSV from the whole-array oracles, one Python loop per pair and
    per-value formatting."""
    lines = [TestValidate.HEADERS[method]]
    iu, ju = np.triu_indices(A.shape[0], 1)
    if method == "jl-pq":
        factor, lower, upper, violated, _ = ref_pq_bound(A, emb, Dhat, epsilon)
    elif method == "jl-power":
        residual = ref_power_residual(A, Dhat, epsilon)
        bound = 4.0 * epsilon * radius**2
    for t, (i, j) in enumerate(zip(iu, ju)):
        d, dh = A[i, j], Dhat[i, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = dh / d
        if method == "jl-pq":
            floats = [factor[t], lower[t], upper[t]]
            flag = violated[t]
        elif method == "jl-power":
            floats = [residual[t], bound]
            flag = residual[t] > bound
        else:
            half = epsilon * abs(d)
            floats = [d - half, d + half]
            flag = abs(dh - d) > half and d != 0
        lines.append(",".join(
            [str(int(i)), str(int(j))]
            + ["%.10g" % float(v) for v in [d, dh, ratio] + floats]
            + [str(int(flag))]
        ))
    return "\n".join(lines) + "\n"


def library_pair_inputs(path, method, identity_debug, seed=0):
    """What `validate --seed seed` scores, rebuilt through the library API:
    the matrix, the reconstruction, the embedding and the power radius.
    Under --identity-debug the reconstruction is that of the unprojected
    representation: the embedding on jl and jl-pq, the centers on jl-power."""
    D = validate_matrix(read_matrix(path))
    config = ProjectionConfig(
        epsilon=DEFAULT_EPSILON, dim_constant=DEFAULT_DIM_CONSTANT, seed=seed
    )
    result = run_projection(D, method, config)
    Dhat = result.reconstructed
    if identity_debug:
        power = method == "jl-power"
        Dhat = reconstruct(result.representation if power else result.embedding)
    radius = None if result.representation is None else result.representation.radius
    return D.entries, Dhat, result.embedding, radius


def validate_csv(path, tmp_path, *flags):
    """Run `validate` in-process and return the pair CSV text."""
    csv_path = tmp_path / "pairs.csv"
    assert main(["validate", path, *flags, "--out-csv", str(csv_path),
                 "--out-report", str(tmp_path / "r.json")]) == 0
    return csv_path.read_text()


class TestGenerate:
    def test_simplex_round_trips_exactly(self, simplex_csv):
        A = read_matrix(simplex_csv)
        expected = gen_simplex(SimplexSpec(12, seed=1)).entries
        assert np.array_equal(A, expected)

    def test_ball_writes_square_matrix(self, tmp_path):
        path = tmp_path / "balls.csv"
        assert main(["gen", "ball", "--n", "15", "--rmin", "0.4",
                     "--rmax", "1.5", "--out", str(path)]) == 0
        A = read_matrix(str(path))
        assert A.shape == (15, 15)
        assert np.array_equal(A, A.T)

    def test_stdout_default(self, capsys):
        assert main(["gen", "simplex", "--n", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert len(lines[0].split(",")) == 4

    def test_bad_size_is_data_error(self):
        assert main(["gen", "simplex", "--n", "1"]) == 2

    def test_written_floats_survive_a_round_trip(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["gen", "ball", "--n", "9", "--out", str(first)]) == 0
        A = read_matrix(str(first))
        write_matrix(str(second), A)
        assert np.array_equal(read_matrix(str(second)), A)


def savetxt_text(X) -> str:
    """The reference write_matrix reproduces byte for byte."""
    out = io.StringIO()
    np.savetxt(out, X, delimiter=",", fmt="%.17g")
    return out.getvalue()


def writer_corpus() -> np.ndarray:
    """Values where a 17-digit formatter built from float arithmetic can
    slip, both signs."""
    tens = [float(f"1e{k}") for k in range(-330, 309)]
    values = tens + [np.nextafter(t, d) for t in tens for d in (0.0, np.inf)]
    values += [1e-4, 1e17, 0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1e308]
    values += [2.0**53 + i for i in range(-64, 65)]
    # 17 nines and more, which round into the next decade or stay just
    # below it: 99999999999999999 is 1e17 and 99999999999999995e-5 is 1e12,
    # while 99999999999999995e-21 prints as 9.9999999999999991e-05
    values += [float(f"{m}e{k}") for m in (99999999999999995, 999999999999999995,
                                           9999999999999999949, 99999999999999999)
               for k in range(-26, 2)]
    # exact decimal ties at the 18th digit: 1e15 + 0.25 prints as ...00.2
    values += [1e15 + i / 4 for i in range(-8, 9)] + [2.0**50 + i / 8 for i in range(16)]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestWriteMatrix:
    """write_matrix formats blocks of values in numpy, and CPython's
    "%.17g" only where the exact fast path does not reach; its bytes are
    np.savetxt's on every input."""

    finite_or_not = st.floats(width=64, allow_nan=True, allow_infinity=True,
                              allow_subnormal=True)
    decades = st.builds(lambda m, k: float(f"{m}e{k}"),
                        st.integers(-10**17, 10**17), st.integers(-340, 310))

    @settings(max_examples=150, deadline=None)
    @given(X=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                     max_side=12),
                        elements=st.one_of(finite_or_not, decades, st.floats(-1e17, 1e17),
                                           st.sampled_from([0.0, -0.0, 1e-4, 1e17]))))
    @example(X=np.zeros((0, 3)))
    @example(X=np.zeros((3, 0)))
    @example(X=np.zeros(0))
    @example(X=np.array([-2.0, -0.0, 0.5, 1e300]))
    def test_stdout_matches_savetxt(self, X):
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.simplefilter("error")  # no log10(0) or invalid cast
            write_matrix(None, X)
        assert out.getvalue() == savetxt_text(X)

    @pytest.mark.parametrize("cols", [1, 9, 5000])
    def test_corpus_matches_savetxt_in_a_file(self, cols, tmp_path):
        values = writer_corpus()
        X = np.resize(values, (-(-values.size // cols), cols))
        path = tmp_path / "corpus.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_matrix(str(path), X)
        assert path.read_text() == savetxt_text(X)

    def test_corpus_matches_savetxt_on_stdout(self, capsys):
        values = writer_corpus()
        write_matrix(None, values)
        assert capsys.readouterr().out == savetxt_text(values)

    @pytest.mark.parametrize("scale", [1.0, 1e306, 1e-9])
    def test_generated_matrices_match_savetxt(self, scale, tmp_path):
        for D in (gen_simplex(SimplexSpec(60, seed=2)), gen_simplex(SimplexSpec(60, alpha=0.0)),
                  gen_balls(BallSpec(60, seed=1)), grid_hops(5)):
            with np.errstate(over="ignore"):  # inf takes the fallback too
                X = as_matrix(D) * scale
            write_matrix(str(tmp_path / "m.csv"), X)
            assert (tmp_path / "m.csv").read_text() == savetxt_text(X)

    def test_compressed_path_as_savetxt_writes_it(self, tmp_path):
        X = gen_balls(BallSpec(20, seed=1)).entries
        write_matrix(str(tmp_path / "m.csv.gz"), X)
        with gzip.open(tmp_path / "m.csv.gz", "rt") as fh:
            assert fh.read() == savetxt_text(X)

    @pytest.mark.parametrize("X", [np.float64(1.0), np.zeros((2, 2, 2))])
    def test_only_one_or_two_dimensions(self, X, tmp_path):
        with pytest.raises(ValueError, match="Expected 1D or 2D array"):
            write_matrix(str(tmp_path / "m.csv"), X)


class TestIngestGraph:
    def test_path_graph(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        assert main(["ingest-graph", str(edges)]) == 0
        A = np.loadtxt(
            capsys.readouterr().out.strip().splitlines(), delimiter=","
        )
        assert_allclose(A, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=0)

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["ingest-graph", str(tmp_path / "none.txt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_line_names_position(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 1 2\n")
        assert main(["ingest-graph", str(edges)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestProject:
    @pytest.mark.parametrize("method", ["jl", "jl-pq", "jl-power"])
    def test_report_matches_schema(self, method, simplex_csv, tmp_path, schema):
        report_path = tmp_path / "report.json"
        assert main(["project", simplex_csv, "--method", method,
                     "--out-report", str(report_path)]) == 0
        report = load_json(str(report_path))
        jsonschema.validate(report, schema)
        assert report["method"] == method
        assert report["n"] == 12
        assert report["m"] == target_dim(12, ProjectionConfig())
        assert report["manifest"]["command"] == "project"
        assert report["manifest"]["inputs"] == [simplex_csv]
        assert report["manifest"]["duration_s"] >= 0.0

    def test_bounds_keys_follow_method(self, simplex_csv, tmp_path):
        reports = {}
        for method in ("jl", "jl-pq", "jl-power"):
            path = tmp_path / f"{method}.json"
            assert main(["project", simplex_csv, "--method", method,
                         "--out-report", str(path)]) == 0
            reports[method] = load_json(str(path))["bounds"]
        assert reports["jl"] == {}
        assert set(reports["jl-pq"]) == {"pq_violation_rate"}
        assert set(reports["jl-power"]) == {
            "power_residual_max", "bound_4er2", "fraction_within", "radius"
        }

    @pytest.mark.one_blas_thread
    @pytest.mark.parametrize("block", [core._BLOCK, 5], ids=["bands256", "bands5"])
    @pytest.mark.parametrize("method", METHODS)
    def test_out_matrix_matches_library_run(
        self, method, block, simplex_csv, tmp_path, monkeypatch
    ):
        # bands of 5 rows put band edges inside the 12 x 12 reconstruction
        monkeypatch.setattr(core, "_BLOCK", block)
        out = tmp_path / "rec.csv"
        assert main(["project", simplex_csv, "--method", method,
                     "--seed", "5", "--out-matrix", str(out),
                     "--out-report", str(tmp_path / "r.json")]) == 0
        result = run_projection(
            read_matrix(simplex_csv), method, ProjectionConfig(seed=5)
        )
        written = read_matrix(str(out))
        assert np.array_equal(written, result.reconstructed)
        assert np.array_equal(written, written.T)
        assert not np.diag(written).any()

    def test_deterministic_across_runs(self, simplex_csv, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            assert main(["project", simplex_csv, "--seed", "2",
                         "--out-report", str(path)]) == 0
        a, b = (load_json(str(p)) for p in paths)
        for report in (a, b):
            report["manifest"].pop("duration_s")
            report["manifest"]["config"].pop("out_report")
        assert a == b

    def test_duration_covers_matrix_write(self, simplex_csv, tmp_path,
                                          monkeypatch):
        real = cli.write_matrix

        def slow_write(path, D):
            time.sleep(0.2)
            real(path, D)

        monkeypatch.setattr(cli, "write_matrix", slow_write)
        report_path = tmp_path / "r.json"
        assert main(["project", simplex_csv, "--out-matrix",
                     str(tmp_path / "rec.csv"),
                     "--out-report", str(report_path)]) == 0
        assert load_json(str(report_path))["manifest"]["duration_s"] >= 0.2

    def test_radius_override_lands_in_report(self, simplex_csv, tmp_path):
        path = tmp_path / "r.json"
        assert main(["project", simplex_csv, "--method", "jl-power",
                     "--radius-override", "50.0",
                     "--out-report", str(path)]) == 0
        assert load_json(str(path))["bounds"]["radius"] == 50.0

    def test_negative_zero_radius_override_is_reported_as_zero(self, tmp_path):
        # Euclidean input, whose minimal radius is 0: -0.0 is a valid
        # override, and the report's radius is +0.0
        path, report = tmp_path / "e.csv", tmp_path / "r.json"
        X = np.random.default_rng(5).standard_normal((20, 5))
        write_matrix(str(path), squared_distances(X))
        assert main(["project", str(path), "--method", "jl-power",
                     "--radius-override", "-0.0", "--out-report", str(report)]) == 0
        text = report.read_text()
        assert '"radius": 0.0' in text and '"radius": -0.0' not in text

    def test_radius_override_below_minimum_is_data_error(
        self, simplex_csv, capsys
    ):
        assert main(["project", simplex_csv, "--method", "jl-power",
                     "--radius-override", "0.001"]) == 2
        assert "not Euclidean" in capsys.readouterr().err


class TestStrictJson:
    def test_nonfinite_numbers_are_written_as_null(self, simplex_csv, tmp_path, schema):
        # RFC 8259 has no NaN or Infinity token: those numbers are null
        body = report_dict(run_projection(read_matrix(simplex_csv), "jl-power"))
        body["stats"].update(max_rel=math.inf, mean_rel=math.inf, median_rel=math.nan)
        body["bounds"]["power_residual_max"] = math.nan
        path = tmp_path / "r.json"
        args = argparse.Namespace(matrix=simplex_csv, out_report=str(path))
        cli._write_report(args, "project", time.monotonic(), body)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(path.read_text(), parse_constant=refuse)
        jsonschema.validate(report, schema)
        assert report["stats"] == {"max_rel": None, "mean_rel": None,
                                   "median_rel": None, "excluded": 0}
        assert report["bounds"]["power_residual_max"] is None
        assert report["bounds"]["radius"] == body["bounds"]["radius"]


class TestValidate:
    HEADERS = {
        "jl": "i,j,dissimilarity,reconstructed,ratio,band_lower,band_upper,violated",
        "jl-pq": ("i,j,dissimilarity,reconstructed,ratio,factor,"
                  "band_lower,band_upper,violated"),
        "jl-power": "i,j,dissimilarity,reconstructed,ratio,residual,bound,violated",
    }

    @pytest.mark.parametrize("method", ["jl", "jl-pq", "jl-power"])
    def test_pair_csv_shape(self, method, simplex_csv, tmp_path):
        csv_path = tmp_path / "pairs.csv"
        assert main(["validate", simplex_csv, "--method", method,
                     "--out-csv", str(csv_path),
                     "--out-report", str(tmp_path / "r.json")]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == self.HEADERS[method]
        assert len(lines) == 1 + 12 * 11 // 2

    def test_report_matches_schema(self, simplex_csv, tmp_path, schema):
        path = tmp_path / "r.json"
        assert main(["validate", simplex_csv, "--method", "jl-pq",
                     "--out-csv", str(tmp_path / "p.csv"),
                     "--out-report", str(path)]) == 0
        report = load_json(str(path))
        jsonschema.validate(report, schema)
        assert report["manifest"]["command"] == "validate"

    def test_sample_caps_row_count(self, simplex_csv, tmp_path):
        csv_path = tmp_path / "pairs.csv"
        assert main(["validate", simplex_csv, "--sample", "5",
                     "--out-csv", str(csv_path),
                     "--out-report", str(tmp_path / "r.json")]) == 0
        assert len(csv_path.read_text().strip().splitlines()) == 6

    def test_sample_larger_than_pairs_keeps_everything(
        self, simplex_csv, tmp_path
    ):
        csv_path = tmp_path / "pairs.csv"
        assert main(["validate", simplex_csv, "--sample", "1000",
                     "--out-csv", str(csv_path),
                     "--out-report", str(tmp_path / "r.json")]) == 0
        assert len(csv_path.read_text().strip().splitlines()) == 67

    def test_sample_must_be_positive(self, simplex_csv, tmp_path):
        assert main(["validate", simplex_csv, "--sample", "0",
                     "--out-csv", str(tmp_path / "p.csv"),
                     "--out-report", str(tmp_path / "r.json")]) == 2

    def test_sample_checked_before_reading(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "no.csv"), "--sample", "0",
                     "--out-report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "--sample must be >= 1" in err
        assert "cannot read" not in err

    def test_identity_debug_reports_zero_violations(self, simplex_csv, tmp_path):
        csv_path = tmp_path / "pairs.csv"
        report_path = tmp_path / "r.json"
        assert main(["validate", simplex_csv, "--method", "jl-pq",
                     "--identity-debug",
                     "--out-csv", str(csv_path),
                     "--out-report", str(report_path)]) == 0
        report = load_json(str(report_path))
        assert report["stats"]["max_rel"] <= 1e-9  # the embedding, exact up to rounding
        assert report["bounds"]["pq_violation_rate"] == 0.0
        rows = csv_path.read_text().strip().splitlines()[1:]
        assert all(row.rsplit(",", 1)[1] == "0" for row in rows)


@pytest.fixture(scope="module")
def identity_inputs(tmp_path_factory):
    """Eight CSV inputs of `validate --identity-debug`, by name: two generated
    ones, simplices at alpha 0.2 and 0 (Euclidean), p = 0 (negated squared
    distances in R^10 and R^5), the 8 x 8 grid (Euclidean, at r = 0) and
    low-rank points in R^5.  All but balls are sliced on jl and jl-pq."""
    root = tmp_path_factory.mktemp("identity")
    paths = {name: str(root / f"{name}.csv") for name in
             ("simplex", "balls", "alpha-0.2", "euclidean", "negated", "negated-points",
              "grid", "points")}
    for name, flags in (("simplex", []), ("balls", []), ("alpha-0.2", ["--alpha", "0.2"]),
                        ("euclidean", ["--alpha", "0"])):
        kind = "ball" if name == "balls" else "simplex"
        assert main(["gen", kind, "--n", "300", *flags, "--out", paths[name]]) == 0
    for name, sign, dim in (("negated", -1.0, 10), ("negated-points", -1.0, 5),
                            ("points", 1.0, 5)):
        X = np.random.default_rng(5).standard_normal((300, dim))
        write_matrix(paths[name], sign * squared_distances(X))
    write_matrix(paths["grid"], grid_hops(8))
    return paths


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ["simplex", "balls", "alpha-0.2", "euclidean", "negated",
                                  "negated-points", "grid", "points"])
def test_identity_debug_scores_the_unprojected_representation(
    name, method, identity_inputs, tmp_path
):
    # the representation reproduces D up to rounding: no relative error
    # above 1e-9, and no violated pair.  jl and jl-pq never flag a pair with
    # D == 0, whose band has zero width: balls' zero pairs show it
    text = validate_csv(identity_inputs[name], tmp_path, "--method", method,
                        "--identity-debug")
    report = load_json(str(tmp_path / "r.json"))
    assert report["stats"]["max_rel"] <= 1e-9
    assert report["bounds"].get("pq_violation_rate", 0.0) == 0.0
    assert report["bounds"].get("fraction_within", 1.0) == 1.0
    assert not [row for row in text.splitlines()[1:] if row.endswith(",1")]


@pytest.mark.parametrize("identity_debug", [False, True])
def test_jl_band_is_the_signed_band_at_factor_one(identity_debug, tmp_path, monkeypatch):
    # squared distances of points in R^5, one point twice: q = 0, so jl-pq's
    # interval P + Q is |D| (factor 1) and both routes project the same rows;
    # their one D == 0 pair is excluded on both, on either branch.  The full
    # branch's sketch moves it off 0; a sliced embedding gives the twin rows
    # the same bits, which no sketch moves apart
    X = np.random.default_rng(5).standard_normal((300, 5))
    X[1] = X[2]
    path = str(tmp_path / "twice.csv")
    write_matrix(path, squared_distances(X))
    flags = ["--identity-debug"] * identity_debug
    for share in (core._SLICE_SHARE, -1.0):  # the slice, then the full branch
        monkeypatch.setattr(core, "_SLICE_SHARE", share)
        jl = validate_csv(path, tmp_path, "--method", "jl", *flags)
        rows = [line.split(",") for line in
                validate_csv(path, tmp_path, "--method", "jl-pq", *flags).splitlines()]
        at = rows[0].index("factor")
        assert {row[at] for row in rows[1:]} == {"1", "inf"}
        zero = [row for row in rows[1:] if float(row[2]) == 0.0]
        assert len(zero) == 1
        assert identity_debug or (float(zero[0][3]) != 0.0) == (share < 0.0)
        assert jl == "".join(",".join(row[:at] + row[at + 1:]) + "\n" for row in rows)


@pytest.mark.parametrize("balls_seed,seed", [(0, 0), (1, 3), (2, 7)])
def test_no_zero_pair_leaves_the_multiplicative_band(balls_seed, seed, tmp_path):
    # jl and jl-pq exclude D == 0 pairs, whose band has zero width, however a
    # sketch moves them; jl-power's additive check still reads them
    path = str(tmp_path / "balls.csv")
    assert main(["gen", "ball", "--n", "300", "--seed", str(balls_seed),
                 "--out", path]) == 0
    for method in METHODS:
        text = validate_csv(path, tmp_path, "--method", method, "--seed", str(seed))
        zero = [row.split(",") for row in text.splitlines()[1:]
                if float(row.split(",")[2]) == 0.0]
        assert any(float(row[3]) != 0.0 for row in zero)  # the sketch moved them
        if method == "jl-power":
            assert text == reference_pair_csv(
                method, *library_pair_inputs(path, method, False, seed), DEFAULT_EPSILON)
        else:
            assert not any(row[-1] == "1" for row in zero)


@pytest.mark.one_blas_thread
class TestPairCsv:
    @pytest.mark.parametrize("identity_debug", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_reference_formatter(
        self, method, identity_debug, zeros_csv, twin_simplex_csv, tmp_path, monkeypatch
    ):
        # on decompose's default branch (full on zeros_csv, the slice on the
        # twin simplex) and on the forced full branch
        flags = ["--method", method] + ["--identity-debug"] * identity_debug
        for path in (zeros_csv, twin_simplex_csv):
            for share in (core._SLICE_SHARE, -1.0):
                monkeypatch.setattr(core, "_SLICE_SHARE", share)
                expected = reference_pair_csv(
                    method,
                    *library_pair_inputs(path, method, identity_debug),
                    DEFAULT_EPSILON,
                )
                assert validate_csv(path, tmp_path, *flags) == expected

    def test_zero_entries_give_every_nonfinite_ratio(self, zeros_csv, tmp_path):
        ratios = set()
        for method in METHODS:
            for flags in ([], ["--identity-debug"]):
                text = validate_csv(zeros_csv, tmp_path, "--method", method, *flags)
                ratios.update(row.split(",")[4] for row in text.splitlines()[1:])
        assert {"inf", "-inf", "nan"} <= ratios

    @pytest.mark.parametrize("identity_debug", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_sample_picks_oracle_rows(
        self, method, identity_debug, zeros_csv, tmp_path
    ):
        flags = ["--method", method, "--seed", "5"]
        flags += ["--identity-debug"] * identity_debug
        full = validate_csv(zeros_csv, tmp_path, *flags).splitlines()
        npairs = 14 * 13 // 2
        picked = np.sort(
            np.random.default_rng(5).choice(npairs, 17, replace=False)
        )
        sampled = validate_csv(zeros_csv, tmp_path, *flags, "--sample", "17")
        expected = [full[0]] + [full[1 + t] for t in picked]
        assert sampled == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("method", METHODS)
    def test_block_size_does_not_change_output(
        self, method, zeros_csv, tmp_path, monkeypatch
    ):
        runs = [["--method", method], ["--method", method, "--sample", "30"]]
        before = [validate_csv(zeros_csv, tmp_path, *flags) for flags in runs]
        monkeypatch.setattr(core, "_TILE_ENTRIES", 3 * 14)
        after = [validate_csv(zeros_csv, tmp_path, *flags) for flags in runs]
        assert after == before

    @pytest.mark.parametrize("data,n", [("zeros_csv", 14), ("simplex_csv", 12)])
    @pytest.mark.parametrize("method", METHODS)
    def test_unsampled_csv_agrees_with_report(
        self, method, data, n, request, tmp_path
    ):
        # zeros has infinite factors and power violations; simplex has pq ones
        text = validate_csv(request.getfixturevalue(data), tmp_path, "--method", method)
        report = load_json(str(tmp_path / "r.json"))
        header, *rows = [line.split(",") for line in text.splitlines()]
        assert len(rows) == n * (n - 1) // 2
        zero = sum(float(row[2]) == 0.0 for row in rows)
        assert zero == report["stats"]["excluded"]
        violated = sum(row[-1] == "1" for row in rows)
        bounds = report["bounds"]
        if method == "jl-pq":
            usable = sum(row[header.index("factor")] != "inf" for row in rows)
            assert violated / usable == bounds["pq_violation_rate"]
        elif method == "jl-power":
            assert (len(rows) - violated) / len(rows) == bounds["fraction_within"]

    def test_unsampled_stdout_matches_file(self, zeros_csv, tmp_path, capsys):
        expected = validate_csv(zeros_csv, tmp_path)
        capsys.readouterr()
        assert main(["validate", zeros_csv,
                     "--out-report", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.one_blas_thread
class TestValidateOnePass:
    """validate scores the run and writes its pair rows from one band pass,
    holding one tile of it at a time."""

    @pytest.fixture()
    def balls_csv(self, tmp_path):
        path = tmp_path / "balls.csv"
        write_matrix(str(path), gen_balls(BallSpec(300, seed=4)))
        return str(path)

    @pytest.mark.parametrize("identity_debug", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_no_tile_is_alive_when_the_next_is_formed(
        self, method, identity_debug, balls_csv, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(core, "_BLOCK", 64)
        monkeypatch.setattr(core, "_TILE_ENTRIES", 4 * 300)
        yielded = []  # weakrefs to each band tile's column arrays
        alive_at_next = []
        band_tiles, upper_rows = evaluate._band_tiles, core._upper_rows

        def watched_tiles(*args, **kwargs):
            for tile in band_tiles(*args, **kwargs):
                yielded.append([weakref.ref(a) for a in tile[-1].values()])
                yield tile
                del tile

        def checked_rows(*args, **kwargs):
            for rows in upper_rows(*args, **kwargs):
                alive_at_next.append(
                    sum(ref() is not None for refs in yielded for ref in refs)
                )
                yield rows

        patch_everywhere(monkeypatch, band_tiles, watched_tiles)
        patch_everywhere(monkeypatch, upper_rows, checked_rows)
        flags = ["--method", method] + ["--identity-debug"] * identity_debug
        validate_csv(balls_csv, tmp_path, *flags, "--sample", "500")
        assert len(yielded) > 50
        assert not any(alive_at_next)

    @pytest.mark.parametrize("identity_debug", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_one_band_pass_and_one_stats_pass(
        self, method, identity_debug, simplex_csv, tmp_path, monkeypatch
    ):
        counts = count_calls(monkeypatch, evaluate._band_tiles,
                             evaluate.relative_error_stats, projection.reconstruct)
        flags = ["--method", method] + ["--identity-debug"] * identity_debug
        validate_csv(simplex_csv, tmp_path, *flags)
        assert counts == {"_band_tiles": 1, "relative_error_stats": 1, "reconstruct": 1}


@pytest.mark.one_blas_thread
class TestValidateMatchesLibrary:
    """validate folds its check over the band tiles its pair row writer
    passes on, the library over its own pass, both through the same
    validate_pq_bound or validate_power_residual; both give one report."""

    @pytest.mark.parametrize("kind", ["balls", "simplex"])
    @pytest.mark.parametrize("method", METHODS)
    def test_stats_and_bounds_match_run_projection(
        self, method, kind, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(core, "_BLOCK", 32)
        monkeypatch.setattr(core, "_TILE_ENTRIES", 4 * 150)
        if kind == "balls":
            source = gen_balls(BallSpec(150, seed=1))
        else:
            source = gen_simplex(SimplexSpec(150, seed=0))
        path = str(tmp_path / f"{kind}.csv")
        write_matrix(path, source)
        library = run_projection(validate_matrix(read_matrix(path)), method)
        if kind == "balls":
            # pairs with D == 0, which jl-pq's check excludes too
            assert library.stats.excluded_pairs > 0
            assert method != "jl-pq" or library.pq_check.excluded_pairs > 0
        validate_csv(path, tmp_path, "--method", method, "--sample", "200")
        report = load_json(str(tmp_path / "r.json"))
        expected = json.loads(json.dumps(report_dict(library)))
        assert report["stats"] == expected["stats"]
        assert report["bounds"] == expected["bounds"]


@pytest.mark.parametrize("method,fold", [
    ("jl", None), ("jl-pq", "validate_pq_bound"), ("jl-power", "validate_power_residual"),
])
def test_both_entry_points_run_the_same_fold(method, fold, simplex_csv, tmp_path, monkeypatch):
    # run_projection and validate, with or without --identity-debug, reach
    # the route's check through one call of the same public fold
    counts = count_calls(monkeypatch, evaluate.validate_pq_bound,
                         evaluate.validate_power_residual)
    expected = {"validate_pq_bound": 0, "validate_power_residual": 0}
    if fold:
        expected[fold] = 1
    run_projection(validate_matrix(read_matrix(simplex_csv)), method)
    assert counts == expected
    for flags in ([], ["--identity-debug"]):
        counts.update(dict.fromkeys(counts, 0))
        validate_csv(simplex_csv, tmp_path, "--method", method, *flags)
        assert counts == expected


class TestKMeans:
    def test_report_fields(self, blobs_csv, tmp_path):
        path = tmp_path / "km.json"
        assert main(["kmeans", blobs_csv, "--k", "2",
                     "--out-report", str(path)]) == 0
        report = load_json(str(path))
        assert report["manifest"]["command"] == "kmeans"
        assert report["k"] == 2
        assert report["n"] == 20
        assert report["original_cost"] > 0.0
        assert report["projected_cost"] > 0.0
        assert_allclose(
            report["cost_ratio"],
            report["projected_cost"] / report["original_cost"],
            atol=1e-12,
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_report_holds_iteration_counts(
        self, method, blobs_csv, tmp_path, monkeypatch
    ):
        D = validate_matrix(read_matrix(blobs_csv))
        run = run_projection(D, method, ProjectionConfig())
        path = tmp_path / "km.json"
        argv = ["kmeans", blobs_csv, "--k", "3", "--method", method,
                "--out-report", str(path)]
        assert main(argv) == 0
        report = load_json(str(path))
        original = relational_kmeans(D, 3)
        projected = kmeans_projected(D, run.projected, 3)
        assert report["original_iterations"] == original.iterations
        assert report["projected_iterations"] == projected.iterations
        assert report["original_cost"] == original.cost
        assert report["projected_cost"] == projected.cost
        # a restart stopped at the sweep cap shows as the cap itself
        monkeypatch.setattr(evaluate, "_MAX_ITER", 1)
        assert main(argv) == 0
        report = load_json(str(path))
        assert report["original_iterations"] == report["projected_iterations"] == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_runs_no_scoring(self, method, blobs_csv, tmp_path, monkeypatch):
        counts = count_calls(
            monkeypatch, projection.reconstruct, evaluate.relative_error_stats,
            evaluate._band_tiles, evaluate.validate_pq_bound,
            evaluate.validate_power_residual,
        )
        assert main(["kmeans", blobs_csv, "--k", "2", "--method", method,
                     "--out-report", str(tmp_path / "km.json")]) == 0
        assert not any(counts.values())

    @pytest.mark.parametrize("method,expected", [
        ("jl", ("slice", "vectors")), ("jl-pq", ("slice", "vectors")),
        ("jl-power", ("eigvalsh", "cholesky")),
    ])
    def test_solver_calls(self, method, expected, simplex_csv, tmp_path, lapack_calls):
        # the run's own LAPACK calls (one sliced decomposition of the simplex,
        # or its spectrum and one Cholesky factor), and nothing more: the
        # baseline clusters D's rows, so no route decomposes D twice
        assert main(["kmeans", simplex_csv, "--k", "3", "--method", method,
                     "--out-report", str(tmp_path / "km.json")]) == 0
        assert lapack_calls == calls(*expected)

    @pytest.mark.parametrize("method", METHODS)
    def test_clustering_forms_no_square_matrix(self, method, tmp_path, monkeypatch):
        # from the projected run on, kmeans holds the sketch, two row-major
        # n x (width + 2) copies of its rows and k x n tables: no n x n
        # matrix, of the sketch or of D, which alone would be twice the bound
        n = 1000
        path = tmp_path / "balls.csv"
        write_matrix(str(path), gen_balls(BallSpec(n, seed=1)))
        real, held = cli.kmeans_projected, []

        def clustering(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "kmeans_projected", clustering)
        tracemalloc.start()
        try:
            assert main(["kmeans", str(path), "--k", "8", "--method", method,
                         "--restarts", "2", "--out-report", str(tmp_path / "km.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert peak - held[0] < 0.5 * n * n * 8

    @pytest.mark.parametrize("method", ["jl", "jl-pq", "jl-power"])
    def test_all_methods_run(self, method, blobs_csv, tmp_path):
        path = tmp_path / "km.json"
        assert main(["kmeans", blobs_csv, "--k", "2", "--method", method,
                     "--out-report", str(path)]) == 0
        assert load_json(str(path))["method"] == method

    def test_baseline_is_the_same_on_every_route(self, simplex_csv, tmp_path):
        # the baseline clusters D itself, whatever the route
        costs = set()
        for method in METHODS:
            path = tmp_path / f"{method}.json"
            assert main(["kmeans", simplex_csv, "--k", "3", "--method", method,
                         "--out-report", str(path)]) == 0
            costs.add(load_json(str(path))["original_cost"])
        assert len(costs) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_no_baseline_without_a_positive_part(self, method, negated_csv, tmp_path):
        # p = 0 input has no positive part; the baseline clusters D's own
        # rows, which needs none, so it is finite here as on any input
        D = validate_matrix(read_matrix(negated_csv))
        assert embed_pq(decompose(center_gram(D))).p == 0
        path = tmp_path / "km.json"
        assert main(["kmeans", negated_csv, "--k", "4", "--method", method,
                     "--out-report", str(path)]) == 0
        report = load_json(str(path))
        original = relational_kmeans(D, 4)
        assert math.isfinite(report["original_cost"])
        assert report["original_cost"] == original.cost
        assert report["original_iterations"] == original.iterations
        assert report["cost_ratio"] == report["projected_cost"] / original.cost
        projected = kmeans_projected(D, run_projection(D, method).projected, 4)
        assert report["projected_cost"] == projected.cost
        assert report["projected_iterations"] == projected.iterations

    def test_single_cluster(self, blobs_csv, tmp_path):
        path = tmp_path / "km.json"
        assert main(["kmeans", blobs_csv, "--k", "1",
                     "--out-report", str(path)]) == 0
        report = load_json(str(path))
        A = read_matrix(blobs_csv)
        expected = A.sum() / (2.0 * 20)
        assert_allclose(report["original_cost"], expected, atol=1e-8)
        assert_allclose(report["projected_cost"], expected, atol=1e-8)

    def test_k_beyond_n_is_data_error(self, blobs_csv):
        assert main(["kmeans", blobs_csv, "--k", "21"]) == 2

    @pytest.mark.parametrize("method", METHODS)
    def test_k_beyond_n_rejected_before_any_decomposition(
        self, method, blobs_csv, monkeypatch, capsys
    ):
        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        for module in (dissimjl.pipeline, dissimjl.power):
            monkeypatch.setattr(module, "decompose", counting(core.decompose))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        assert main(["kmeans", blobs_csv, "--k", "21", "--method", method]) == 2
        assert capsys.readouterr().err == "error: k must lie in [1, 20], got 21\n"
        assert calls == []

    @pytest.mark.parametrize("flags,message", [
        (["--k", "0"], "--k must be >= 1"),
        (["--k", "2", "--restarts", "0"], "--restarts must be >= 1"),
    ])
    def test_counts_checked_before_reading(self, flags, message, tmp_path, capsys):
        assert main(["kmeans", str(tmp_path / "no.csv"), *flags]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "cannot read" not in err

    def test_deterministic(self, blobs_csv, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["kmeans", blobs_csv, "--k", "2", "--seed", "4",
                         "--out-report", str(path)]) == 0
            report = load_json(str(path))
            report["manifest"].pop("duration_s")
            report["manifest"]["config"].pop("out_report")
            reports.append(report)
        assert reports[0] == reports[1]


class TestExitCodes:
    def test_usage_errors_exit_one(self):
        for argv in ([], ["gen", "simplex"], ["project"],
                     ["project", "x.csv", "--method", "nope"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 1

    def test_missing_matrix_file(self, tmp_path, capsys):
        assert main(["project", str(tmp_path / "no.csv")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unparseable_matrix_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,frog\n2,3\n")
        assert main(["project", str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("command", ["project", "validate", "kmeans"])
    def test_matrix_file_without_data(self, command, text, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        argv = [command, str(empty), "--method", "jl"]
        if command == "kmeans":
            argv += ["--k", "2"]
        if command == "validate":  # its pair CSV has stdout
            argv += ["--out-report", str(tmp_path / "r.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's no-data warning included
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {empty} holds no data\n"

    def test_nonsquare_matrix(self, tmp_path):
        bad = tmp_path / "rect.csv"
        write_matrix(str(bad), np.zeros((2, 3)))
        assert main(["project", str(bad)]) == 2

    def test_asymmetric_matrix(self, tmp_path, capsys):
        bad = tmp_path / "asym.csv"
        bad.write_text("0,1\n2,0\n")
        assert main(["project", str(bad)]) == 2
        assert "asymmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHODS)
    def test_centering_overflow_exits_three(self, method, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        write_matrix(str(huge), gen_balls(BallSpec(60, seed=1)).entries * 1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the one error is the exit code
            assert main(["project", str(huge), "--method", method]) == 3
        assert "not finite" in capsys.readouterr().err

    def test_epsilon_out_of_range(self, simplex_csv):
        assert main(["project", simplex_csv, "--epsilon", "1.5"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["project", "{csv}", "--const", "nan"], "dim constant"),
        (["project", "{csv}", "--const", "inf"], "dim constant"),
        (["project", "{csv}", "--seed", "-1"], "seed"),
        (["kmeans", "{csv}", "--k", "2", "--seed", "-1"], "seed"),
        (["gen", "simplex", "--n", "5", "--seed", "-1"], "seed"),
        (["gen", "ball", "--n", "5", "--seed", "-1"], "seed"),
        (["gen", "simplex", "--n", "5", "--alpha", "nan"], "alpha"),
        (["gen", "simplex", "--n", "5", "--alpha", "inf"], "alpha"),
        (["gen", "ball", "--n", "5", "--rmax", "inf"], "radius_max"),
        (["project", "{csv}", "--method", "jl-power", "--radius-override", "nan"],
         "radius"),
        (["project", "{csv}", "--method", "jl-power", "--radius-override", "inf"],
         "radius"),
        # only jl-power has a radius to override
        *[([command, "{csv}", "--method", method, "--radius-override", "3.0"],
           f"a radius override applies to jl-power only, not {method}\n")
          for command in ("project", "validate") for method in ("jl", "jl-pq")],
    ])
    def test_bad_parameter_is_one_line_data_error(
        self, argv, message, simplex_csv, tmp_path, capsys
    ):
        argv = [a.replace("{csv}", simplex_csv) for a in argv]
        if argv[0] == "validate":  # its pair CSV has stdout
            argv += ["--out-report", str(tmp_path / "r.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["validate", "{csv}", "--sample", "3"],
        ["validate", "{csv}", "--out-csv", "-", "--out-report", "-"],
        ["project", "{csv}", "--out-matrix", "-"],
        ["project", "{csv}", "--out-matrix", "-", "--out-report", "-"],
    ])
    def test_two_outputs_on_stdout_are_a_usage_error(self, argv, tmp_path, capsys):
        # the report would follow the pair rows or the matrix on stdout, and
        # stdout would hold no valid JSON: refused before the matrix is read
        argv = [a.replace("{csv}", str(tmp_path / "no.csv")) for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the usage line is the command's own, not the top-level one
        assert captured.err.startswith(f"usage: dissimjl {argv[0]} [-h]")
        assert "cannot share stdout" in captured.err
        assert "cannot read" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["validate", "{csv}", "--sample", "5", "--out-csv", "same.out",
         "--out-report", "same.out"],
        ["validate", "{csv}", "--out-csv", "same.out", "--out-report", "./same.out"],
        ["project", "{csv}", "--out-matrix", "same.out", "--out-report", "same.out"],
        ["project", "{csv}", "--out-matrix", "same.out", "--out-report", "./same.out"],
    ])
    def test_two_outputs_on_one_file_are_a_usage_error(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        # the report would overwrite the pair rows or the matrix: refused
        # before the matrix is read or any file is opened
        monkeypatch.chdir(tmp_path)
        argv = [a.replace("{csv}", "no.csv") for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: dissimjl {argv[0]} [-h]")
        assert f"cannot share the file {tmp_path / 'same.out'}\n" in captured.err
        assert "cannot read" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["validate", "{csv}", "--sample", "3", "--out-report", "/dev/stdout"],
        ["project", "{csv}", "--out-matrix", "/dev/stdout"],
    ])
    def test_an_output_path_to_stdout_is_a_usage_error(self, argv, simplex_csv, tmp_path):
        # /dev/stdout is the file on fd 1: the other output already goes there
        argv = [a.replace("{csv}", simplex_csv) for a in argv]
        sink = tmp_path / "f"
        with open(sink, "w") as out:
            run = subprocess.run([sys.executable, "-m", "dissimjl", *argv], stdout=out,
                                 stderr=subprocess.PIPE, text=True, env=subprocess_env())
        assert run.returncode == 1
        assert run.stderr.startswith(f"usage: dissimjl {argv[0]} [-h]")
        assert "cannot share stdout" in run.stderr
        assert sink.read_text() == ""

    def test_a_hard_link_to_the_pair_csv_is_a_usage_error(self, simplex_csv, tmp_path,
                                                          capsys):
        # two paths, one file: the report would overwrite the pair rows
        rows, report = tmp_path / "a.csv", tmp_path / "b.json"
        rows.touch()
        os.link(rows, report)
        with pytest.raises(SystemExit) as err:
            main(["validate", simplex_csv, "--out-csv", str(rows), "--out-report",
                  str(report)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dissimjl validate [-h]")
        assert f"cannot share the file {report}\n" in captured.err
        assert rows.read_text() == ""

    def test_target_dimension_too_large_to_allocate(self, tmp_path, capsys):
        # m = ceil(2 log2(6) / 1e-14), about 5.2e14 rows of the Gaussian map:
        # numpy refuses its 3.67 PiB at once, so nothing is held; the error
        # names the parameters that set m, in target_dim's words
        path = str(tmp_path / "s6.csv")
        assert main(["gen", "simplex", "--n", "6", "--out", path]) == 0
        for command, extra in (("project", []), ("kmeans", ["--k", "2"]),
                               ("validate", ["--out-report", str(tmp_path / "r.json")])):
            assert main([command, path, "--epsilon", "1e-7", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: epsilon 1e-07 and dim constant 2 give target "
                                    "dimension m = 5.16993e+14, too large to allocate\n")
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["project", "validate", "kmeans"])
    @pytest.mark.parametrize("flags", [
        ["--epsilon", "1e-9"], ["--epsilon", "1e-12"], ["--const", "1e300"],
        ["--epsilon", "1e-300"],
    ])
    def test_target_dimension_numpy_cannot_address(self, command, flags, tmp_path, capsys):
        # m above 2^60 - 1, or not finite: refused before any eigendecomposition
        path = str(tmp_path / "s6.csv")
        assert main(["gen", "simplex", "--n", "6", "--out", path]) == 0
        extra = {"project": [], "validate": ["--out-report", str(tmp_path / "r.json")],
                 "kmeans": ["--k", "2"]}[command]
        assert main([command, path, *flags, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: epsilon ")
        assert "dim constant" in captured.err and "m = " in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_version_action(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip() == "0.1.0"


def test_import_loads_no_scipy():
    probe = "import sys, dissimjl, dissimjl.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_scoring_loads_no_numpy_ma(simplex_csv, tmp_path):
    # np.median and np.unique reach numpy.ma on their first call; the error
    # stats and the k-means cost use neither, so no command pays that import
    sink, rows = str(tmp_path / "out"), str(tmp_path / "rows")  # a report has a file of its own
    probe = (
        "import sys; from dissimjl.cli import main\n"
        "for m in ('jl', 'jl-pq', 'jl-power'):\n"
        f"    assert main(['project', {simplex_csv!r}, '--method', m,"
        f" '--out-report', {sink!r}, '--out-matrix', {rows!r}]) == 0\n"
        f"    assert main(['validate', {simplex_csv!r}, '--method', m,"
        f" '--out-report', {sink!r}, '--out-csv', {rows!r}]) == 0\n"
        f"    assert main(['kmeans', {simplex_csv!r}, '--method', m,"
        f" '--k', '3', '--out-report', {sink!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_console_script_end_to_end(tmp_path):
    # the installed console script when present, else the package's
    # __main__ under this interpreter
    command = ["dissimjl"]
    if shutil.which("dissimjl") is None:
        command = [sys.executable, "-m", "dissimjl"]
    env = subprocess_env()
    matrix = tmp_path / "m.csv"
    gen = subprocess.run(
        [*command, "gen", "simplex", "--n", "10", "--out", str(matrix)],
        capture_output=True, text=True, env=env,
    )
    assert gen.returncode == 0, gen.stderr
    report = subprocess.run(
        [*command, "project", str(matrix), "--method", "jl-power"],
        capture_output=True, text=True, env=env,
    )
    assert report.returncode == 0, report.stderr
    body = json.loads(report.stdout)
    assert body["method"] == "jl-power"
    assert body["bounds"]["radius"] > 0.0
