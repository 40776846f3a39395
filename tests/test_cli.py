import json
import os
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jsonschema

import dissimjl
from dissimjl import (
    DEFAULT_DIM_CONSTANT,
    DEFAULT_EPSILON,
    BallSpec,
    ProjectionConfig,
    SimplexSpec,
    center_gram,
    decompose,
    embed_pq,
    gen_balls,
    gen_simplex,
    kmeans_projected,
    report_dict,
    run_projection,
    squared_distances,
    target_dim,
    validate_matrix,
)
from dissimjl import cli, core, evaluate, projection
from dissimjl.cli import main, read_matrix, write_matrix

from conftest import ref_power_residual, ref_pq_bound

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
            flag = abs(dh - d) > half
        lines.append(",".join(
            [str(int(i)), str(int(j))]
            + ["%.10g" % float(v) for v in [d, dh, ratio] + floats]
            + [str(int(flag))]
        ))
    return "\n".join(lines) + "\n"


def library_pair_inputs(path, method, identity_debug):
    """What `validate` scores, rebuilt through the library API: the matrix,
    the reconstruction, the embedding and the power radius."""
    D = validate_matrix(read_matrix(path))
    config = ProjectionConfig(
        epsilon=DEFAULT_EPSILON, dim_constant=DEFAULT_DIM_CONSTANT, seed=0
    )
    result = run_projection(D, method, config)
    Dhat = D.entries if identity_debug else result.reconstructed
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

    def test_radius_override_below_minimum_is_data_error(
        self, simplex_csv, capsys
    ):
        assert main(["project", simplex_csv, "--method", "jl-power",
                     "--radius-override", "0.001"]) == 2
        assert "not Euclidean" in capsys.readouterr().err


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
        assert main(["validate", str(tmp_path / "no.csv"), "--sample", "0"]) == 2
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
        assert report["stats"]["max_rel"] == 0.0
        assert report["bounds"]["pq_violation_rate"] == 0.0
        rows = csv_path.read_text().strip().splitlines()[1:]
        assert all(row.rsplit(",", 1)[1] == "0" for row in rows)


class TestPairCsv:
    @pytest.mark.parametrize("identity_debug", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_reference_formatter(
        self, method, identity_debug, zeros_csv, tmp_path
    ):
        flags = ["--method", method] + ["--identity-debug"] * identity_debug
        expected = reference_pair_csv(
            method,
            *library_pair_inputs(zeros_csv, method, identity_debug),
            DEFAULT_EPSILON,
        )
        assert validate_csv(zeros_csv, tmp_path, *flags) == expected

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
        assert counts == {"_band_tiles": 1, "relative_error_stats": 1,
                          "reconstruct": 0 if identity_debug else 1}


class TestValidateMatchesLibrary:
    """validate folds its checks over the band tiles its pair row writer
    passes on, the library through validate_pq_bound and
    validate_power_residual; both entry points give one report."""

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
            # pairs with D == 0 and, on jl-pq, pairs with infinite factors
            assert library.stats.excluded_pairs > 0
            assert method != "jl-pq" or library.pq_check.excluded_pairs > 0
        validate_csv(path, tmp_path, "--method", method, "--sample", "200")
        report = load_json(str(tmp_path / "r.json"))
        expected = json.loads(json.dumps(report_dict(library)))
        assert report["stats"] == expected["stats"]
        assert report["bounds"] == expected["bounds"]


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
        baseline = embed_pq(decompose(center_gram(D))).pos_coords
        path = tmp_path / "km.json"
        argv = ["kmeans", blobs_csv, "--k", "3", "--method", method,
                "--out-report", str(path)]
        assert main(argv) == 0
        report = load_json(str(path))
        original = kmeans_projected(D, baseline, 3)
        projected = kmeans_projected(D, run.coords, 3)
        assert report["original_iterations"] == original.iterations
        assert report["projected_iterations"] == projected.iterations
        # a restart stopped at the step cap shows as the cap itself
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

    @pytest.mark.parametrize("method", ["jl", "jl-pq", "jl-power"])
    def test_all_methods_run(self, method, blobs_csv, tmp_path):
        path = tmp_path / "km.json"
        assert main(["kmeans", blobs_csv, "--k", "2", "--method", method,
                     "--out-report", str(path)]) == 0
        assert load_json(str(path))["method"] == method

    def test_baseline_is_the_same_on_every_route(self, simplex_csv, tmp_path):
        # the baseline clusters D's signed embedding; jl-power's run holds no
        # eigenvectors, so its command decomposes D for it on its own
        costs = set()
        for method in METHODS:
            path = tmp_path / f"{method}.json"
            assert main(["kmeans", simplex_csv, "--k", "3", "--method", method,
                         "--out-report", str(path)]) == 0
            costs.add(load_json(str(path))["original_cost"])
        assert len(costs) == 1

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
    ])
    def test_bad_parameter_is_one_line_data_error(
        self, argv, message, simplex_csv, capsys
    ):
        assert main([a.replace("{csv}", simplex_csv) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

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
    sink = str(tmp_path / "out")
    probe = (
        "import sys; from dissimjl.cli import main\n"
        "for m in ('jl', 'jl-pq', 'jl-power'):\n"
        f"    assert main(['project', {simplex_csv!r}, '--method', m,"
        f" '--out-report', {sink!r}, '--out-matrix', {sink!r}]) == 0\n"
        f"    assert main(['validate', {simplex_csv!r}, '--method', m,"
        f" '--out-report', {sink!r}, '--out-csv', {sink!r}]) == 0\n"
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
