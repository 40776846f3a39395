"""Command line surface: generate, ingest, project, validate, cluster.

Matrices travel as headerless CSV (n rows of n comma-separated values,
written with 17 significant digits so float64 round-trips exactly).
Reports are JSON with an embedded run manifest; per-pair validation
records are CSV for external plotting; a report shares neither stdout
nor a file with another output.  Exit codes: 0 success, 1 usage, 2 data
error (an array too large to allocate included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .core import DissimilarityError, NumericalError, as_matrix, validate_matrix
from .datagen import (
    DEFAULT_ALPHA,
    BallSpec,
    SimplexSpec,
    gen_balls,
    gen_simplex,
    graph_hops,
    parse_edge_list,
)
from .evaluate import DEFAULT_RESTARTS, kmeans_projected, relational_kmeans
from .pipeline import METHODS, _project, _scored, report_dict, run_projection
from .projection import DEFAULT_DIM_CONSTANT, DEFAULT_EPSILON, ProjectionConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 (2 means bad data here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # each command's parser refuses a report sharing stdout or a file
        # with the pair CSV or matrix, with its usage, before any is opened:
        # by path, or by (device, inode) where a path exists or is stdout
        parsed, extras = super().parse_known_args(args, namespace)
        out = vars(parsed)  # validate's pair CSV defaults to stdout; "" is no output
        paths = out.get("out_report", ""), out.get("out_csv", out.get("out_matrix") or "")
        report, rows = ("-" if path in (None, "-") else path and os.path.realpath(path)
                        for path in paths)
        ids = [_file_id(path) for path in paths]
        if report and rows and (report == rows or ids[0] is not None and ids[0] == ids[1]):
            self.error("the report and the pair CSV or matrix cannot share " + (
                "stdout: give --out-report a file" if report == "-" else
                "stdout" if rows == "-" else f"the file {report}"))
        return parsed, extras


def _file_id(path: str | None):
    """(st_dev, st_ino) of the file at path, or of stdout for None or "-";
    None where there is none (yet)."""
    try:
        st = os.fstat(1) if path in (None, "-") else os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def read_matrix(path: str) -> np.ndarray:
    """Load a headerless CSV matrix; a file with no values is a data error."""
    try:
        with warnings.catch_warnings():
            # an empty or blank file: reported below, as an error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            A = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise DissimilarityError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DissimilarityError(f"cannot parse {path} as a CSV matrix: {exc}") from exc
    if A.size == 0:
        raise DissimilarityError(f"{path} holds no data")
    return A


def write_matrix(path: str | None, D) -> None:
    """Write a matrix as CSV, to path or to stdout for None or "-": byte for
    byte ``np.savetxt(path, D, delimiter=",", fmt="%.17g")``, so 17
    significant digits round-trip float64.  A 1-D array is one value per
    line."""
    X = as_matrix(D)
    if X.ndim not in (1, 2):
        raise ValueError(f"Expected 1D or 2D array, got {X.ndim}D array instead")
    if X.ndim == 1:
        X = X[:, None]
    if path is None or path == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:  # as savetxt opens it: a .gz, .bz2 or .xz path is compressed
        open(path, "w").close()
        out = np.lib.npyio.DataSource(os.curdir).open(path, "wt")
    # imported (and compiled) only by the commands that write a matrix
    from ._matrix_text import write_rows

    with out as fh:
        write_rows(fh, X)


def _stream(path: str | None):
    """A text stream to write to: path, or stdout (left open) for None or "-"."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _manifest(command: str, inputs: list[str], args, started: float) -> dict:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command", "kind")
    }
    return {
        "command": command,
        "inputs": inputs,
        "config": config,
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
    }


def _strict(value):
    """value with None (JSON null) for each non-finite float: RFC 8259 JSON
    has no NaN or Infinity token."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_report(args, command: str, started: float, body: dict) -> None:
    """Write the JSON report: the run manifest, then the body's keys."""
    report = {"manifest": _manifest(command, [args.matrix], args, started), **body}
    with _stream(args.out_report) as out:
        out.write(json.dumps(_strict(report), indent=2, allow_nan=False) + "\n")


def cmd_gen_simplex(args) -> int:
    D = gen_simplex(SimplexSpec(n=args.n, alpha=args.alpha, seed=args.seed))
    write_matrix(args.out, D)
    return EXIT_OK


def cmd_gen_ball(args) -> int:
    spec = BallSpec(
        n=args.n,
        dim=args.dim,
        radius_min=args.rmin,
        radius_max=args.rmax,
        seed=args.seed,
    )
    write_matrix(args.out, gen_balls(spec))
    return EXIT_OK


def cmd_ingest_graph(args) -> int:
    try:
        with open(args.edges) as fh:
            edges = parse_edge_list(fh)
    except OSError as exc:
        raise DissimilarityError(f"cannot read {args.edges}: {exc}") from exc
    write_matrix(args.out, graph_hops(edges))
    return EXIT_OK


def _run_from_args(args, run, D=None):
    """run (run_projection, or _project unscored) on the command's matrix,
    read here unless given as D."""
    config = ProjectionConfig(
        epsilon=args.epsilon, dim_constant=args.const, seed=args.seed
    )
    if D is None:
        D = validate_matrix(read_matrix(args.matrix))
    # kmeans has no --radius-override
    radius = getattr(args, "radius_override", None)
    return run(D, args.method, config, radius_override=radius)


def cmd_project(args) -> int:
    started = time.monotonic()
    result = _run_from_args(args, run_projection)
    if args.out_matrix:
        write_matrix(args.out_matrix, result.reconstructed)
    _write_report(args, "project", started, report_dict(result))
    return EXIT_OK


def _pair_rows(tiles, picked, out):
    """Write per-pair plot records of a band pass to out as CSV, and yield
    each tile of the pass on once its rows are written.

    tiles is the run's band pass (evaluate's ``_band_tiles``), and the
    route's check, ``validate_pq_bound`` or ``validate_power_residual``,
    folds the tiles this yields (``_scored``).  Rows
    exist only for the ``picked`` positions of the upper triangle
    (row-major, i < j, sorted).  Each tile's picked positions take their
    i and j from the tile's mask and their values from its columns, and
    are formatted as one block with one row format.  So ``validate
    --sample N`` formats N rows, and the full table is never held as text
    at once.  No tile is held while the pass forms the next.  The header
    comes with the first tile: the columns after ratio are the pass's
    route columns.
    """
    row = None
    for tile in tiles:
        (rows, cols), pairs, tri, columns = tile
        if row is None:
            route = list(columns)[2:]  # after dissimilarity and reconstructed
            out.write(",".join(["i,j,dissimilarity,reconstructed,ratio", *route]) + "\n")
            row = "%d,%d" + ",%.10g" * (len(route) + 2) + ",%d\n"
        lo, hi = np.searchsorted(picked, (pairs.start, pairs.stop))
        at = picked[lo:hi]
        if at.size:
            at = at - pairs.start
            d, dh, *values = [column[at] for column in columns.values()]
            i, j = np.nonzero(tri)
            i, j = i[at] + rows.start, j[at] + cols.start
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = dh / d
            table = np.column_stack((i, j, d, dh, ratio, *values))
            out.write((row * at.size) % tuple(table.ravel().tolist()))
        yield tile
        del tile, columns, tri  # hold no tile while the pass forms the next


def cmd_validate(args) -> int:
    started = time.monotonic()
    if args.sample is not None and args.sample < 1:
        raise DissimilarityError(f"--sample must be >= 1, got {args.sample}")
    result = _run_from_args(args, _project)
    rep = result.projected
    if args.identity_debug:  # the exact unprojected representation: D up to rounding
        rep = result.representation if result.method == "jl-power" else result.embedding
    n = result.matrix.n
    npairs = n * (n - 1) // 2
    if args.sample is not None and args.sample < npairs:
        rng = np.random.default_rng(args.seed)
        picked = np.sort(rng.choice(npairs, size=args.sample, replace=False))
    else:
        picked = np.arange(npairs)
    # one band pass writes the pair rows and scores the run
    with _stream(args.out_csv) as out:
        result = _scored(result, rep, lambda tiles: _pair_rows(tiles, picked, out))
    _write_report(args, "validate", started, report_dict(result))
    return EXIT_OK


def cmd_kmeans(args) -> int:
    started = time.monotonic()
    if args.k < 1:
        raise DissimilarityError(f"--k must be >= 1, got {args.k}")
    if args.restarts < 1:
        raise DissimilarityError(f"--restarts must be >= 1, got {args.restarts}")
    D = validate_matrix(read_matrix(args.matrix))
    if args.k > D.n:  # before any eigendecomposition
        raise DissimilarityError(f"k must lie in [1, {D.n}], got {args.k}")
    sketch = _run_from_args(args, _project, D).projected  # unscored: only the sketch is read
    projected = kmeans_projected(D, sketch, args.k, seed=args.seed, restarts=args.restarts)
    original = relational_kmeans(D, args.k, seed=args.seed, restarts=args.restarts)
    ratio = projected.cost / original.cost if original.cost else None  # none for 0
    _write_report(args, "kmeans", started, {
        "method": args.method,
        "n": D.n,
        "k": args.k,
        "seed": args.seed,
        "restarts": args.restarts,
        "original_cost": original.cost,
        "projected_cost": projected.cost,
        "cost_ratio": ratio,
        "original_iterations": original.iterations,
        "projected_iterations": projected.iterations,
    })
    return EXIT_OK


def _add_projection_flags(parser) -> None:
    parser.add_argument(
        "--method", choices=METHODS, default="jl-pq", help="projection route"
    )
    parser.add_argument(
        "--epsilon", type=float, default=DEFAULT_EPSILON,
        help="distortion budget in (0, 1)",
    )
    parser.add_argument(
        "--const", type=float, default=DEFAULT_DIM_CONSTANT,
        help="dimension constant c in ceil(c log2(n) / eps^2)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed of the projection, of validate's --sample and of k-means",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dissimjl",
        description="Random projection for arbitrary dissimilarity matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", help="generate a synthetic dissimilarity matrix")
    kinds = gen.add_subparsers(dest="kind", required=True, metavar="kind")
    simplex = kinds.add_parser("simplex", help="simplex with a dominant negative block")
    simplex.add_argument("--n", type=int, required=True, help="number of points")
    simplex.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="weight of the negative block; 0 gives a Euclidean simplex",
    )
    simplex.add_argument("--seed", type=int, default=0)
    simplex.add_argument("--out", default=None, help="CSV path (default stdout)")
    simplex.set_defaults(func=cmd_gen_simplex)
    ball = kinds.add_parser("ball", help="clamped gap distances between random balls")
    ball.add_argument("--n", type=int, required=True, help="number of balls")
    ball.add_argument("--dim", type=int, default=10, help="center dimension")
    ball.add_argument("--rmin", type=float, default=0.5, help="smallest radius")
    ball.add_argument("--rmax", type=float, default=2.0, help="largest radius")
    ball.add_argument("--seed", type=int, default=0)
    ball.add_argument("--out", default=None, help="CSV path (default stdout)")
    ball.set_defaults(func=cmd_gen_ball)

    ingest = sub.add_parser(
        "ingest-graph", help="hop-count matrix from an edge list"
    )
    ingest.add_argument("edges", help="edge list file, one 'u v' pair per line")
    ingest.add_argument("--out", default=None, help="CSV path (default stdout)")
    ingest.set_defaults(func=cmd_ingest_graph)

    project = sub.add_parser(
        "project", help="project a matrix and report reconstruction quality"
    )
    project.add_argument("matrix", help="input CSV matrix")
    _add_projection_flags(project)
    project.add_argument("--out-report", default=None, help="JSON path (default stdout)")
    project.add_argument("--out-matrix", default=None, help="reconstructed CSV path")
    project.set_defaults(func=cmd_project)

    validate = sub.add_parser(
        "validate", help="per-pair bound records for plotting, plus a summary"
    )
    validate.add_argument("matrix", help="input CSV matrix")
    _add_projection_flags(validate)
    validate.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="at most N pair rows, sampled with the run seed; every pair when N exceeds them",
    )
    validate.add_argument(
        "--identity-debug", action="store_true",
        help="score the unprojected representation, which reproduces the matrix "
        "up to rounding (a check of the reporting path: no violations expected)",
    )
    validate.add_argument("--out-csv", default=None, help="pair CSV path (default stdout)")
    validate.add_argument("--out-report", default=None, help="JSON path (default stdout)")
    validate.set_defaults(func=cmd_validate)
    for scored in (project, validate):
        scored.add_argument(
            "--radius-override", type=float, default=None,
            help="replace the default power radius (jl-power only); values below "
            "the minimum make the shifted matrix non-Euclidean and fail",
        )

    kmeans = sub.add_parser(
        "kmeans", help="cluster on projected coordinates, score relationally"
    )
    kmeans.add_argument("matrix", help="input CSV matrix")
    kmeans.add_argument("--k", type=int, required=True, help="cluster count")
    _add_projection_flags(kmeans)
    kmeans.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    kmeans.add_argument("--out-report", default=None, help="JSON path (default stdout)")
    kmeans.set_defaults(func=cmd_kmeans)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DissimilarityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, MemoryError) as exc:  # an unreadable file, or a size out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main(sys.argv[1:]))
