"""Command line surface: generate, ingest, project, validate, cluster.

Matrices travel as headerless CSV (n rows of n comma-separated values,
written with 17 significant digits so float64 round-trips exactly).
Reports are JSON with an embedded run manifest; per-pair validation
records are CSV for external plotting.  Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import warnings

import numpy as np

from . import __version__
from .core import (
    DissimilarityError,
    NumericalError,
    as_matrix,
    center_gram,
    decompose,
    validate_matrix,
)
from .datagen import (
    DEFAULT_ALPHA,
    BallSpec,
    SimplexSpec,
    gen_balls,
    gen_simplex,
    graph_hops,
    parse_edge_list,
)
from .evaluate import DEFAULT_RESTARTS, kmeans_projected
from .pipeline import METHODS, _project, _scored, report_dict, run_projection
from .projection import (
    DEFAULT_DIM_CONSTANT,
    DEFAULT_EPSILON,
    ProjectionConfig,
    reconstruct,
)
from .pqspace import embed_pq

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 (2 means bad data here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    """Write a matrix as CSV; 17 significant digits round-trip float64."""
    target = sys.stdout if path is None or path == "-" else path
    np.savetxt(target, as_matrix(D), delimiter=",", fmt="%.17g")


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


def _write_report(args, command: str, started: float, body: dict) -> None:
    """Write the JSON report: the run manifest, then the body's keys."""
    report = {"manifest": _manifest(command, [args.matrix], args, started), **body}
    with _stream(args.out_report) as out:
        out.write(json.dumps(report, indent=2) + "\n")


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

    tiles is the run's band pass (evaluate's ``_band_tiles``).  Rows
    exist only for the ``picked`` positions of the upper triangle
    (row-major, i < j, sorted).  Each tile's picked positions take their
    i and j from the tile's rows and their values from its columns, and
    are formatted as one block with one row format.  So ``validate
    --sample N`` formats N rows, and the full table is never held as text
    at once.  No tile is held while the pass forms the next.  The header
    comes with the first tile: the columns after ratio are the pass's
    route columns.
    """
    row = None
    for tile in tiles:
        (rows, cols), pairs, _, columns = tile
        if row is None:
            route = list(columns)[2:]  # after dissimilarity and reconstructed
            out.write(",".join(["i,j,dissimilarity,reconstructed,ratio", *route]) + "\n")
            row = "%d,%d" + ",%.10g" * (len(route) + 2) + ",%d\n"
        lo, hi = np.searchsorted(picked, (pairs.start, pairs.stop))
        at = picked[lo:hi]
        if at.size:
            d, dh, *values = [column[at - pairs.start] for column in columns.values()]
            # row r's pairs (r, r + 1), ... start at position r n - r (r + 1) / 2
            r = np.arange(rows.start, rows.stop)
            starts = r * cols.stop - r * (r + 1) // 2
            i = r[np.searchsorted(starts, at, side="right") - 1]
            j = at - starts[i - rows.start] + i + 1
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = dh / d
            table = np.column_stack((i, j, d, dh, ratio, *values))
            out.write((row * at.size) % tuple(table.ravel().tolist()))
        yield tile
        del tile, columns, _  # hold no tile while the pass forms the next


def cmd_validate(args) -> int:
    started = time.monotonic()
    if args.sample is not None and args.sample < 1:
        raise DissimilarityError(f"--sample must be >= 1, got {args.sample}")
    result = _run_from_args(args, _project)
    if args.identity_debug:
        # bypass the projection: score the matrix against itself so the
        # whole reporting path can be checked for spurious violations
        Dhat = result.matrix.entries
    else:
        Dhat = reconstruct(result.projected)
    n = result.matrix.n
    npairs = n * (n - 1) // 2
    picked = np.arange(npairs)
    if args.sample is not None and args.sample < npairs:
        rng = np.random.default_rng(args.seed)
        picked = np.sort(rng.choice(npairs, size=args.sample, replace=False))
    # one band pass writes the pair rows and scores the run
    with _stream(args.out_csv) as out:
        result = _scored(result, Dhat, lambda tiles: _pair_rows(tiles, picked, out))
    _write_report(args, "validate", started, report_dict(result))
    return EXIT_OK


def cmd_kmeans(args) -> int:
    started = time.monotonic()
    if args.k < 1:
        raise DissimilarityError(f"--k must be >= 1, got {args.k}")
    if args.restarts < 1:
        raise DissimilarityError(f"--restarts must be >= 1, got {args.restarts}")
    D = validate_matrix(read_matrix(args.matrix))

    def cluster(coords):
        return kmeans_projected(D, coords, args.k, seed=args.seed,
                                restarts=args.restarts)

    # the baseline clusters the positive part of D's signed embedding;
    # jl-power's run builds none, so on that route the baseline is
    # decomposed and clustered first, and its eigh buffers are gone
    # before the run's centers exist.  The report reads no reconstruction,
    # stats or check, so the run is not scored.
    if args.method == "jl-power":
        original = cluster(embed_pq(decompose(center_gram(D))).pos_coords)
    result = _run_from_args(args, _project, D)
    if args.method != "jl-power":
        original = cluster(result.embedding.pos_coords)
    projected = cluster(result.coords)
    ratio = None
    if original.cost != 0.0:
        ratio = projected.cost / original.cost
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
        "--sample", type=int, default=None,
        help="emit exactly this many pair rows, sampled with the run seed",
    )
    validate.add_argument(
        "--identity-debug", action="store_true",
        help="score the matrix against itself (pipeline check, zero violations)",
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DissimilarityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main(sys.argv[1:]))
