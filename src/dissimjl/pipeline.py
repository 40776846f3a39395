"""End-to-end projection runs shared by the command line and tests."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DissimilarityError,
    DissimilarityMatrix,
    GramDecomposition,
    center_gram,
    decompose,
    validate_matrix,
)
from .evaluate import (
    ErrorStats,
    PowerResidualCheck,
    PqBoundCheck,
    _band_tiles,
    relative_error_stats,
    validate_power_residual,
    validate_pq_bound,
)
from .power import decompose_power
from .projection import ProjectionConfig, _too_large, project, reconstruct, target_dim
from .pqspace import PseudoEuclideanEmbedding, embed_pq

METHODS = ("jl", "jl-pq", "jl-power")


@dataclass(frozen=True)
class RunResult:
    """Everything a projection run produced.

    A run that is not scored (``_project``) has no reconstructed, stats
    or checks: they are None.  The unprojected representation, which
    ``validate --identity-debug`` scores, is ``embedding`` on jl (the signed
    one it discards signs from) and jl-pq, ``representation`` on jl-power.
    """

    method: str
    config: ProjectionConfig
    matrix: DissimilarityMatrix
    decomposition: GramDecomposition
    out_dim: int
    projected: object
    reconstructed: np.ndarray | None
    stats: ErrorStats | None
    embedding: PseudoEuclideanEmbedding | None = None
    representation: PseudoEuclideanEmbedding | None = None
    pq_check: PqBoundCheck | None = None
    power_check: PowerResidualCheck | None = None

    @property
    def coords(self) -> np.ndarray:
        """Projected coordinate rows, both parts side by side, signs discarded."""
        return self.projected if self.method == "jl" else self.projected.coords


def _scored(result: RunResult, rep, through=None) -> RunResult:
    """result scored on rep, a representation of its run: D-hat is
    ``reconstruct(rep)``, and its stats and bound check are redone.

    The check is the route's fold over one band pass (``_band_tiles``):
    ``validate_pq_bound`` on jl-pq, ``validate_power_residual`` on
    jl-power.  through, if given, is a generator that reads the pass and
    yields each tile on, dropping it before it asks for the next; the fold
    then reads through's tiles, so through and the check share one pass
    that holds one tile at a time.  The pass is drained for through, which
    on jl, with no check, reads it alone; without through jl never forms it.
    """
    D, epsilon, method = result.matrix, result.config.epsilon, result.method
    pq, power = method == "jl-pq", method == "jl-power"
    Dhat = reconstruct(rep)
    bound = 4.0 * epsilon * result.representation.radius**2 if power else None
    tiles = _band_tiles(method, D, Dhat, epsilon, result.embedding, bound)
    if through is not None:
        tiles = through(tiles)
    pq_check = validate_pq_bound(tiles) if pq else None
    power_check = validate_power_residual(tiles, bound) if power else None
    if through is not None:
        deque(tiles, maxlen=0)  # reads what no fold read, and keeps no tile
    stats = relative_error_stats(D, Dhat)
    return replace(result, reconstructed=Dhat, stats=stats,
                   pq_check=pq_check, power_check=power_check)


def _project(
    D,
    method: str,
    config: ProjectionConfig | None = None,
    radius_override: float | None = None,
) -> RunResult:
    """Validate, decompose, represent and project one matrix, unscored.

    The arguments are those of :func:`run_projection`; the result has no
    reconstruction, stats or check.  ``kmeans`` reads no more than this.
    """
    if method not in METHODS:
        raise DissimilarityError(
            f"unknown method {method!r}, expected one of {', '.join(METHODS)}"
        )
    if radius_override is not None and method != "jl-power":
        raise DissimilarityError(f"a radius override applies to jl-power only, not {method}")
    if config is None:
        config = ProjectionConfig()
    Dm = D if isinstance(D, DissimilarityMatrix) else validate_matrix(D)
    m = target_dim(Dm.n, config)  # before any eigendecomposition
    power = method == "jl-power"
    if power:
        dec, rep = decompose_power(center_gram(Dm), radius_override)
    else:
        dec = decompose(center_gram(Dm))
        rep = embed_pq(dec)
    # the representation holds all the run reads of the factors
    dec = replace(dec, factors=None)
    try:
        if method == "jl":  # the one part of signs-discarded coordinates, kept as rows
            X = rep.coords
            projected = project(PseudoEuclideanEmbedding(X, X[:, :0]), config).pos_coords
        else:
            projected = project(rep, config)
    except MemoryError as exc:  # an m within target_dim's limit may still not fit
        raise _too_large(config, m, "too large to allocate") from exc
    return RunResult(
        method=method,
        config=config,
        matrix=Dm,
        decomposition=dec,
        out_dim=m,
        projected=projected,
        reconstructed=None,
        stats=None,
        embedding=None if power else rep,
        representation=rep if power else None,
    )


def run_projection(
    D,
    method: str,
    config: ProjectionConfig | None = None,
    radius_override: float | None = None,
) -> RunResult:
    """Validate, embed, project, reconstruct, and score one matrix.

    method is one of "jl" (projection of the signs-discarded embedding as
    one part), "jl-pq" (independent projections of the signature parts),
    or "jl-power" (projection of power-representation centers).
    radius_override replaces the default radius on the power route,
    which sits just above the minimum (see ``decompose_power``); values
    below the minimum leave the shifted matrix non-Euclidean, and jl and
    jl-pq take no radius: either is a data error.  The result's
    decomposition keeps the spectrum only: its factors are dropped once
    the representation is built.

    This is ``_project`` followed by ``_scored`` on the projection.
    The command line runs the parts it reports: ``validate`` scores
    through its pair row writer, so one band pass writes the rows and
    folds into the check, and ``kmeans`` scores nothing.
    """
    result = _project(D, method, config, radius_override)
    return _scored(result, result.projected)


def report_dict(result: RunResult) -> dict:
    """Report body for a finished run, in the shape of the published schema.

    The manifest key is added by the command layer; everything else is
    produced here so library users get the same numbers the CLI emits.
    """
    bounds = {}
    if result.pq_check is not None:
        bounds["pq_violation_rate"] = result.pq_check.violation_rate
    if result.power_check is not None:
        bounds["power_residual_max"] = result.power_check.max_residual
        bounds["bound_4er2"] = result.power_check.bound
        bounds["fraction_within"] = result.power_check.fraction_within
        bounds["radius"] = result.representation.radius
    config, stats = result.config, result.stats
    return {
        "method": result.method,
        "n": result.matrix.n,
        "m": result.out_dim,
        "epsilon": config.epsilon,
        "const": config.dim_constant,
        "seed": config.seed,
        "stats": {
            "max_rel": stats.max_rel,
            "mean_rel": stats.mean_rel,
            "median_rel": stats.median_rel,
            "excluded": stats.excluded_pairs,
        },
        "bounds": bounds,
    }
