"""End-to-end projection runs shared by the command line and tests."""

from __future__ import annotations

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
    _check,
    _slack,
    _tally,
    relative_error_stats,
    validate_power_residual,
    validate_pq_bound,
)
from .power import PowerRepresentation, decompose_power
from .projection import (
    ProjectionConfig,
    project_classical,
    project_pq,
    project_power,
    reconstruct,
    target_dim,
)
from .pqspace import PseudoEuclideanEmbedding, embed_pq

METHODS = ("jl", "jl-pq", "jl-power")


@dataclass(frozen=True)
class RunResult:
    """Everything a projection run produced.

    A run that is not scored (``_project``) has no reconstructed, stats
    or checks: they are None.
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
    representation: PowerRepresentation | None = None
    pq_check: PqBoundCheck | None = None
    power_check: PowerResidualCheck | None = None

    @property
    def coords(self) -> np.ndarray:
        """Projected coordinate rows, the input k-means clusters on."""
        if self.method == "jl":
            return self.projected
        return self.projected.coords


def _with_scores(result: RunResult, Dhat, stats, check) -> RunResult:
    """result with reconstruction Dhat, its stats and the route's check."""
    return replace(
        result,
        reconstructed=Dhat,
        stats=stats,
        pq_check=check if result.method == "jl-pq" else None,
        power_check=check if result.method == "jl-power" else None,
    )


def _scored(result: RunResult, Dhat) -> RunResult:
    """result with reconstruction Dhat, its stats and bound check redone."""
    D, epsilon = result.matrix, result.config.epsilon
    check = None
    if result.method == "jl-pq":
        check = validate_pq_bound(D, result.embedding, Dhat, epsilon)
    elif result.method == "jl-power":
        check = validate_power_residual(
            D, result.representation.radius, Dhat, epsilon
        )
    return _with_scores(result, Dhat, relative_error_stats(D, Dhat), check)


def _scored_pass(result: RunResult, Dhat, consume) -> RunResult:
    """result scored on Dhat as by ``_scored``, from a band pass consume reads.

    consume is given the route's band tiles (see ``_band_tiles``) and must
    read them to the end, dropping each tile before it asks for the next.
    Every tile is tallied for the route's check on its way through, so a
    reader of the pass's pair columns and the check share one pass, which
    holds one tile at a time.
    """
    D, epsilon, method = result.matrix, result.config.epsilon, result.method
    bound = None
    if method == "jl-power":
        bound = _slack(epsilon, result.representation.radius)
    tallies = []

    def tallied():
        for tile in _band_tiles(
            method, D, Dhat, epsilon, emb=result.embedding, bound=bound
        ):
            tallies.append(_tally(method, tile[-1]))
            yield tile
            del tile  # hold no tile while the pass forms the next

    consume(tallied())
    stats = relative_error_stats(D, Dhat)
    return _with_scores(result, Dhat, stats, _check(method, tallies, bound))


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
    if config is None:
        config = ProjectionConfig()
    Dm = D if isinstance(D, DissimilarityMatrix) else validate_matrix(D)
    embedding = None
    representation = None
    if method == "jl-power":
        dec, representation = decompose_power(center_gram(Dm), radius_override)
    else:
        dec = decompose(center_gram(Dm))
        embedding = embed_pq(dec)
    # the representation copied all the run reads of the eigenvectors
    dec = replace(dec, eigenvectors=None)
    if method == "jl-power":
        projected = project_power(representation, config)
    elif method == "jl":
        projected = project_classical(embedding.coords, config)
    else:
        projected = project_pq(embedding, config)
    return RunResult(
        method=method,
        config=config,
        matrix=Dm,
        decomposition=dec,
        out_dim=target_dim(Dm.n, config),
        projected=projected,
        reconstructed=None,
        stats=None,
        embedding=embedding,
        representation=representation,
    )


def run_projection(
    D,
    method: str,
    config: ProjectionConfig | None = None,
    radius_override: float | None = None,
) -> RunResult:
    """Validate, embed, project, reconstruct, and score one matrix.

    method is one of "jl" (classical projection of the signs-discarded
    embedding), "jl-pq" (independent projections of the signature
    parts), or "jl-power" (projection of power-representation centers).
    radius_override replaces the default radius on the power route,
    which sits just above the minimum (see ``decompose_power``); values
    below the minimum leave the shifted matrix non-Euclidean, which is a
    data error.  The result's decomposition keeps the spectrum only: its
    eigenvectors are dropped once the representation is built.

    This is ``_project`` followed by ``_scored`` on the reconstruction.
    The command line runs the parts it reports: ``validate`` scores in
    the one band pass that also writes its pair rows
    (``_scored_pass``), and ``kmeans`` scores nothing.
    """
    result = _project(D, method, config, radius_override)
    return _scored(result, reconstruct(result.projected))


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
