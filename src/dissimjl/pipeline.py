"""End-to-end projection runs shared by the command line and tests."""

from __future__ import annotations

from dataclasses import dataclass

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
    relative_error_stats,
    validate_power_residual,
    validate_pq_bound,
)
from .power import PowerRepresentation, power_representation
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


def signed_coords(emb: PseudoEuclideanEmbedding) -> np.ndarray:
    """Positive and negative coordinates side by side, signs discarded.

    This is the |lambda|-scaled classical embedding; treating it as
    Euclidean is the baseline the signed and power routes are measured
    against.
    """
    return np.hstack([emb.pos_coords, emb.neg_coords])


@dataclass(frozen=True)
class RunResult:
    """Everything a projection run produced."""

    method: str
    config: ProjectionConfig
    matrix: DissimilarityMatrix
    decomposition: GramDecomposition
    out_dim: int
    projected: object
    reconstructed: np.ndarray
    stats: ErrorStats
    embedding: PseudoEuclideanEmbedding | None = None
    representation: PowerRepresentation | None = None
    pq_check: PqBoundCheck | None = None
    power_check: PowerResidualCheck | None = None


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
    radius_override replaces the minimal radius on the power route;
    values below it leave the shifted matrix non-Euclidean, which is a
    data error.
    """
    if method not in METHODS:
        raise DissimilarityError(
            f"unknown method {method!r}, expected one of {', '.join(METHODS)}"
        )
    if config is None:
        config = ProjectionConfig()
    Dm = D if isinstance(D, DissimilarityMatrix) else validate_matrix(D)
    dec = decompose(center_gram(Dm))
    m = target_dim(Dm.n, config)
    embedding = None
    representation = None
    pq_check = None
    power_check = None
    if method == "jl":
        embedding = embed_pq(dec)
        projected = project_classical(signed_coords(embedding), config)
        Dhat = reconstruct(projected)
    elif method == "jl-pq":
        embedding = embed_pq(dec)
        projected = project_pq(embedding, config)
        Dhat = reconstruct(projected)
        pq_check = validate_pq_bound(Dm, embedding, Dhat, config.epsilon)
    else:
        representation = power_representation(Dm, dec, radius_override)
        projected = project_power(representation, config)
        Dhat = reconstruct(projected)
        power_check = validate_power_residual(
            Dm, representation.radius, Dhat, config.epsilon
        )
    stats = relative_error_stats(Dm, Dhat)
    return RunResult(
        method=method,
        config=config,
        matrix=Dm,
        decomposition=dec,
        out_dim=m,
        projected=projected,
        reconstructed=Dhat,
        stats=stats,
        embedding=embedding,
        representation=representation,
        pq_check=pq_check,
        power_check=power_check,
    )


def summary_dict(
    method: str,
    n: int,
    m: int,
    config: ProjectionConfig,
    stats: ErrorStats,
    pq_check: PqBoundCheck | None = None,
    power_check: PowerResidualCheck | None = None,
    radius: float | None = None,
) -> dict:
    """Assemble the report body in the shape of the published schema."""
    bounds = {}
    if pq_check is not None:
        bounds["pq_violation_rate"] = pq_check.violation_rate
    if power_check is not None:
        bounds["power_residual_max"] = power_check.max_residual
        bounds["bound_4er2"] = power_check.bound
        bounds["fraction_within"] = power_check.fraction_within
    if radius is not None:
        bounds["radius"] = radius
    return {
        "method": method,
        "n": n,
        "m": m,
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


def report_dict(result: RunResult) -> dict:
    """Report body for a finished run.

    The manifest key is added by the command layer; everything else is
    produced here so library users get the same numbers the CLI emits.
    """
    radius = None
    if result.representation is not None:
        radius = result.representation.radius
    return summary_dict(
        result.method,
        result.matrix.n,
        result.out_dim,
        result.config,
        result.stats,
        result.pq_check,
        result.power_check,
        radius,
    )
