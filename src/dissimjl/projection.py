"""Gaussian random projection with signed and power-shifted variants.

The target dimension follows the usual JL budget
m = ceil(c * log2(n) / eps^2).  A Gaussian map is a plain (m, d)
matrix M, and coordinate rows X map to X @ M.T.  Projection maps a
representation to its own type: signed embeddings project their
positive and negative parts with independent maps into separate copies
of R^m; power representations project their centers as the jl route
projects plain rows and carry the radius through unchanged.  Each
projected representation rebuilds its dissimilarities with its
``reconstruct()`` method and exposes its coordinate rows as ``coords``;
plain coordinate rows reconstruct as squared distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DissimilarityError, squared_distances
from .power import PowerRepresentation
from .pqspace import PseudoEuclideanEmbedding

DEFAULT_EPSILON = 0.5
DEFAULT_DIM_CONSTANT = 2.0


@dataclass(frozen=True)
class ProjectionConfig:
    """Distortion budget and seed for a projection run."""

    epsilon: float = DEFAULT_EPSILON
    dim_constant: float = DEFAULT_DIM_CONSTANT
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DissimilarityError(
                f"epsilon must lie in (0, 1), got {self.epsilon}"
            )
        if not (math.isfinite(self.dim_constant) and self.dim_constant > 0.0):
            raise DissimilarityError(
                f"dim constant must be positive and finite, got {self.dim_constant}"
            )
        if self.seed < 0:
            raise DissimilarityError(f"seed must be nonnegative, got {self.seed}")


def target_dim(n: int, config: ProjectionConfig) -> int:
    """ceil(c * log2(n) / eps^2), at least 1.  Needs n >= 2."""
    if n < 2:
        raise DissimilarityError(f"need at least two points, got n = {n}")
    m = math.ceil(config.dim_constant * math.log2(n) / config.epsilon**2)
    return max(1, m)


def gaussian_map(out_dim: int, in_dim: int, seed: int) -> np.ndarray:
    """(out_dim, in_dim) matrix M, entries iid N(0, 1/out_dim).

    Drawn from default_rng(seed); coordinate rows X map to X @ M.T.
    """
    if out_dim < 1:
        raise DissimilarityError(f"output dimension must be >= 1, got {out_dim}")
    if in_dim < 0:
        raise DissimilarityError(f"input dimension must be >= 0, got {in_dim}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / math.sqrt(out_dim), size=(out_dim, in_dim))


def project_classical(coords, config: ProjectionConfig) -> np.ndarray:
    """Project coordinate rows to the target dimension for their count."""
    X = np.asarray(coords, dtype=float)
    m = target_dim(X.shape[0], config)
    return X @ gaussian_map(m, X.shape[1], config.seed).T


def project_pq(
    emb: PseudoEuclideanEmbedding, config: ProjectionConfig
) -> PseudoEuclideanEmbedding:
    """Project both signature parts with independent maps.

    The positive part uses the configured seed, the negative part
    seed + 1; each lands in its own copy of the target dimension so the
    signed interval form survives.  An empty part stays empty.
    """
    m = target_dim(emb.n, config)
    if emb.p > 0:
        pos = emb.pos_coords @ gaussian_map(m, emb.p, config.seed).T
    else:
        pos = np.zeros((emb.n, 0))
    if emb.q > 0:
        neg = emb.neg_coords @ gaussian_map(m, emb.q, config.seed + 1).T
    else:
        neg = np.zeros((emb.n, 0))
    return PseudoEuclideanEmbedding(pos, neg)


def project_power(
    rep: PowerRepresentation, config: ProjectionConfig
) -> PowerRepresentation:
    """Project the centers; the common radius is not touched."""
    return PowerRepresentation(project_classical(rep.centers, config), rep.radius)


def reconstruct(projected) -> np.ndarray:
    """Dissimilarity matrix induced by a projection, symmetric and hollow.

    Plain coordinate rows (the jl route) give squared Euclidean
    distances; a representation gives its own ``reconstruct()``.
    """
    # perfbench/run.py times this stage by name on the jl and jl-pq routes
    if isinstance(projected, np.ndarray):
        return squared_distances(projected)
    return projected.reconstruct()
