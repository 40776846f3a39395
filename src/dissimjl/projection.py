"""Gaussian random projection of the one representation (pos, neg, radius).

The target dimension follows the usual JL budget
m = ceil(c * log2(n) / eps^2).  A Gaussian map is a plain (m, d)
matrix M, and coordinate rows X map to X @ M.T.  :func:`project` maps a
``PseudoEuclideanEmbedding``, signed embedding, power representation or
the jl route's one part of signs-discarded coordinates, to the same
type: each part through its own map into a copy of R^m, the radius
unchanged.  :func:`reconstruct` rebuilds the dissimilarities
of any projection as P - Q - 4r^2 from one band pass of Gram products,
the pass ``squared_distances`` runs: P holds the squared distances of
the plain rows or the positive part, Q those of the negative part, and
r is the radius (Q and r are zero where there is none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DissimilarityError, _pair_matrix
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
    """ceil(c * log2(n) / eps^2), at least 1.  Needs n >= 2, and m no
    longer than the longest column of doubles numpy can address."""
    if n < 2:
        raise DissimilarityError(f"need at least two points, got n = {n}")
    eps, c = config.epsilon, config.dim_constant
    m = c * math.log2(n) / eps / eps  # not / eps^2, which underflows for a tiny eps
    if m > np.iinfo(np.intp).max // 8:
        raise _too_large(config, m, "more than numpy can address")
    return max(1, math.ceil(m))


def _too_large(config: ProjectionConfig, m, why: str) -> DissimilarityError:
    """The error for a target dimension m too large, naming what set it."""
    return DissimilarityError(f"epsilon {config.epsilon:g} and dim constant "
                              f"{config.dim_constant:g} give target dimension m = {m:.6g}, {why}")


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


def project(
    rep: PseudoEuclideanEmbedding, config: ProjectionConfig
) -> PseudoEuclideanEmbedding:
    """Project both parts with independent maps; the radius is not touched.

    The positive part uses the configured seed, the negative part
    seed + 1; each lands in its own copy of the target dimension so the
    signed form survives.  An empty part stays empty.
    """
    m = target_dim(rep.n, config)
    pos, neg = (
        X @ gaussian_map(m, X.shape[1], seed).T if X.shape[1] else np.zeros((rep.n, 0))
        for X, seed in ((rep.pos_coords, config.seed), (rep.neg_coords, config.seed + 1))
    )
    return PseudoEuclideanEmbedding(pos, neg, rep.radius)


def reconstruct(projected) -> np.ndarray:
    """Dissimilarity matrix induced by a projection, symmetric and hollow.

    Plain coordinate rows (the jl route) give squared Euclidean
    distances, and a ``PseudoEuclideanEmbedding`` its pair values
    P - Q - 4r^2: signed squared intervals, or power distances of its
    centers.  Every route forms them in one band pass.
    """
    # perfbench/run.py times this stage by name on the jl and jl-pq routes
    if isinstance(projected, PseudoEuclideanEmbedding):
        neg = projected.neg_coords if projected.q else None
        return _pair_matrix(projected.pos_coords, neg, 4.0 * projected.radius**2)
    return _pair_matrix(projected)
