"""One representation (pos, neg, radius) for both of the paper's constructions.

Points live in R^(p+q) with the indefinite form
<u, v> = sum_1^p u_i v_i - sum_{p+1}^{p+q} u_i v_i, each with a ball of
one common radius r, and a pair's value is P - Q - 4r^2.  The embedding
of a Gram decomposition (:func:`embed_pq`, r = 0) reproduces any
symmetric hollow matrix as signed squared intervals P - Q; the power
representation (:func:`~dissimjl.power.decompose_power`, q = 0)
reproduces it as power distances P - 4r^2.  The per-pair distortion
factor (P + Q) / |D|, Euclidean over signed interval, is a column of
evaluate's jl-pq band pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DissimilarityError, GramDecomposition


@dataclass(frozen=True)
class PseudoEuclideanEmbedding:
    """Point coordinates split into positive and negative signature parts,
    and one common nonnegative radius.

    Row i of each block holds point i.  A pair's value is
    ||dx_pos||^2 - ||dx_neg||^2 - 4 radius^2 and may be negative; the
    Euclidean interval is the first two terms with a plus.
    """

    pos_coords: np.ndarray
    neg_coords: np.ndarray
    radius: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise DissimilarityError(
                f"radius must be nonnegative and finite, got {self.radius}"
            )

    @property
    def n(self) -> int:
        return self.pos_coords.shape[0]

    @property
    def p(self) -> int:
        return self.pos_coords.shape[1]

    @property
    def q(self) -> int:
        return self.neg_coords.shape[1]

    @property
    def centers(self) -> np.ndarray:
        """The power route's name for the positive part: the ball centers."""
        return self.pos_coords

    @property
    def coords(self) -> np.ndarray:
        """Positive and negative coordinates side by side, signs discarded.

        This is the |lambda|-scaled classical embedding; treating it as
        Euclidean is the baseline the signed and power routes are
        measured against.
        """
        return np.hstack([self.pos_coords, self.neg_coords])


def embed_pq(dec: GramDecomposition) -> PseudoEuclideanEmbedding:
    """Coordinates of the signature parts of a decomposition.

    The decomposition's factors (P, N) are wrapped as they are, with no
    copy: sqrt(|lambda_k|) * U[:, k] split by eigenvalue sign on the full
    branch, exactly p positive and q negative coordinates; on a slice, a
    pivoted Cholesky factor of the larger part, which may be one column
    wider than its count, and the smaller part's scaled eigenvectors,
    both in B's own buffer where they fit.  Either is exact to rounding,
    and one is the other rotated within each part, which a Gaussian map
    cannot tell apart.

    Args:
        dec: decomposition of the centered Gram matrix.

    Returns:
        PseudoEuclideanEmbedding with radius 0 whose signed intervals
        reproduce the dissimilarity matrix behind ``dec``.
    """
    if dec.factors is None:
        raise DissimilarityError("the decomposition holds no factors")
    return PseudoEuclideanEmbedding(*dec.factors)


def norm_ratio_sample(p: int, q: int, trials: int, seed: int = 0) -> np.ndarray:
    """Sample the ratio ||v||_E^2 / ||v||_pq^2 over uniform unit directions.

    Directions are standard Gaussians in R^(p+q) normalized to the unit
    sphere.  For q < p the ratio concentrates near (p + q) / (p - q);
    individual samples can still be arbitrarily large, or infinite on
    the null cone.  For p == q there is no finite concentration point
    and a RuntimeWarning is issued.

    Args:
        p: positive-signature dimension, >= 0.
        q: negative-signature dimension, >= 0; p + q >= 1.
        trials: number of samples, >= 1.
        seed: generator seed.

    Returns:
        Array of ``trials`` ratio samples (may contain +-inf).
    """
    if p < 0 or q < 0 or p + q < 1:
        raise DissimilarityError(f"need p, q >= 0 with p + q >= 1, got ({p}, {q})")
    if trials < 1:
        raise DissimilarityError(f"trials must be >= 1, got {trials}")
    if p == q:
        warnings.warn(
            "p == q: the norm ratio has no finite concentration point",
            RuntimeWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((trials, p + q))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sq = v * v
    signed = sq[:, :p].sum(axis=1) - sq[:, p:].sum(axis=1)
    with np.errstate(divide="ignore"):
        return sq.sum(axis=1) / signed
