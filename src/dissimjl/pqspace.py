"""Pseudo-Euclidean embedding with signature (p, q) and its norm ratio.

Points live in R^(p+q) equipped with the indefinite form
<u, v> = sum_1^p u_i v_i - sum_{p+1}^{p+q} u_i v_i.  The embedding built
from a Gram decomposition reproduces any symmetric hollow matrix exactly
as signed squared intervals, which ``projection.reconstruct`` forms as
P - Q for a projected embedding.  The per-pair distortion factor,
Euclidean over signed interval, is a column of the jl-pq band pass in
evaluate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DissimilarityError, GramDecomposition


@dataclass(frozen=True)
class PseudoEuclideanEmbedding:
    """Point coordinates split into positive and negative signature parts.

    Row i of each block holds point i.  The signed squared interval
    between two points is ||dx_pos||^2 - ||dx_neg||^2 and may be
    negative; the Euclidean interval is the same expression with a plus.
    """

    pos_coords: np.ndarray
    neg_coords: np.ndarray

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
    def coords(self) -> np.ndarray:
        """Positive and negative coordinates side by side, signs discarded.

        This is the |lambda|-scaled classical embedding; treating it as
        Euclidean is the baseline the signed and power routes are
        measured against.
        """
        return np.hstack([self.pos_coords, self.neg_coords])


def embed_pq(dec: GramDecomposition) -> PseudoEuclideanEmbedding:
    """Coordinates sqrt(|lambda_k|) * U[:, k], split by eigenvalue sign.

    Columns with |lambda| <= tau are dropped, so the output has exactly
    p positive and q negative coordinates.

    Args:
        dec: decomposition of the centered Gram matrix.

    Returns:
        PseudoEuclideanEmbedding whose signed intervals reproduce the
        dissimilarity matrix behind ``dec``.
    """
    lam, U = dec.eigenvalues, dec.eigenvectors
    if U is None:
        raise DissimilarityError("the decomposition holds no eigenvectors")
    pos = lam > dec.tau
    neg = lam < -dec.tau
    pos_coords = U[:, pos]  # fancy indexing copies, so scale in place
    pos_coords *= np.sqrt(lam[pos])
    neg_coords = U[:, neg]
    neg_coords *= np.sqrt(-lam[neg])
    return PseudoEuclideanEmbedding(pos_coords, neg_coords)


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
