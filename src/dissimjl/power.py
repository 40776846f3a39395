"""Power representation: Euclidean centers sharing a common radius.

Any symmetric hollow D becomes Euclidean after shifting every
off-diagonal entry by 4r^2 with 2r^2 >= |e_n| (e_n the most negative
Gram eigenvalue).  Points are then balls (center, r) and D is
reproduced by the generalized power distance.  Any centers whose Gram
matrix is B + 2r^2 I do: it differs from Gram(E) = B + 2r^2 C (the
constant-shift embedding of Roth et al., IEEE TPAMI 2003) only along
the all-ones direction, which no center difference sees, so E is never
formed and never decomposed.  :func:`decompose_power` is the one
builder: it needs only B's eigenvalues to choose r (``eigvalsh`` on a
copy), and takes the centers from one Cholesky factorization of
B + 2r^2 I, pivoted where the radius leaves a direction at zero, in B's
own buffer through core's LAPACK wrappers.  It returns a
``PseudoEuclideanEmbedding`` (centers, an empty negative part, r), the
type ``projection.project`` maps.  The same
bilinear form doubles as the closed-form silhouette gap of two isotropic
Gaussian clusters, :func:`silhouette_gaussian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TAU_REL,
    DissimilarityError,
    GramDecomposition,
    _own_square,
    _potrf,
    _pstrf,
    decompose,
)
from .pqspace import PseudoEuclideanEmbedding


@dataclass(frozen=True)
class GaussianCluster:
    """Isotropic Gaussian cluster summarized by its mean and sigma."""

    mean: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise DissimilarityError(f"sigma must be nonnegative, got {self.sigma}")


def power_distance(center1, radius1: float, center2, radius2: float) -> float:
    """Generalized power distance ||c1 - c2||^2 - (r1 + r2)^2.

    For disjoint balls this is the squared internal-tangent length; for
    overlapping balls it goes negative.  Radii must be nonnegative and
    the centers must share a dimension.
    """
    c1 = np.asarray(center1, dtype=float)
    c2 = np.asarray(center2, dtype=float)
    if c1.shape != c2.shape:
        raise DissimilarityError(
            f"center dimensions differ: {c1.shape} vs {c2.shape}"
        )
    if radius1 < 0.0 or radius2 < 0.0:
        raise DissimilarityError(
            f"radii must be nonnegative, got ({radius1}, {radius2})"
        )
    d = c1 - c2
    return float(d @ d - (radius1 + radius2) ** 2)


def power_radius(dec: GramDecomposition) -> float:
    """Smallest common radius making the matrix behind dec Euclidean.

    r = sqrt(max(0, -e_n) / 2) where e_n is the smallest Gram
    eigenvalue; input already Euclidean within tau gives r = 0.
    """
    e_n = float(dec.eigenvalues[-1])
    if e_n >= -dec.tau:
        return 0.0
    return math.sqrt(-e_n / 2.0)


def _shifted_spectrum(dec: GramDecomposition, radius: float):
    """(mu, tol): the Gram eigenvalues mu = lambda + 2r^2 of the centers and
    the tolerance at or below which a direction carries no center length.

    Raises DissimilarityError for a radius that is negative, not finite, or
    below the minimum: some mu clearly negative.
    """
    if not (math.isfinite(radius) and radius >= 0.0):
        raise DissimilarityError(
            f"radius must be nonnegative and finite, got {radius}"
        )
    lam = dec.eigenvalues
    mu = lam + 2.0 * radius**2
    # relative to B's spectrum too, which moves the threshold only for a
    # radius below the minimum: from it up, |mu|_max >= |lam|_max
    tol = DEFAULT_TAU_REL * max(float(np.abs(mu).max()), float(np.abs(lam).max()))
    if mu.min() < -10.0 * tol:
        raise DissimilarityError(
            f"matrix is not Euclidean: Gram eigenvalue {mu.min():.6g} "
            f"below {-10.0 * tol:.6g}"
        )
    return mu, tol


def decompose_power(
    B, radius: float | None = None
) -> tuple[GramDecomposition, PseudoEuclideanEmbedding]:
    """B's decomposition and the power representation of the matrix behind it.

    B is the centered Gram matrix (the output of
    :func:`~dissimjl.core.center_gram`) and is overwritten, under the
    contract of :func:`~dissimjl.core.decompose`: pass ``B.copy()`` to
    keep it.  First B's eigenvalues alone are computed, by
    ``np.linalg.eigvalsh`` on a transient copy of B; they give the
    signature, tau and the radius.  The radius defaults to
    r^2 = -e_n / 2 + m, just above the minimum: the margin
    m = 1e-9 (e_1 - e_n) is the tolerance at which a direction is
    dropped at the minimal radius, and B + 2r^2 I has smallest
    eigenvalue 2m, about twice the tolerance at the new radius.  An
    explicit radius below the minimum raises; a larger one changes only
    the split between center geometry and radius; -0.0 is returned as
    +0.0.  The centers are the Cholesky factor L of B + 2r^2 I, formed
    in B's own buffer with its diagonal shifted in place, and returned
    in it: L L^T is the centers' Gram, so they reproduce D as power
    distances, in n dimensions.

    A radius that leaves B + 2r^2 I singular within the tolerance (r = 0
    on Euclidean input, or an explicit radius at the minimum) has no
    Cholesky factor.  The centers are then the pivoted one (``dpstrf``,
    as in decompose's slice) of B + 2r^2 I + s 11^T / n, s the largest
    mu, in B's buffer, copied out if at most n/2 wide: a column per mu
    above the tolerance, and one for the all-ones direction at r = 0.
    Either way B is factored once, and the decomposition holds no
    factors.  Bit for bit, the spectrum is ``np.linalg.eigvalsh``'s and
    the Cholesky centers are ``np.linalg.cholesky``'s on symmetric B.
    """
    B = _own_square(B)
    dec = decompose(B, vectors=False)
    r = radius
    if r is None:
        r = power_radius(dec)
        if r > 0.0:
            lam = dec.eigenvalues
            r = math.sqrt(r**2 + DEFAULT_TAU_REL * float(lam[0] - lam[-1]))
    mu, tol = _shifted_spectrum(dec, r)
    r = abs(float(r))  # -0.0 passes every check; the report shows +0.0
    n = B.shape[0]
    B.flat[:: n + 1] += 2.0 * r**2
    if mu.min() > tol:
        _potrf(B)
        centers = B
    else:
        # same pair values; the all-ones direction's rounding-level eigenvalue
        # e, left null, would reach the last pivot as n e and be dropped there
        B += mu[0] / n
        centers = _pstrf(B, tol / n)
        if 2 * centers.shape[1] <= n:  # a narrow factor is copied out, so B can go
            centers = centers.copy()
    # the empty negative part is a view of the centers: it allocates no buffer
    return dec, PseudoEuclideanEmbedding(centers, centers[:, :0], r)


def silhouette_gaussian(a: GaussianCluster, b: GaussianCluster) -> float:
    """Closed-form silhouette gap between two isotropic Gaussian clusters.

    Equals power_distance((mean_a, sigma_a), (mean_b, sigma_b)); the
    shared code path keeps the identity exact, bit for bit.
    """
    return power_distance(a.mean, a.sigma, b.mean, b.sigma)

