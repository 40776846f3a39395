"""Power-distance representation: Euclidean centers sharing a common radius.

Any symmetric hollow D becomes Euclidean after shifting every
off-diagonal entry by 4r^2 with 2r^2 >= |e_n| (e_n the most negative
Gram eigenvalue).  Points are then balls (center, r) and D is
reproduced by the generalized power distance.  Any centers whose Gram
matrix is B + 2r^2 I do: it differs from Gram(E) = B + 2r^2 C (the
constant-shift embedding of Roth et al., IEEE TPAMI 2003) only along
the all-ones direction, which no center difference sees, so E is never
formed and never decomposed.  :func:`decompose_power` takes the centers
from one Cholesky factorization of B + 2r^2 I, and needs only B's
eigenvalues to choose r; :func:`power_representation` reads them off
B's eigenvectors, which a radius that leaves a direction at zero needs.
``projection.reconstruct`` forms the power distances of projected
centers.  The same bilinear form doubles as the closed-form silhouette
gap of two isotropic Gaussian clusters, :func:`silhouette_gaussian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TAU_REL,
    DissimilarityError,
    GramDecomposition,
    NumericalError,
    decompose,
)


@dataclass(frozen=True)
class PowerRepresentation:
    """Ball centers (rows) with one shared nonnegative radius."""

    centers: np.ndarray
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise DissimilarityError(
                f"radius must be nonnegative and finite, got {self.radius}"
            )

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def coords(self) -> np.ndarray:
        return self.centers


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


def power_representation(
    dec: GramDecomposition, radius: float | None = None
) -> PowerRepresentation:
    """Centers plus common radius reproducing the matrix behind dec.

    The matrix D behind dec comes back as power distances.  The radius
    defaults to :func:`power_radius`; an explicit smaller value leaves
    the shifted matrix E = D + 4r^2 (J - I) non-Euclidean and raises, a
    larger one works and changes only the split between center geometry
    and radius.  dec must hold eigenvectors.

    The centers are B's eigenvectors scaled by sqrt(lambda_k + 2r^2),
    dropping the directions where that is within the tolerance of zero.
    Their Gram B + 2r^2 I differs from Gram(E) = B + 2r^2 C by
    2r^2 11^T / n, which no difference e_i - e_j sees; for r > 0 it adds
    the all-ones direction to the span of E's classical scaling.
    """
    if dec.eigenvectors is None:
        raise DissimilarityError("the decomposition holds no eigenvectors")
    if radius is None:
        radius = power_radius(dec)
    mu, tol = _shifted_spectrum(dec, radius)
    keep = mu > tol
    centers = dec.eigenvectors[:, keep]
    centers *= np.sqrt(mu[keep])
    return PowerRepresentation(centers, float(radius))


def decompose_power(
    B, radius: float | None = None
) -> tuple[GramDecomposition, PowerRepresentation]:
    """B's decomposition and the power representation of the matrix behind it.

    B is the centered Gram matrix (the output of
    :func:`~dissimjl.core.center_gram`) and is overwritten.  Only B's
    eigenvalues are computed; they give the signature, tau and the
    radius.  The radius defaults to r^2 = -e_n / 2 + m, just above the
    minimum: the margin m = 1e-9 (e_1 - e_n) is the tolerance at which
    :func:`power_representation` drops a direction at the minimal radius,
    and B + 2r^2 I has smallest eigenvalue 2m, about twice the tolerance
    at the new radius.  The centers are the Cholesky factor L of
    B + 2r^2 I, formed from B with its diagonal shifted in place: L L^T
    is the centers' Gram, so they reproduce D as power distances, in n
    dimensions.  The returned decomposition holds no eigenvectors.

    A radius that leaves B + 2r^2 I singular within the tolerance (r = 0
    on Euclidean input, or an explicit radius at the minimum) has no
    Cholesky factor.  Then B is decomposed again with its eigenvectors,
    and the results are those of :func:`~dissimjl.core.decompose` and
    :func:`power_representation`.
    """
    B = np.asarray(B, dtype=float)
    dec = decompose(B, vectors=False)
    r = radius
    if r is None:
        r = power_radius(dec)
        if r > 0.0:
            lam = dec.eigenvalues
            r = math.sqrt(r**2 + DEFAULT_TAU_REL * float(lam[0] - lam[-1]))
    mu, tol = _shifted_spectrum(dec, r)
    if mu.min() <= tol:
        dec = decompose(B)
        return dec, power_representation(dec, radius)
    B.flat[:: B.shape[0] + 1] += 2.0 * r**2
    try:
        centers = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
    return dec, PowerRepresentation(centers, float(r))


def silhouette_gaussian(a: GaussianCluster, b: GaussianCluster) -> float:
    """Closed-form silhouette gap between two isotropic Gaussian clusters.

    Equals power_distance((mean_a, sigma_a), (mean_b, sigma_b)); the
    shared code path keeps the identity exact, bit for bit.
    """
    return power_distance(a.mean, a.sigma, b.mean, b.sigma)

