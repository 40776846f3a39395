"""Distortion statistics, bound checks, and relational clustering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DissimilarityError,
    _gram,
    _symmetric_distances,
    _upper_rows,
    as_matrix,
)
from .pqspace import PseudoEuclideanEmbedding

DEFAULT_RESTARTS = 10


@dataclass(frozen=True)
class ErrorStats:
    """Relative reconstruction error summary over usable pairs."""

    max_rel: float
    mean_rel: float
    median_rel: float
    excluded_pairs: int


def relative_error_stats(D, Dhat) -> ErrorStats:
    """Relative error |D - Dhat| / |D| over off-diagonal nonzero pairs.

    Pairs with D_ij = 0 carry no relative error; they are excluded and
    counted.  Non-finite reconstructed entries push max and mean to
    infinity rather than being dropped.  The errors are computed in row
    tiles of the upper triangle into one whole vector, in
    ``np.triu_indices(n, 1)`` order.  The max and mean read it, and the
    median partitions it in place: ``np.median``'s result without its copy.
    """
    A = as_matrix(D)
    Ah = np.asarray(Dhat, dtype=float)
    n = A.shape[0]
    rel = np.empty(n * (n - 1) // 2)
    used = 0
    for block, _, tri in _upper_rows(n):
        d, dh = A[block][tri], Ah[block][tri]
        mask = d != 0.0
        tile = np.abs(dh[mask] - d[mask]) / np.abs(d[mask])
        rel[used:used + tile.size] = np.where(np.isfinite(tile), tile, np.inf)
        used += tile.size
    excluded = rel.size - used
    if used == 0:
        return ErrorStats(0.0, 0.0, 0.0, excluded)
    rel = rel[:used]
    top, mean = float(rel.max()), float(rel.mean())
    lo, hi = (used - 1) // 2, used // 2  # the middle entry, or the two
    rel.partition((lo, hi))
    return ErrorStats(top, mean, float(rel[lo:hi + 1].mean()), excluded)


def _band_tiles(method, D, Dhat, epsilon, emb=None, bound=None):
    """Each pair's band on one route, in row tiles of the upper triangle.

    Yields (block, pairs, tri, columns) per tile of ``_upper_rows``, where
    columns maps names to arrays over the tile's pairs: "dissimilarity",
    "reconstructed", the route's band and a "violated" flag.

    - jl-pq (emb): the band around D_ij has half-width epsilon times the
      Euclidean interval, epsilon * factor * |D_ij| wherever the factor is
      finite.  Pairs with an infinite factor are "excluded", never
      violated.  The intervals come from the Gram products of the two
      signature parts; no n x n interval matrix is formed.
    - jl-power (bound): the "residual" beyond the multiplicative band,
      max(0, |Dhat_ij - D_ij| - epsilon |D_ij|), against the additive
      slack "bound".
    - jl: the band D_ij -/+ epsilon |D_ij|.
    """
    A = as_matrix(D)
    Ah = np.asarray(Dhat, dtype=float)
    if method == "jl-pq":
        (Gp, sp), (Gq, sq) = _gram(emb.pos_coords), _gram(emb.neg_coords)
    for block, pairs, tri in _upper_rows(A.shape[0]):
        d, dh = A[block][tri], Ah[block][tri]
        columns = {"dissimilarity": d, "reconstructed": dh}
        if method == "jl-pq":
            p = _symmetric_distances(Gp, sp, *block)[tri]
            q = _symmetric_distances(Gq, sq, *block)[tri]
            pqv, euv = p - q, p + q
            safe = np.where(pqv != 0.0, pqv, 1.0)
            factor = np.where(
                pqv != 0.0,
                np.abs(euv / safe),
                np.where(euv == 0.0, 1.0, np.inf),
            )
            half = epsilon * euv
            lower, upper = d - half, d + half
            excluded = ~np.isfinite(factor)
            violated = ((dh < lower) | (dh > upper)) & ~excluded
            columns.update(factor=factor, band_lower=lower, band_upper=upper,
                           violated=violated, excluded=excluded)
        elif method == "jl-power":
            residual = np.maximum(0.0, np.abs(dh - d) - epsilon * np.abs(d))
            columns.update(residual=residual, bound=np.full(d.size, bound),
                           violated=residual > bound)
        else:
            half = epsilon * np.abs(d)
            columns.update(band_lower=d - half, band_upper=d + half,
                           violated=np.abs(dh - d) > half)
        yield block, pairs, tri, columns


@dataclass(frozen=True)
class PqBoundCheck:
    """Summary of the signed route's check against its factor-widened band.

    violation_rate is the share of usable pairs whose reconstruction
    leaves the band; excluded_pairs counts the pairs with an infinite
    distortion factor, which are not usable.
    """

    violation_rate: float
    excluded_pairs: int


def validate_pq_bound(
    D, emb: PseudoEuclideanEmbedding, Dhat, epsilon: float
) -> PqBoundCheck:
    """Check a reconstruction against the factor-widened band of D.

    The band pass is reduced to counts tile by tile.
    """
    violated = excluded = total = 0
    for *_, columns in _band_tiles("jl-pq", D, Dhat, epsilon, emb=emb):
        violated += np.count_nonzero(columns["violated"])
        excluded += np.count_nonzero(columns["excluded"])
        total += columns["excluded"].size
    usable = total - excluded
    rate = float(violated / usable) if usable else 0.0
    return PqBoundCheck(rate, int(excluded))


@dataclass(frozen=True)
class PowerResidualCheck:
    """Summary of the power route's residuals beyond the multiplicative band.

    max_residual is the largest residual (nan if any is nan), and
    fraction_within the share of pairs whose residual is within bound,
    the additive slack 4 epsilon r^2.  Without pairs they are 0 and 1.
    """

    max_residual: float
    fraction_within: float
    bound: float


def validate_power_residual(
    D, radius: float, Dhat, epsilon: float
) -> PowerResidualCheck:
    """Check a power-route reconstruction against the additive slack.

    The residual pass is reduced to a maximum and a count tile by tile.
    """
    bound = 4.0 * epsilon * radius**2
    tops, within, total = [0.0], 0, 0
    for *_, columns in _band_tiles("jl-power", D, Dhat, epsilon, bound=bound):
        residual = columns["residual"]
        tops.append(residual.max(initial=0.0))
        within += np.count_nonzero(residual <= bound)
        total += residual.size
    return PowerResidualCheck(
        float(np.max(tops)), float(within / total) if total else 1.0, bound
    )


@dataclass(frozen=True)
class KMeansResult:
    """Clustering outcome scored by the relational cost."""

    assignment: np.ndarray
    cost: float
    iterations: int
    restarts: int
    seed: int

    @property
    def k(self) -> int:
        return int(np.unique(self.assignment).size)


def relational_cost(D, assignment) -> float:
    """Sum over clusters of within-cluster dissimilarity over 2|C|.

    Coincides with the squared-Euclidean k-means objective when D holds
    squared Euclidean distances; meaningful (possibly negative) for any
    symmetric hollow D.
    """
    A = as_matrix(D)
    labels = np.asarray(assignment)
    total = 0.0
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        block = A[np.ix_(members, members)]
        total += block.sum() / (2.0 * members.size)
    return float(total)


def _best_of_restarts(A, k, seed, restarts, lloyd) -> KMeansResult:
    """Lowest relational cost on A of lloyd(seed + t) -> (labels, iters)."""
    n = A.shape[0]
    if not 1 <= k <= n:
        raise DissimilarityError(f"k must lie in [1, {n}], got {k}")
    if restarts < 1:
        raise DissimilarityError(f"restarts must be >= 1, got {restarts}")
    best = None
    for t in range(restarts):
        labels, iters = lloyd(seed + t)
        cost = relational_cost(A, labels)
        if best is None or cost < best[1]:
            best = (labels, cost, iters)
    return KMeansResult(best[0], best[1], best[2], restarts, seed)


def _one_hot(labels, k):
    Z = np.zeros((labels.size, k))
    Z[np.arange(labels.size), labels] = 1.0
    return Z


def _lloyd_relational(A, k, seed, max_iter):
    """One relational Lloyd run; returns (labels, iterations)."""
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=int)
    labels[perm[:k]] = np.arange(k)
    labels[perm[k:]] = rng.integers(0, k, size=n - k)
    for it in range(1, max_iter + 1):
        Z = _one_hot(labels, k)
        sizes = Z.sum(axis=0)
        S = A @ Z
        within = np.diag(Z.T @ S)
        # d(i, C) = mean_j D_ij - within / (2 |C|^2); reduces to the
        # distance-to-centroid when D is squared Euclidean.
        dist = S / sizes - within / (2.0 * sizes**2)
        new_labels = np.argmin(dist, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # steal the point that fits its current cluster worst
                fit = dist[np.arange(n), new_labels]
                candidates = np.flatnonzero(
                    np.bincount(new_labels, minlength=k)[new_labels] > 1
                )
                mover = candidates[np.argmax(fit[candidates])]
                new_labels[mover] = c
        if np.array_equal(new_labels, labels):
            return labels, it
        labels = new_labels
    return labels, max_iter


def relational_kmeans(
    D,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = 100,
) -> KMeansResult:
    """Lloyd iteration driven by dissimilarities alone.

    Each restart t initializes its assignment from default_rng(seed + t)
    with every cluster seeded nonempty; the restart with the lowest
    final relational cost wins.
    """
    A = as_matrix(D)
    return _best_of_restarts(
        A, k, seed, restarts, lambda s: _lloyd_relational(A, k, s, max_iter)
    )


def _lloyd_euclidean(X, k, seed, max_iter):
    """One standard Lloyd run on coordinate rows; returns (labels, iters)."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    centers = X[rng.choice(n, size=k, replace=False)].copy()
    labels = None
    for it in range(1, max_iter + 1):
        d2 = (
            np.einsum("ij,ij->i", X, X)[:, None]
            - 2.0 * X @ centers.T
            + np.einsum("ij,ij->i", centers, centers)[None, :]
        )
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            members = new_labels == c
            if not members.any():
                # reseed an empty center at the worst-served point
                far = int(np.argmax(d2[np.arange(n), new_labels]))
                centers[c] = X[far]
                new_labels[far] = c
                members = new_labels == c
            centers[c] = X[members].mean(axis=0)
        if labels is not None and np.array_equal(new_labels, labels):
            return labels, it
        labels = new_labels
    return labels, max_iter


def kmeans_projected(
    D,
    coords,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = 100,
) -> KMeansResult:
    """Standard Lloyd on coordinate rows, scored relationally on D.

    The Euclidean objective drives the iterations; the reported cost
    (and the best-of-restarts selection) uses the relational cost on
    the original matrix, so results are comparable across embeddings.
    """
    A = as_matrix(D)
    X = np.asarray(coords, dtype=float)
    n = A.shape[0]
    if X.shape[0] != n:
        raise DissimilarityError(
            f"coordinate rows ({X.shape[0]}) do not match matrix size ({n})"
        )
    return _best_of_restarts(
        A, k, seed, restarts, lambda s: _lloyd_euclidean(X, k, s, max_iter)
    )
