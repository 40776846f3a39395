"""Distortion statistics, bound checks, and relational clustering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DissimilarityError,
    _upper_distances,
    _upper_rows,
    as_matrix,
    center_gram,
    validate_matrix,
)
from .power import decompose_power
from .pqspace import PseudoEuclideanEmbedding

DEFAULT_RESTARTS = 10
_MAX_ITER = 100  # Lloyd steps per restart


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
    "reconstructed", then the route's pair CSV columns: its band and a
    "violated" flag.

    - jl-pq (emb): the band around D_ij has half-width epsilon times the
      Euclidean interval, epsilon * factor * |D_ij| wherever the factor is
      finite.  Pairs with an infinite factor are excluded, never
      violated.  The intervals come from ``_upper_distances`` of the two
      signature parts: one band product of each per _BLOCK rows, and no
      n x n array.
    - jl-power (bound): the "residual" beyond the multiplicative band,
      max(0, |Dhat_ij - D_ij| - epsilon |D_ij|), against the additive
      slack "bound".
    - jl: the band D_ij -/+ epsilon |D_ij|.

    The pass keeps no reference to a tile it has yielded, so a consumer
    that drops each tile before asking for the next holds one at a time.
    The route's check is one such consumer, a fold over the pass
    (:func:`_pq_check`, :func:`_power_check`); ``validate`` puts its pair
    row writer between the pass and the fold, which writes each tile's
    sampled rows and passes the tile on.
    """
    A = as_matrix(D)
    Ah = np.asarray(Dhat, dtype=float)
    if method == "jl-pq":
        pos, neg = _upper_distances(emb.pos_coords), _upper_distances(emb.neg_coords)
    for block, pairs, tri in _upper_rows(A.shape[0]):
        d, dh = A[block][tri], Ah[block][tri]
        columns = {"dissimilarity": d, "reconstructed": dh}
        if method == "jl-pq":
            columns.update(_pq_columns(d, dh, next(pos), next(neg), epsilon))
        elif method == "jl-power":
            residual = np.maximum(0.0, np.abs(dh - d) - epsilon * np.abs(d))
            columns.update(residual=residual, bound=np.full(d.size, bound),
                           violated=residual > bound)
            del residual
        else:
            half = epsilon * np.abs(d)
            columns.update(band_lower=d - half, band_upper=d + half,
                           violated=np.abs(dh - d) > half)
            del half
        yield block, pairs, tri, columns
        del d, dh, columns  # hold no tile while forming the next


def _pq_columns(d, dh, p, q, epsilon):
    """jl-pq's band columns from a tile's P and Q, which it consumes.

    Each temporary is freed or overwritten as soon as it is spent, so the
    pass holds a few tile vectors beside its two band products.
    """
    euv = p + q
    pqv = np.subtract(p, q, out=p)
    del p, q
    factor = np.where(euv == 0.0, 1.0, np.inf)  # where P - Q is zero
    np.divide(euv, pqv, out=factor, where=pqv != 0.0)
    np.abs(factor, out=factor)
    del pqv
    half = np.multiply(euv, epsilon, out=euv)
    lower = d - half
    upper = np.add(d, half, out=half)
    violated = ((dh < lower) | (dh > upper)) & np.isfinite(factor)
    return dict(factor=factor, band_lower=lower, band_upper=upper, violated=violated)


@dataclass(frozen=True)
class PqBoundCheck:
    """Summary of the signed route's check against its factor-widened band.

    violation_rate is the share of usable pairs whose reconstruction
    leaves the band; excluded_pairs counts the pairs with an infinite
    distortion factor, which are not usable.
    """

    violation_rate: float
    excluded_pairs: int


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


def _slack(epsilon: float, radius: float) -> float:
    """The power route's additive slack 4 epsilon r^2."""
    return 4.0 * epsilon * radius**2


def _pq_check(tiles) -> PqBoundCheck:
    """jl-pq's check summary, folded over its band pass one tile at a time."""
    violated = excluded = total = 0
    for *_, columns in tiles:
        factor = columns["factor"]
        violated += np.count_nonzero(columns["violated"])
        excluded += np.count_nonzero(~np.isfinite(factor))
        total += factor.size
        del columns, factor  # hold no tile while the pass forms the next
    usable = total - excluded
    return PqBoundCheck(float(violated / usable) if usable else 0.0, int(excluded))


def _power_check(tiles, bound: float) -> PowerResidualCheck:
    """jl-power's check summary against the slack bound, folded over its
    band pass one tile at a time; a nan residual makes the maximum nan."""
    top, within, total = 0.0, 0, 0
    for *_, columns in tiles:
        residual = columns["residual"]
        top = np.maximum(top, residual.max(initial=0.0))
        within += np.count_nonzero(residual <= bound)
        total += residual.size
        del columns, residual  # hold no tile while the pass forms the next
    return PowerResidualCheck(float(top), float(within / total) if total else 1.0, bound)


def validate_pq_bound(
    D, emb: PseudoEuclideanEmbedding, Dhat, epsilon: float
) -> PqBoundCheck:
    """Check a reconstruction against the factor-widened band of D.

    The band pass is reduced to counts tile by tile.
    """
    return _pq_check(_band_tiles("jl-pq", D, Dhat, epsilon, emb=emb))


def validate_power_residual(
    D, radius: float, Dhat, epsilon: float
) -> PowerResidualCheck:
    """Check a power-route reconstruction against the additive slack.

    The residual pass is reduced to a maximum and a count tile by tile.
    """
    bound = _slack(epsilon, radius)
    return _power_check(_band_tiles("jl-power", D, Dhat, epsilon, bound=bound), bound)


@dataclass(frozen=True)
class KMeansResult:
    """Clustering outcome scored by the relational cost.

    iterations counts the Lloyd steps of the winning restart; it reaches
    the iteration cap only if that restart did not converge.
    """

    assignment: np.ndarray
    cost: float
    iterations: int

    @property
    def k(self) -> int:
        return int(np.count_nonzero(np.bincount(self.assignment)))


def relational_cost(D, assignment) -> float:
    """Sum over clusters of within-cluster dissimilarity over 2|C|.

    Coincides with the squared-Euclidean k-means objective when D holds
    squared Euclidean distances; meaningful (possibly negative) for any
    symmetric hollow D.  assignment holds nonnegative integer labels.
    """
    A = as_matrix(D)
    labels = np.asarray(assignment)
    total = 0.0
    for c in np.flatnonzero(np.bincount(labels)):
        members = np.flatnonzero(labels == c)
        block = A[np.ix_(members, members)]
        total += block.sum() / (2.0 * members.size)
    return float(total)


def relational_kmeans(
    D,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> KMeansResult:
    """k-means on a symmetric hollow D, driven by dissimilarities alone.

    D is validated and clustered by :func:`kmeans_projected` on the
    centers of its power representation.  Their squared distances are
    D + 4r^2 off the diagonal, which moves every k-cluster relational
    cost by the same 2r^2 (n - k) (Roth et al., IEEE TPAMI 2003), so
    Euclidean Lloyd on the centers converges and descends on D's own
    relational cost, indefinite or not.
    """
    Dm = validate_matrix(D)
    _, rep = decompose_power(center_gram(Dm))
    return kmeans_projected(Dm, rep.centers, k, seed, restarts)


def _lloyd_euclidean(X, k, seed):
    """One standard Lloyd run on coordinate rows; returns (labels, iters)."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    centers = X[rng.choice(n, size=k, replace=False)].copy()
    sq = np.einsum("ij,ij->i", X, X)[:, None]
    labels = None
    for it in range(1, _MAX_ITER + 1):
        d2 = (
            sq
            - 2.0 * (X @ centers.T)  # exact doubling, no scaled copy of X
            + np.einsum("ij,ij->i", centers, centers)[None, :]
        )
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            members = new_labels == c
            if not members.any():
                # reseed an empty center at the worst-served point among
                # those whose cluster keeps a member without it
                shared = np.bincount(new_labels, minlength=k)[new_labels] > 1
                candidates = np.flatnonzero(shared)
                fit = d2[candidates, new_labels[candidates]]
                far = candidates[np.argmax(fit)]
                centers[c] = X[far]
                new_labels[far] = c
                members = new_labels == c
            centers[c] = X[members].mean(axis=0)
        if labels is not None and np.array_equal(new_labels, labels):
            return labels, it
        labels = new_labels
    return labels, _MAX_ITER


def kmeans_projected(
    D,
    coords,
    k: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> KMeansResult:
    """Standard Lloyd on coordinate rows, scored relationally on D.

    Restart t starts from k distinct rows drawn by default_rng(seed + t)
    and runs at most 100 Lloyd steps.  The Euclidean objective drives the
    iterations; the reported cost (and the best-of-restarts selection)
    uses the relational cost on the original matrix, so results are
    comparable across embeddings.
    """
    A = as_matrix(D)
    X = np.asarray(coords, dtype=float)
    n = A.shape[0]
    if X.shape[0] != n:
        raise DissimilarityError(
            f"coordinate rows ({X.shape[0]}) do not match matrix size ({n})"
        )
    if not 1 <= k <= n:
        raise DissimilarityError(f"k must lie in [1, {n}], got {k}")
    if restarts < 1:
        raise DissimilarityError(f"restarts must be >= 1, got {restarts}")
    best = None
    for t in range(restarts):
        labels, iters = _lloyd_euclidean(X, k, seed + t)
        cost = relational_cost(A, labels)
        if best is None or cost < best.cost:
            best = KMeansResult(labels, cost, iters)
    return best
