"""Distortion statistics, bound checks, and relational clustering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DissimilarityError,
    DissimilarityMatrix,
    NumericalError,
    _upper_distances,
    _upper_rows,
    as_matrix,
    validate_matrix,
)
from .pqspace import PseudoEuclideanEmbedding

DEFAULT_RESTARTS = 10
_MAX_ITER = 100  # Hartigan sweeps per restart
_MOVE_TOL = 1e-12  # a move lowers the cost by more than this share of max |R|


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
    rel.partition(hi)  # rel[:hi] holds the smaller ones, so lo's is their max
    median = rel[hi] if lo == hi else (rel[:hi].max() + rel[hi]) / 2.0
    return ErrorStats(top, mean, float(median), excluded)


def _band_tiles(method, D, Dhat, epsilon, emb=None, bound=None):
    """Each pair's band on one route, in row tiles of the upper triangle.

    Yields (block, pairs, tri, columns) per tile of ``_upper_rows``, where
    columns maps names to arrays over the tile's pairs: "dissimilarity",
    "reconstructed", then the route's pair CSV columns: its band and a
    "violated" flag.

    - jl and jl-pq: the band D_ij -/+ epsilon w_ij, for w_ij the pair's
      Euclidean interval: |D_ij| on jl, at distortion factor 1, and P + Q
      on jl-pq, whose "factor" column is (P + Q) / |D_ij|.  P - Q is D, so
      P + Q comes from ``_upper_distances`` of the smaller signature part
      alone: one band product per _BLOCK rows, and no n x n array.  Pairs
      with D_ij == 0, which ``relative_error_stats`` excludes, have no
      factor and are never violated on either route.
    - jl-power (bound): the "residual" beyond the multiplicative band,
      max(0, |Dhat_ij - D_ij| - epsilon |D_ij|), against the additive
      slack "bound".

    The pass keeps no reference to a tile it has yielded, so a consumer
    that drops each tile before asking for the next holds one at a time.
    The route's check is one such consumer, a fold over the pass
    (:func:`validate_pq_bound`, :func:`validate_power_residual`);
    ``validate`` puts its pair row writer between the pass and the fold,
    which writes each tile's sampled rows and passes the tile on.
    """
    A = as_matrix(D)
    Ah = np.asarray(Dhat, dtype=float)
    if method == "jl-pq":
        sign = 1.0 if emb.q <= emb.p else -1.0
        part = _upper_distances(emb.neg_coords if sign > 0 else emb.pos_coords)
    for block, pairs, tri in _upper_rows(A.shape[0]):
        d, dh = A[block][tri], Ah[block][tri]
        columns = {"dissimilarity": d, "reconstructed": dh}
        if method == "jl-power":
            residual = np.maximum(0.0, np.abs(dh - d) - epsilon * np.abs(d))
            columns.update(residual=residual, bound=np.full(d.size, bound),
                           violated=residual > bound)
            del residual
        else:
            w = np.abs(d)  # the Euclidean interval at distortion factor 1
            usable = w != 0.0
            if method == "jl-pq":  # P + Q: 2Q + D or 2P - D, raised to |D| so no band inverts
                w = np.maximum(2.0 * next(part) + sign * d, w)
                columns["factor"] = np.divide(w, np.abs(d), out=np.full(d.size, np.inf),
                                              where=usable)
            half = np.multiply(w, epsilon, out=w)
            lower, upper = d - half, np.add(d, half, out=half)
            columns.update(band_lower=lower, band_upper=upper,
                           violated=((dh < lower) | (dh > upper)) & usable)
            del w, half, lower, upper, usable
        yield block, pairs, tri, columns
        del d, dh, columns  # hold no tile while forming the next


@dataclass(frozen=True)
class PqBoundCheck:
    """Summary of the signed route's check against its factor-widened band.

    violation_rate is the share of usable pairs whose reconstruction
    leaves the band; excluded_pairs counts the unusable pairs, D_ij == 0.
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


def validate_pq_bound(tiles) -> PqBoundCheck:
    """jl-pq's check summary, folded over its band pass (``_band_tiles``)
    one tile at a time.

    Public although only the pipeline calls it: perfbench's tracer wraps
    public functions alone, and its roadmap lines read this span.
    """
    violated = excluded = total = 0
    for *_, columns in tiles:
        d = columns["dissimilarity"]
        violated += np.count_nonzero(columns["violated"])
        excluded += np.count_nonzero(d == 0.0)
        total += d.size
        del columns, d  # hold no tile while the pass forms the next
    usable = total - excluded
    return PqBoundCheck(float(violated / usable) if usable else 0.0, int(excluded))


def validate_power_residual(tiles, bound: float) -> PowerResidualCheck:
    """jl-power's check summary against the slack bound, folded over its
    band pass (``_band_tiles``) one tile at a time; a nan residual makes
    the maximum nan.

    Public although only the pipeline calls it: perfbench's tracer wraps
    public functions alone, and times this route's check by its span.
    """
    top, within, total = 0.0, 0, 0
    for *_, columns in tiles:
        residual = columns["residual"]
        top = np.maximum(top, residual.max(initial=0.0))
        within += np.count_nonzero(residual <= bound)
        total += residual.size
        del columns, residual  # hold no tile while the pass forms the next
    return PowerResidualCheck(float(top), float(within / total) if total else 1.0, bound)


@dataclass(frozen=True)
class KMeansResult:
    """Clustering outcome scored by the relational cost; iterations counts
    the Hartigan sweeps of the winning restart, the cap if it did not converge."""

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
    labels = np.asarray(assignment)
    sums = (labels == np.arange(labels.max() + 1)[:, None]) @ as_matrix(D)
    return float(np.sum(sums[labels, np.arange(labels.size)] / np.bincount(labels)[labels]) / 2)


def _sketch_rows(coords):
    """A sketch's rows as they enter Hartigan's sums, and as ``_table``
    reads them, each held once, row-major.  coords is a
    ``PseudoEuclideanEmbedding``, or plain rows, its one-part case.  The
    radius drops out: it shifts every k-cluster cost by 2 r^2 (n - k)."""
    if not isinstance(coords, PseudoEuclideanEmbedding):
        coords = np.asarray(coords, dtype=float)
        coords = PseudoEuclideanEmbedding(coords, coords[:, :0])
    p, q = coords.p, coords.q
    V = np.hstack([coords.pos_coords, coords.neg_coords, np.ones((coords.n, 2))])
    P, Q = V[:, :p], V[:, p:p + q]
    V[:, -1] = np.einsum("ij,ij->i", P, P) - np.einsum("ij,ij->i", Q, Q)  # g_i = <y_i, y_i>
    E = V[:, np.r_[:p + q, p + q + 1, p + q]]  # (y_i, g_i, 1), scaled in place
    E *= np.repeat([-2.0, 2.0, 1.0], [p, q, 2])
    return E, V


def _table(S, V, i=slice(None)):
    """Columns i of Hartigan's table R[c, i], the sum of i's pair values
    over cluster c, from the clusters' sums S of entering rows.  On D (V
    None) that is S.  A sketch's pair value is g_i + g_j - 2 <y_i, y_j> in
    its form, + on pos and - on neg; its row i enters as (-2 sign y_i, g_i,
    1) and is read as V[i] = (y_i, 1, g_i), so that S[c] = (-2 sign s_c,
    G_c, |c|), for the sums s_c of c's rows and G_c of their g, gives
    R[c, i] = S[c] . V[i] = |c| g_i + G_c - 2 <y_i, s_c>."""
    return S[:, i] if V is None else S @ V[i].T


def _hartigan(E, V, labels, k: int) -> int:
    """Hartigan's single-point moves (Hartigan & Wong, Appl. Stat. 1979)
    on labels in place, under the table of entering rows E read through V
    (``_table``); returns the sweeps.

    Cluster c costs W_c / 2|c|, W_c summing R[c, i] over its members, and
    moving i from a to b changes the total by exactly (R[b, i] - cost_b) /
    (|b| + 1) - (R[a, i] - cost_a) / (|a| - 1), which no constant shift of
    the matrix moves.  A sweep screens every point at once, then re-checks
    and applies its candidates one at a time; none empties a cluster or
    gains less than _MOVE_TOL max |R|."""
    at = np.arange(labels.size)
    # sums that overflow are raised as a NumericalError, with no warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        S = (labels == np.arange(k)[:, None]) @ E
        for sweep in range(1, _MAX_ITER + 1):
            R = _table(S, V)
            tol = _MOVE_TOL * np.abs(R).max()
            if not np.isfinite(tol):
                raise NumericalError("cluster sums are not finite: the sums overflowed")
            sizes = np.bincount(labels, minlength=k).astype(float)
            cost = np.bincount(labels, weights=R[labels, at], minlength=k) / (2.0 * sizes)
            grow = 1.0 / (sizes + 1.0)
            into = (R - cost[:, None]) * grow[:, None]
            into[labels, at] = np.inf
            out = (R[labels, at] - cost[labels]) / (sizes[labels] - 1.0)
            before, sizes = labels.copy(), sizes.tolist()  # Python scalars from here
            for i in np.flatnonzero(into.min(axis=0) - out < -tol).tolist():
                a, r = int(labels[i]), _table(S, V, i)
                into = (r - cost) * grow
                into[a] = np.inf
                b = int(into.argmin())
                if sizes[a] > 1.0 and into[b] - (r[a] - cost[a]) / (sizes[a] - 1.0) < -tol:
                    for c, step in ((a, -1.0), (b, 1.0)):
                        cost[c] = (sizes[c] * cost[c] + step * r[c]) / (sizes[c] + step)
                        sizes[c] += step
                        grow[c] = 1.0 / (sizes[c] + 1.0)
                    labels[i] = b
                    S[a] -= E[i]
                    S[b] += E[i]
            if np.array_equal(labels, before):  # no move in this sweep
                return sweep
    return _MAX_ITER


def _clustered(D, E, V, k: int, seed: int, restarts: int) -> KMeansResult:
    """Best of restarts of ``_hartigan`` by the relational cost on D.  Restart
    t starts from each point's nearest of k distinct points drawn by
    default_rng(seed + t), which keep their own clusters."""
    n = D.shape[0]
    if E.shape[0] != n:
        raise DissimilarityError(f"coordinate rows ({E.shape[0]}) do not match matrix size ({n})")
    if not 1 <= k <= n:
        raise DissimilarityError(f"k must lie in [1, {n}], got {k}")
    if restarts < 1:
        raise DissimilarityError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise DissimilarityError(f"seed must be nonnegative, got {seed}")
    best = None
    for t in range(restarts):
        seeds = np.random.default_rng(seed + t).choice(n, size=k, replace=False)
        labels = _table(E[seeds], V).argmin(axis=0)
        labels[seeds] = np.arange(k)
        sweeps = _hartigan(E, V, labels, k)
        cost = relational_cost(D, labels)
        if best is None or cost < best.cost:
            best = KMeansResult(labels, cost, sweeps)
    return best


def relational_kmeans(D, k: int, seed: int = 0, restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """k-means on a symmetric hollow D, driven by dissimilarities alone:
    Hartigan's moves on D's own rows lower D's relational cost at every
    step, indefinite or not, with no eigensolver."""
    A = (D if isinstance(D, DissimilarityMatrix) else validate_matrix(D)).entries
    return _clustered(A, A, None, k, seed, restarts)


def kmeans_projected(D, coords, k: int, seed: int = 0,
                     restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """Hartigan's moves on a sketch in its own form (``_sketch_rows``), at
    most 100 sweeps per restart, scored relationally on D: the reported cost
    (and the best-of-restarts selection) is comparable across sketches."""
    A = (D if isinstance(D, DissimilarityMatrix) else validate_matrix(D)).entries
    return _clustered(A, *_sketch_rows(coords), k, seed, restarts)
