"""Shared fixtures and independent oracle implementations.

The oracles here deliberately recompute quantities through different
routes than the library (explicit centering products, per-pair loops,
exhaustive partition search, Monte-Carlo coupling) so tests compare two
independent derivations instead of the code with itself.

The power oracles take the long way round that the library avoids:
``euclideanize`` forms the shifted matrix E = D + 4r^2 (J - I) and
``recover_centers`` runs a second eigendecomposition on it, where
``decompose_power`` factors B + 2r^2 I once, by a pivoted Cholesky
factorization where the radius leaves it singular.  ``eigh_factors``
gathers the full branch's factors from ``np.linalg.eigh``.
``interval_matrices`` builds the whole signed and Euclidean interval
matrices P - Q and P + Q that the tiled bound check never forms, and
``ref_pq_bound`` and ``ref_power_residual`` are the whole per-pair band
arrays that the bound checks reduce tile by tile.

``ref_pq_bound`` takes the Euclidean interval P + Q in the jl-pq band
pass's own form, 2Q + D or 2P - D from the smaller signature part alone,
by default off one whole Gram product of that part.  The band pass takes
one product per band of rows, which can round apart from it in the last
bits, so the default is an accuracy oracle; tests/test_tiles.py passes
it band products for a bitwise one, and ``whole_euclidean``, P + Q off
whole products of both parts, for the interval's definition.  A sliced
embedding's larger part does not reproduce exact zeros of D, where its
smaller part's rows coincide: there the one-part form is exactly 0 and
the whole form is not.  Either way a pair is excluded exactly where D
is zero.
"""

from collections import Counter

import numpy as np
import pytest

from dissimjl import (
    DEFAULT_TAU_REL,
    BallSpec,
    DissimilarityError,
    SimplexSpec,
    as_matrix,
    center_gram,
    gen_balls,
    gen_simplex,
    graph_hops,
    squared_distances,
)
from dissimjl import core
from dissimjl.evaluate import _band_tiles


# the LAPACK that numpy links; its wheels bundle scipy-openblas, whose LAPACKE
# core resolves and factors B with in place
NUMPY_LAPACK = (np.show_config(mode="dicts").get("Build Dependencies", {})
                .get("lapack", {}).get("name"))
in_place_lapack = pytest.mark.skipif(
    NUMPY_LAPACK != "scipy-openblas", reason=f"numpy links {NUMPY_LAPACK}")


@pytest.fixture(params=["in-place", "np.linalg"])
def lapack_route(request, monkeypatch):
    """Run a test on both routes of core's factorizations: numpy's LAPACKE
    in B's own buffer, and the np.linalg fallback, forced."""
    if request.param == "np.linalg":
        monkeypatch.setattr(core, "_lapacke", lambda: None)
    return request.param


@pytest.fixture()
def full_branch(monkeypatch):
    """decompose takes its full branch on every input, as on a signature
    with no part small enough to slice: its factors are then
    ``eigh_factors``, bit for bit."""
    monkeypatch.setattr(core, "_SLICE_SHARE", -1.0)


def eigh_factors(B):
    """The full branch's factors (P, N) of B from ``np.linalg.eigh``: the
    columns of ``U[:, ::-1]`` whose eigenvalue lies above +tau and below
    -tau, tau relative to the spectrum, scaled by sqrt(|lambda|)."""
    lam, U = np.linalg.eigh(B)
    lam, U = lam[::-1], U[:, ::-1]
    tau = DEFAULT_TAU_REL * float(np.abs(lam).max())
    pos, neg = lam > tau, lam < -tau
    return U[:, pos] * np.sqrt(lam[pos]), U[:, neg] * np.sqrt(-lam[neg])


# the routines each branch of decompose calls once, the slice's vectors of
# a nonempty smaller part, and those of the spectrum alone and of
# decompose_power's Cholesky centers, plain or pivoted
CALLS = {
    "full": Counter(dsytrd=1, dstedc=1, dormtr=1),
    "slice": Counter(dsytrd=1, dsterf=1, dsyrk=1, dpstrf=1, dlapmt=1),
    "vectors": Counter(dstebz=1, dstein=1, dormtr=1),
    "eigvalsh": Counter(eigvalsh=1),
    "cholesky": Counter(dpotrf=1),
    "pstrf": Counter(dpstrf=1, dlapmt=1),
}


def calls(*kinds):
    """The LAPACK calls of the given kinds of CALLS, together."""
    return sum((CALLS[kind] for kind in kinds), Counter())


@pytest.fixture()
def lapack_calls(monkeypatch):
    """A Counter of the calls of each routine the library factors B with:
    core's LAPACK and CBLAS routines by name, counted at the resolver, and
    np.linalg.eigvalsh, which gives the spectrum alone."""
    real = core._lapacke()
    if real is None:
        pytest.skip("numpy exports no LAPACKE routines here")
    eigvalsh = np.linalg.eigvalsh
    counts = Counter()

    def counting(name, routine):
        def call(*args, **kwargs):
            counts[name] += 1
            return routine(*args, **kwargs)
        return call

    monkeypatch.setattr(core, "_lapacke", lambda: {
        name: counting(name, routine) for name, routine in real.items()})
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
    return counts


def random_hollow(rng, n, scale=1.0):
    """Random symmetric hollow matrix with entries in [-scale, scale]."""
    A = rng.uniform(-scale, scale, size=(n, n))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A


def ref_validate(raw):
    """validate_matrix's entries as a whole-matrix formula: 0.5 (A + A^T),
    hollow, always a fresh array."""
    A = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(A)):
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise DissimilarityError(f"non-finite entry at ({i}, {j}): {A[i, j]!r}")
    tol = 1e-9 * max(1.0, float(np.abs(A).max()))
    gap = np.abs(A - A.T)
    if gap.max() > tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise DissimilarityError(
            f"asymmetric at ({i}, {j}): {A[i, j]!r} vs {A[j, i]!r}"
        )
    sym = 0.5 * (A + A.T)
    np.fill_diagonal(sym, 0.0)
    return sym


def copy_cases(n, seed=0):
    """Raw inputs that validate_matrix copies, by name, each a variant of
    the canonical ``random_hollow(n)``, with the entries it must return.

    - "negative-zero diagonal" differs from its symmetrized result in
      bits, not in value.
    - "one-ulp asymmetry" (within tolerance) and "later block" differ in
      one entry.  The later block's pair sits in the corner block, past
      the first one under small blocks, and its average rounds to the
      upper entry 0.5, so only the lower one differs from it.
    - "subnormal pair" is exactly symmetric, but the halving rounds
      2.5e-324 to +0, which ref_validate's sum-first formula does not.
    - "fortran", "strided", "float32" and "int" hold canonical values in
      another layout or type.
    """
    A = random_hollow(np.random.default_rng(seed), n)
    cases = {}
    B = A.copy()
    B[0, 0] = -0.0
    cases["negative-zero diagonal"] = (B, ref_validate(B))
    B = A.copy()
    B[0, 1] = B[1, 0] = 5e-324
    expected = ref_validate(B)
    expected[0, 1] = expected[1, 0] = 0.0
    cases["subnormal pair"] = (B, expected)
    B = A.copy()
    B[1, 0] = np.nextafter(B[0, 1], np.inf)
    cases["one-ulp asymmetry"] = (B, ref_validate(B))
    B = A.copy()
    B[0, n - 1], B[n - 1, 0] = 0.5, np.nextafter(0.5, 1.0)
    cases["later block"] = (B, ref_validate(B))
    cases["fortran"] = (np.asfortranarray(A), A)
    cases["strided"] = (np.repeat(A, 2, axis=1)[:, ::2], A)
    B = A.astype(np.float32)
    cases["float32"] = (B, ref_validate(B))
    B = np.rint(10 * A).astype(int)
    cases["int"] = (B, ref_validate(B))
    return cases


def grid_hops(k):
    """Hop counts of a k x k grid: Euclidean, with a null block of rank >> 1."""
    edges = []
    for v in range(k * k):
        if (v + 1) % k:
            edges.append((v, v + 1))
        if v + k < k * k:
            edges.append((v, v + k))
    return graph_hops(edges)


# Gram matrices whose eigh spectrum has no exact tie, and two that do: the
# alpha = 0 simplex (32 tied neighbours in eigh's output at n = 50) and zero
ORDER_CASES = {
    "simplex": (lambda: center_gram(gen_simplex(SimplexSpec(120, seed=3))), False),
    "balls": (lambda: center_gram(gen_balls(BallSpec(120, seed=3))), False),
    "grid": (lambda: center_gram(grid_hops(8)), False),
    "simplex-alpha-0": (
        lambda: center_gram(gen_simplex(SimplexSpec(50, alpha=0.0, seed=0))), True
    ),
    "zero": (lambda: np.zeros((6, 6)), True),
}

# ORDER_CASES' Gram matrices and a random hollow one's, all exactly symmetric
GRAM_CASES = {name: make for name, (make, _) in ORDER_CASES.items()}
GRAM_CASES["random"] = lambda: center_gram(random_hollow(np.random.default_rng(6), 90))


def dense_gram_oracle(D):
    """-C D C / 2 through explicit matrix products."""
    n = D.shape[0]
    C = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * (C @ D @ C)


def pairwise_sq_oracle(X):
    """Per-pair squared distances via an explicit loop."""
    n = X.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            out[i, j] = float(diff @ diff)
    return out


def coordinate_kmeans_cost(X, labels):
    """Sum of squared distances to cluster centroids."""
    cost = 0.0
    for c in np.unique(labels):
        pts = X[labels == c]
        mu = pts.mean(axis=0)
        cost += float(((pts - mu) ** 2).sum())
    return cost


def relational_cost_oracle(D, labels):
    """Within-cluster sums over 2|C| through explicit loops."""
    total = 0.0
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        s = 0.0
        for i in members:
            for j in members:
                s += D[i, j]
        total += s / (2.0 * members.size)
    return total


def brute_force_best_2partition(D):
    """Exhaustive search over all 2-partitions; returns (cost, labels)."""
    n = D.shape[0]
    best_cost = None
    best_labels = None
    for mask in range(1, 2 ** (n - 1)):
        labels = np.array([(mask >> i) & 1 for i in range(n)])
        if labels.min() == labels.max():
            continue
        cost = relational_cost_oracle(D, labels)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_labels = labels
    return best_cost, best_labels


def mc_silhouette(mean_a, sigma_a, mean_b, sigma_b, samples=100_000,
                  batches=100, seed=0):
    """Monte-Carlo estimate of the Gaussian silhouette gap, with SE.

    Clusters are isotropic with total variance sigma^2 (covariance
    (sigma^2/d) I).  The transport term couples both clusters through a
    shared standard normal, which is optimal for Gaussians with
    proportional covariances; the spread terms use independent pairs.
    Returns (estimate, batch-mean standard error).
    """
    rng = np.random.default_rng(seed)
    mu_a = np.asarray(mean_a, dtype=float)
    mu_b = np.asarray(mean_b, dtype=float)
    d = mu_a.size
    per = samples // batches
    estimates = []
    for _ in range(batches):
        Z = rng.standard_normal((per, d)) / np.sqrt(d)
        coupled = (mu_a - mu_b) + (sigma_a - sigma_b) * Z
        dis2 = np.einsum("ij,ij->i", coupled, coupled).mean()
        Za = sigma_a * (
            rng.standard_normal((per, d)) - rng.standard_normal((per, d))
        ) / np.sqrt(d)
        Zb = sigma_b * (
            rng.standard_normal((per, d)) - rng.standard_normal((per, d))
        ) / np.sqrt(d)
        spread_a = np.einsum("ij,ij->i", Za, Za).mean()
        spread_b = np.einsum("ij,ij->i", Zb, Zb).mean()
        estimates.append(dis2 - spread_a - spread_b)
    estimates = np.array(estimates)
    return float(estimates.mean()), float(
        estimates.std(ddof=1) / np.sqrt(batches)
    )


def euclideanize(D, radius):
    """Shift every off-diagonal entry by 4 radius^2, keeping a zero diagonal."""
    if radius < 0.0:
        raise DissimilarityError(f"radius must be nonnegative, got {radius}")
    E = as_matrix(D) + 4.0 * radius**2
    np.fill_diagonal(E, 0.0)
    return E


def recover_centers(E):
    """Classical scaling of a Euclidean squared-distance matrix.

    Keeps the eigenpairs of ``np.linalg.eigh`` above tau, decompose's
    threshold relative to the spectrum; raises DissimilarityError if an
    eigenvalue lies below -10 tau, i.e. E is not Euclidean.
    """
    mu, U = np.linalg.eigh(center_gram(E))
    tau = DEFAULT_TAU_REL * float(np.abs(mu).max())
    if mu.min() < -10.0 * tau:
        raise DissimilarityError(
            f"matrix is not Euclidean: Gram eigenvalue {mu.min():.6g} "
            f"below {-10.0 * tau:.6g}"
        )
    keep = mu > tau
    return U[:, keep] * np.sqrt(mu[keep])


def pivoted_cholesky(A, tol):
    """G with G G^T = A to rounding, by right-looking outer-product
    elimination: each step takes the largest diagonal entry left as its
    pivot, and stops once none is above tol.  Column k is zero in the rows
    of the first k pivots, so G's rows in pivot order are lower
    triangular."""
    S = np.array(A, dtype=float)
    n = S.shape[0]
    G, done = np.zeros((n, n)), np.zeros(n, bool)
    for k in range(n):
        left = np.where(done, -np.inf, np.diag(S))
        i = int(np.argmax(left))
        if left[i] <= tol:
            return G[:, :k]
        column = S[:, i] / np.sqrt(S[i, i])
        column[done] = 0.0
        G[:, k] = column
        S -= np.outer(column, column)
        done[i] = True
    return G


def interval_matrices(emb):
    """All-pairs signed and Euclidean intervals (P - Q, P + Q) of an embedding."""
    P = squared_distances(emb.pos_coords)
    Q = squared_distances(emb.neg_coords)
    return P - Q, P + Q


def ref_squared_distances(X):
    """Whole-matrix squared distances, clamped and averaged with the transpose."""
    X = np.asarray(X, dtype=float)
    sq = np.einsum("ij,ij->i", X, X)
    D = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(D, 0.0, out=D)
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def one_part_euclidean(A, emb, distances=None):
    """P + Q over the pairs i < j as the jl-pq band pass forms it: 2Q + D,
    or 2P - D when q > p, from ``distances`` of the smaller part alone
    (whole-matrix ``ref_squared_distances`` by default), and at least |D|."""
    distances = ref_squared_distances if distances is None else distances
    iu = np.triu_indices(A.shape[0], 1)
    d = A[iu]
    if emb.q <= emb.p:
        euv = 2.0 * distances(emb.neg_coords)[iu] + d
    else:
        euv = 2.0 * distances(emb.pos_coords)[iu] - d
    return np.maximum(euv, np.abs(d))


def whole_euclidean(A, emb):
    """P + Q over the pairs i < j, from whole Gram products of both parts."""
    iu = np.triu_indices(A.shape[0], 1)
    return (ref_squared_distances(emb.pos_coords) + ref_squared_distances(emb.neg_coords))[iu]


def ref_pq_bound(A, emb, Ah, epsilon, euclidean=one_part_euclidean):
    """(factor, lower, upper, violated, excluded) over ``np.triu_indices`` pairs.

    The Euclidean interval is ``euclidean(A, emb)`` over those pairs, by
    default ``one_part_euclidean``.  The factor is it over |D|, infinite
    where D == 0, and those pairs are excluded.
    """
    iu = np.triu_indices(A.shape[0], 1)
    d, dh = A[iu], Ah[iu]
    euv = euclidean(A, emb)
    excluded = d == 0.0
    factor = np.full(d.shape, np.inf)
    factor[~excluded] = euv[~excluded] / np.abs(d[~excluded])
    lower = d - epsilon * euv
    upper = d + epsilon * euv
    violated = ((dh < lower) | (dh > upper)) & ~excluded
    return factor, lower, upper, violated, excluded


def ref_power_residual(A, Ah, epsilon):
    """max(0, |Dhat - D| - epsilon |D|) over ``np.triu_indices`` pairs."""
    iu = np.triu_indices(A.shape[0], 1)
    d, dh = A[iu], Ah[iu]
    return np.maximum(0.0, np.abs(dh - d) - epsilon * np.abs(d))


def ref_pq_summary(violated, excluded):
    """(violation_rate, excluded_pairs) of whole band arrays."""
    usable = int((~excluded).sum())
    rate = float(violated.sum() / usable) if usable else 0.0
    return rate, int(excluded.sum())


def ref_power_summary(residuals, bound):
    """(max_residual, fraction_within) of a whole residual array."""
    if residuals.size == 0:
        return 0.0, 1.0
    return float(residuals.max()), float(np.mean(residuals <= bound))


def band_columns(*args, **kwargs):
    """The library's per-tile band columns, concatenated over all pairs."""
    tiles = [columns for *_, columns in _band_tiles(*args, **kwargs)]
    return {name: np.concatenate([t[name] for t in tiles]) for name in tiles[0]}
