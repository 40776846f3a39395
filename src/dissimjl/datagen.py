"""Synthetic dissimilarity generators and graph-distance ingestion."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DissimilarityError, DissimilarityMatrix, squared_distances, validate_matrix

DEFAULT_ALPHA = 6.0
HEAVY_FRACTION = 0.9


@dataclass(frozen=True)
class SimplexSpec:
    """Parameters for the simplex-with-heavy-block construction."""

    n: int
    alpha: float = DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise DissimilarityError(f"need n >= 2, got {self.n}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise DissimilarityError(
                f"alpha must be nonnegative and finite, got {self.alpha}"
            )
        if self.seed < 0:
            raise DissimilarityError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class BallSpec:
    """Parameters for the random-ball gap construction."""

    n: int
    dim: int = 10
    radius_min: float = 0.5
    radius_max: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise DissimilarityError(f"need n >= 2, got {self.n}")
        if self.dim < 1:
            raise DissimilarityError(f"need dim >= 1, got {self.dim}")
        if not 0.0 <= self.radius_min <= self.radius_max < math.inf:
            raise DissimilarityError(
                f"need 0 <= radius_min <= radius_max < inf, got "
                f"[{self.radius_min}, {self.radius_max}]"
            )
        if self.seed < 0:
            raise DissimilarityError(f"seed must be nonnegative, got {self.seed}")


def gen_simplex(spec: SimplexSpec) -> DissimilarityMatrix:
    """Regular-simplex squared distances minus a dominant random block.

    Point i is the i-th standard basis vector of R^n joined with a
    block of round(0.9 n) heavy coordinates drawn uniformly from
    [0, alpha]; the heavy block enters the squared interval with a
    negative sign:

        D_ij = ||e_i - e_j||^2 - alpha * ||z_i - z_j||^2
             = 2 * [i != j] - alpha * ||z_i - z_j||^2.

    With the default alpha the centered Gram matrix has about 0.9 n
    negative eigenvalues; as alpha -> 0 the matrix degenerates to the
    squared distances of a regular simplex (Euclidean, q = 0).
    """
    rng = np.random.default_rng(spec.seed)
    k = max(1, round(HEAVY_FRACTION * spec.n))
    z = rng.uniform(0.0, spec.alpha, size=(spec.n, k))
    D = 2.0 * (1.0 - np.eye(spec.n)) - spec.alpha * squared_distances(z)
    np.fill_diagonal(D, 0.0)
    return validate_matrix(D)


def gen_balls(spec: BallSpec) -> DissimilarityMatrix:
    """Clamped surface gaps between random balls.

    Centers are iid standard Gaussian in R^dim, radii uniform in
    [radius_min, radius_max]; D_ij = max(0, ||c_i - c_j|| - r_i - r_j)
    is the gap between ball surfaces, zero whenever the balls overlap.
    Unsquared and clamped, so the result is generally non-metric and
    non-Euclidean once radii vary.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.standard_normal((spec.n, spec.dim))
    radii = rng.uniform(spec.radius_min, spec.radius_max, size=spec.n)
    # r_i + r_j once, so D_ij and D_ji round alike and validation keeps a view
    gaps = np.sqrt(squared_distances(centers)) - (radii[:, None] + radii[None, :])
    D = np.maximum(gaps, 0.0)
    np.fill_diagonal(D, 0.0)
    return validate_matrix(D)


def parse_edge_list(lines) -> list[tuple[int, int]]:
    """Parse 'u v' pairs, one per line; blank lines are skipped.

    Vertex ids are nonnegative integers.  Any other line is an error
    naming the 1-based line number.
    """
    edges = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise DissimilarityError(
                f"line {lineno}: expected 'u v', got {line.strip()!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DissimilarityError(
                f"line {lineno}: expected 'u v', got {line.strip()!r}"
            ) from None
        if u < 0 or v < 0:
            raise DissimilarityError(f"line {lineno}: negative vertex id")
        edges.append((u, v))
    if not edges:
        raise DissimilarityError("edge list is empty")
    return edges


def graph_hops(edges) -> DissimilarityMatrix:
    """Hop-count distance matrix of an undirected unweighted graph.

    Self-loops and duplicate edges are ignored; vertex count is the
    largest id plus one.  A disconnected graph is reduced to its
    largest connected component with a warning (vertices keep their
    relative order and are re-indexed from 0).

    scipy is imported here, not at module level, so that importing
    dissimjl loads it only for graph ingest.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    cleaned = [(u, v) for u, v in edges if u != v]
    if not cleaned:
        raise DissimilarityError("graph has no edges between distinct vertices")
    n = max(max(u, v) for u, v in cleaned) + 1
    rows = [u for u, v in cleaned] + [v for u, v in cleaned]
    cols = [v for u, v in cleaned] + [u for u, v in cleaned]
    adj = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    )
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    if ncomp > 1:
        sizes = np.bincount(labels)
        keep = np.flatnonzero(labels == int(np.argmax(sizes)))
        warnings.warn(
            f"graph is disconnected; keeping the largest component "
            f"({keep.size} of {n} vertices)",
            RuntimeWarning,
            stacklevel=2,
        )
        adj = adj[np.ix_(keep, keep)]
    hops = csgraph.shortest_path(adj, method="D", directed=False, unweighted=True)
    return validate_matrix(hops)
