"""Random projection for arbitrary dissimilarity matrices.

Any symmetric hollow matrix embeds exactly, either as signed squared
intervals in a pseudo-Euclidean space of signature (p, q) or as power
distances between Euclidean centers sharing a common radius.  Both are
one representation (pos, neg, radius) whose pair values are
P - Q - 4r^2, and it survives Gaussian random projection with
quantified distortion; this package implements the embeddings, the
projection, the bound checks, and a relational k-means to measure
downstream effects.
"""

from .core import (
    DEFAULT_TAU_REL,
    DissimilarityError,
    DissimilarityMatrix,
    GramDecomposition,
    NumericalError,
    as_matrix,
    center_gram,
    decompose,
    squared_distances,
    validate_matrix,
)
from .datagen import (
    BallSpec,
    SimplexSpec,
    gen_balls,
    gen_simplex,
    graph_hops,
    parse_edge_list,
)
from .evaluate import (
    ErrorStats,
    KMeansResult,
    PowerResidualCheck,
    PqBoundCheck,
    kmeans_projected,
    relational_cost,
    relational_kmeans,
    relative_error_stats,
    validate_power_residual,
    validate_pq_bound,
)
from .pipeline import METHODS, RunResult, report_dict, run_projection
from .power import (
    GaussianCluster,
    decompose_power,
    power_distance,
    power_radius,
    silhouette_gaussian,
)
from .projection import (
    DEFAULT_DIM_CONSTANT,
    DEFAULT_EPSILON,
    ProjectionConfig,
    gaussian_map,
    project,
    reconstruct,
    target_dim,
)
from .pqspace import (
    PseudoEuclideanEmbedding,
    embed_pq,
    norm_ratio_sample,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DIM_CONSTANT",
    "DEFAULT_EPSILON",
    "DEFAULT_TAU_REL",
    "METHODS",
    "BallSpec",
    "DissimilarityError",
    "DissimilarityMatrix",
    "ErrorStats",
    "GaussianCluster",
    "GramDecomposition",
    "KMeansResult",
    "NumericalError",
    "PowerResidualCheck",
    "PqBoundCheck",
    "ProjectionConfig",
    "PseudoEuclideanEmbedding",
    "RunResult",
    "SimplexSpec",
    "as_matrix",
    "center_gram",
    "decompose",
    "decompose_power",
    "embed_pq",
    "gaussian_map",
    "gen_balls",
    "gen_simplex",
    "graph_hops",
    "kmeans_projected",
    "norm_ratio_sample",
    "parse_edge_list",
    "power_distance",
    "power_radius",
    "project",
    "reconstruct",
    "relational_cost",
    "relational_kmeans",
    "relative_error_stats",
    "report_dict",
    "run_projection",
    "silhouette_gaussian",
    "squared_distances",
    "target_dim",
    "validate_matrix",
    "validate_power_residual",
    "validate_pq_bound",
]
