"""Optimal-transport pseudo-label solvers for imbalanced clustering.

Matrix-scaling solvers for balanced, unbalanced and partial entropic
transport; a fast virtual-cluster reformulation of the progressive partial
solver; a semantic-regularized outer loop via majorize-minimize; plus
nearest-neighbor graphs, curriculum schedules, clustering metrics, a
synthetic training harness, and slow independent verification oracles.
"""

from .curriculum import Schedule, default_hyperparameters, rho_at
from .graph import (
    FeatureSet,
    SemanticGraph,
    build_knn_graph,
    cosine_similarity,
    gaussian_similarity,
    median_bandwidth,
)
from .metrics import evaluate
from .ot_core import (
    CostMatrix,
    DimensionMismatchError,
    InfeasibleProblemError,
    MarginalConstraint,
    NumericalOverflowError,
    ScalingConfig,
    TransportPlan,
    entropic_objective,
    scaling_solve,
    solve_balanced_ot,
    solve_pot,
    solve_sla,
    solve_uot,
)
from .p2ot import P2otProblem, solve_p2ot_fast, solve_p2ot_gsa
from .sp2ot import Sp2otProblem, lambda1_decayed, solve_sp2ot, sp2ot_gradient

__version__ = "1.0.0"

__all__ = [
    "CostMatrix",
    "DimensionMismatchError",
    "FeatureSet",
    "InfeasibleProblemError",
    "MarginalConstraint",
    "NumericalOverflowError",
    "P2otProblem",
    "ScalingConfig",
    "Schedule",
    "SemanticGraph",
    "Sp2otProblem",
    "TransportPlan",
    "build_knn_graph",
    "cosine_similarity",
    "default_hyperparameters",
    "entropic_objective",
    "evaluate",
    "gaussian_similarity",
    "lambda1_decayed",
    "median_bandwidth",
    "rho_at",
    "scaling_solve",
    "solve_balanced_ot",
    "solve_p2ot_fast",
    "solve_p2ot_gsa",
    "solve_pot",
    "solve_sla",
    "solve_sp2ot",
    "solve_uot",
    "sp2ot_gradient",
    "__version__",
]
