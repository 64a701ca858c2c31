"""Exact projection onto the perfect phylogeny model, plus baselines and search."""

from .tree import (
    RootedTree,
    TreeInputError,
    ancestor_sums,
    ancestry_matrix,
    closest_ancestor_matrix,
    count_trees,
    decode_prufer,
    encode_prufer,
)
from .projection import (
    DegeneracyError,
    PathState,
    ProjectionResult,
    compute_rates,
    project,
    project_incremental,
    project_matrix,
    recover_solution,
)
from .oracle import OracleSolution, oracle_dual_at_t, oracle_project
from .baselines import (
    ConvergenceTrace,
    SolverConfig,
    admm_dual,
    admm_primal,
    autotune,
    pgd_dual,
    pgd_primal,
    polyhedron_project,
    simplex_project,
)
from .search import (
    RelationComparison,
    SearchReport,
    SearchSpec,
    compare_relations,
    objective,
    search_all,
)
from .generate import GaltonWatsonSpec, galton_watson_tree, random_instance

__all__ = [
    "RootedTree", "TreeInputError", "ancestor_sums", "ancestry_matrix",
    "closest_ancestor_matrix", "count_trees", "decode_prufer", "encode_prufer",
    "DegeneracyError", "PathState", "ProjectionResult", "compute_rates",
    "project", "project_matrix", "recover_solution", "project_incremental",
    "OracleSolution", "oracle_dual_at_t", "oracle_project",
    "ConvergenceTrace", "SolverConfig", "admm_dual", "admm_primal", "autotune",
    "pgd_dual", "pgd_primal", "polyhedron_project", "simplex_project",
    "RelationComparison", "SearchReport", "SearchSpec", "compare_relations",
    "objective", "search_all",
    "GaltonWatsonSpec", "galton_watson_tree", "random_instance",
]
