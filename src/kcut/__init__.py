"""Minimum k-cut toolkit.

Exact solving on unweighted multigraphs via spanning-tree-guided dynamic
programming over edge-unbreakable tree decompositions, plus the rounding,
stripping, and sampling stages that turn it into a (1+epsilon)
approximation scheme for weighted graphs.
"""

__version__ = "0.1.0"

from .cuts import (
    FlowResult,
    OracleTooLargeError,
    approx2_kcut,
    global_min_2cut,
    min_st_edge_cut,
    min_vertex_separator,
    oracle_exact_kcut,
)
from .decomposition import (
    LeanWitness,
    TreeDecomposition,
    build_unbreakable_decomposition,
    is_compact,
    potential,
    validate_decomposition,
)
from .dp import (
    ExactResult,
    FeasibleFamily,
    ProjectedTree,
    exact_values,
    feasible_family,
    project_tree,
    solve_exact,
)
from .graph import (
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Partition,
    RoundResult,
    connected_components,
    cut_weight,
    project,
    read_graph,
    refines,
    round_to_multigraph,
    write_graph,
)
from .scheme import SchemeResult, SchemeStats, combine_components, solve
from .sparsify import SampleResult, StripResult, sample_edges, strip_cheap_2cuts
from .treepack import TreeFamily, crossings, enumerate_spanning_trees, pack_trees

__all__ = [
    "EdgeCut",
    "ExactResult",
    "FeasibleFamily",
    "FlowResult",
    "InvalidInputError",
    "LeanWitness",
    "MultiGraph",
    "OracleTooLargeError",
    "Partition",
    "ProjectedTree",
    "RoundResult",
    "SampleResult",
    "SchemeResult",
    "SchemeStats",
    "StripResult",
    "TreeDecomposition",
    "TreeFamily",
    "approx2_kcut",
    "build_unbreakable_decomposition",
    "combine_components",
    "connected_components",
    "crossings",
    "cut_weight",
    "enumerate_spanning_trees",
    "exact_values",
    "feasible_family",
    "global_min_2cut",
    "is_compact",
    "min_st_edge_cut",
    "min_vertex_separator",
    "oracle_exact_kcut",
    "pack_trees",
    "potential",
    "project",
    "project_tree",
    "read_graph",
    "refines",
    "round_to_multigraph",
    "sample_edges",
    "solve",
    "solve_exact",
    "strip_cheap_2cuts",
    "validate_decomposition",
    "write_graph",
]
