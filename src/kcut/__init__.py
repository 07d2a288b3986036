"""Minimum k-cut toolkit.

Exact solving on unweighted multigraphs via spanning-tree-guided dynamic
programming over edge-unbreakable tree decompositions, plus the rounding,
stripping, and sampling stages that turn it into a (1+epsilon)
approximation scheme for weighted graphs.

The package exports what ``solve``, ``solve_exact``, ``exact_values``, the
CLI and the benchmark call, and the exact baselines they are checked
against.  Reference code that only the tests compare against lives in the
test suite, not here.
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
from .dp import ExactResult, exact_values, solve_exact
from .graph import (
    EdgeCut,
    InvalidInputError,
    MultiGraph,
    Partition,
    RoundResult,
    connected_components,
    cut_weight,
    read_graph,
    round_to_multigraph,
    write_graph,
)
from .scheme import SchemeResult, SchemeStats, combine_components, solve
from .sparsify import SampleResult, StripResult, sample_edges, strip_cheap_2cuts
from .treepack import TreeFamily, enumerate_spanning_trees, pack_trees

__all__ = [
    "EdgeCut",
    "ExactResult",
    "FlowResult",
    "InvalidInputError",
    "LeanWitness",
    "MultiGraph",
    "OracleTooLargeError",
    "Partition",
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
    "cut_weight",
    "enumerate_spanning_trees",
    "exact_values",
    "global_min_2cut",
    "is_compact",
    "min_st_edge_cut",
    "min_vertex_separator",
    "oracle_exact_kcut",
    "pack_trees",
    "potential",
    "read_graph",
    "round_to_multigraph",
    "sample_edges",
    "solve",
    "solve_exact",
    "strip_cheap_2cuts",
    "validate_decomposition",
    "write_graph",
]
