"""Zero-free disk bounds for chromatic polynomials.

The package computes and verifies radii C so that the chromatic
polynomial of a graph with maximum degree D has no root in |q| <= C*D,
both for the classical degree-only constants and for sharper per-graph
variants driven by rooted-tree generating functions.
"""

from .bounds import (
    BoundReport,
    complete_graph_bound,
    constants,
    cstar_delta,
    cstar_delta_a_form,
    cstar_graph,
    cstar_graph_series,
    graph_id,
    sokal_bound,
    verify_zero_free,
)
from .chromatic import chromatic_polynomial, count_proper_colorings
from .corpus import connected_graphs, named_corpus
from .errors import (
    ChromaboundError,
    GraphParseError,
    InconclusiveError,
    ResourceLimitError,
)
from .graphs import (
    Graph,
    NeighborhoodProfile,
    canonical_form,
    generate_graph,
    neighborhood_profile,
    parse_graph,
)
from .optimize import OptimizationResult, minimize_scalar
from .polymer import (
    CnBoundReport,
    FpConditionReport,
    PenroseReport,
    check_fp_condition,
    hardcore_partition,
    penrose_report,
    spanning_tree_count,
    verify_cn_bound,
)
from .polynomial import IntPolynomial, X
from .roots import RootSet, polynomial_roots, roots_inside
from .series import (
    TruncatedSeries,
    series_radius,
    solve_tree_series,
    sup_x_threshold,
    t_n_delta,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ChromaboundError",
    "CnBoundReport",
    "FpConditionReport",
    "Graph",
    "GraphParseError",
    "InconclusiveError",
    "IntPolynomial",
    "NeighborhoodProfile",
    "OptimizationResult",
    "PenroseReport",
    "ResourceLimitError",
    "RootSet",
    "TruncatedSeries",
    "X",
    "canonical_form",
    "check_fp_condition",
    "chromatic_polynomial",
    "complete_graph_bound",
    "connected_graphs",
    "constants",
    "count_proper_colorings",
    "cstar_delta",
    "cstar_delta_a_form",
    "cstar_graph",
    "cstar_graph_series",
    "generate_graph",
    "graph_id",
    "hardcore_partition",
    "minimize_scalar",
    "named_corpus",
    "neighborhood_profile",
    "parse_graph",
    "penrose_report",
    "polynomial_roots",
    "roots_inside",
    "series_radius",
    "sokal_bound",
    "solve_tree_series",
    "spanning_tree_count",
    "sup_x_threshold",
    "t_n_delta",
    "verify_cn_bound",
    "verify_zero_free",
]
