import types

import chromabound

_PUBLIC = [
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


def test_public_api_is_pinned():
    assert len(_PUBLIC) == 44 and _PUBLIC == sorted(_PUBLIC)
    assert chromabound.__all__ == _PUBLIC
    for name in _PUBLIC:
        getattr(chromabound, name)
    public = {
        name
        for name, value in vars(chromabound).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(_PUBLIC)
