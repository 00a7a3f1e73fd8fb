import ast
import dataclasses
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import (
    Graph,
    NeighborhoodProfile,
    PenroseReport,
    ResourceLimitError,
    check_fp_condition,
    chromatic_polynomial,
    connected_graphs,
    generate_graph,
    hardcore_partition,
    named_corpus,
    neighborhood_profile,
    penrose_report,
    spanning_tree_count,
    t_n_delta,
    verify_cn_bound,
)
from chromabound import chromatic, polymer
from reference_oracles import (
    EnumerationCapError,
    RootedSpanningTree,
    classify_tree,
    connected_sets_masks,
    enumerate_spanning_trees,
    signed_connected_sum,
)


def test_signed_sum_small_graphs():
    assert signed_connected_sum(Graph(1, [])) == 1
    assert signed_connected_sum(Graph(2, [(0, 1)])) == -1
    assert signed_connected_sum(generate_graph("complete", n=3)) == 2
    assert signed_connected_sum(generate_graph("complete", n=4)) == -6
    assert signed_connected_sum(generate_graph("cycle", n=4)) == -3
    # Trees have a single connected spanning subgraph.
    assert signed_connected_sum(generate_graph("path", n=6)) == -1
    assert signed_connected_sum(generate_graph("star", leaves=5)) == -1


def test_signed_sum_input_validation():
    with pytest.raises(ValueError):
        signed_connected_sum(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        signed_connected_sum(Graph(0, []))
    with pytest.raises(EnumerationCapError):
        signed_connected_sum(generate_graph("complete", n=8))


def test_signed_sum_equals_linear_coefficient():
    # For connected G the signed sum is the linear coefficient of the
    # chromatic polynomial; the enumeration must agree with it.
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert signed_connected_sum(g) == chromatic_polynomial(g).coefficients[1]


def test_reference_oracles_import_only_graph():
    # The oracles share no code with the engines they check: of chromabound
    # they may import only the input type.
    tree = ast.parse((Path(__file__).parent / "reference_oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", a.name) for a in node.names]
    from_package = [(m, n) for m, n in imported if m.split(".")[0] == "chromabound"]
    assert from_package == [("chromabound", "Graph")]


def test_s_table_values():
    # In K3 each edge has S = -1 and the whole triangle S = 2.
    k3 = generate_graph("complete", n=3)
    table = polymer._s_table(k3.adjacency_masks, 3)
    assert table == {0b001: 1, 0b010: 1, 0b100: 1, 0b011: -1, 0b101: -1, 0b110: -1, 0b111: 2}


def test_enumerate_monomers():
    # The monomers are the connected sets of two or more vertices.
    def monomer_count(g):
        return sum(mask.bit_count() >= 2 for mask in polymer._s_table(g.adjacency_masks, g.n))

    assert monomer_count(generate_graph("complete", n=3)) == 4
    # Connected subsets of a path are the intervals.
    assert monomer_count(generate_graph("path", n=4)) == 6


def _connected_masks(g: Graph) -> dict[int, int]:
    """Every connected vertex set of g, as a mask, with its size."""
    full = (1 << g.n) - 1
    return {
        mask: mask.bit_count()
        for x in range(g.n)
        for mask in connected_sets_masks(g.adjacency_masks, x, full, 1, g.n)
    }


def test_s_table_matches_deletion_contraction():
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs += [g for _, g in named_corpus()]
    cache: dict = {}
    for g in graphs:
        table = polymer._s_table(g.adjacency_masks, g.n)
        sets = _connected_masks(g)
        assert table.keys() == sets.keys()
        for mask in sets:
            sub = g.induced(v for v in range(g.n) if mask >> v & 1)
            assert table[mask] == chromatic_polynomial(sub, cache=cache).coefficients[1]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_s_table_matches_the_edge_subset_oracle(data):
    # Every vertex set of a random graph: a connected one has the signed
    # sum the oracle enumerates, and one the oracle finds disconnected is
    # not in the table.
    n = data.draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    g = Graph(n, edges)
    table = polymer._s_table(g.adjacency_masks, n)
    for mask in range(1, 1 << n):
        sub = g.induced(v for v in range(n) if mask >> v & 1)
        if mask in table:
            assert table[mask] == signed_connected_sum(sub)
        else:
            with pytest.raises(ValueError, match="connected"):
                signed_connected_sum(sub)


def test_s_table_stops_at_the_state_cap(monkeypatch):
    k5 = generate_graph("complete", n=5)
    assert len(polymer._s_table(k5.adjacency_masks, 5)) == 31
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", 30)
    with pytest.raises(ResourceLimitError, match="more than 30 states"):
        polymer._s_table(k5.adjacency_masks, 5)
    with pytest.raises(ResourceLimitError):
        hardcore_partition(k5)
    with pytest.raises(ResourceLimitError):
        verify_cn_bound(k5, 5)
    with pytest.raises(ResourceLimitError):
        check_fp_condition(k5, 11.0, 0.5, 8)


@pytest.mark.parametrize(
    "name, kwargs, size, splits",
    [
        ("complete", {"n": 5}, 5, 49),
        ("cycle", {"n": 18}, 17, 528),
        ("petersen", {}, 10, 3971),
        ("star", {"n": 10}, 11, 58025),
        ("star", {"n": 11}, 12, 175099),
    ],
)
def test_the_signed_sum_dp_visits_a_pinned_number_of_splits(monkeypatch, name, kwargs, size, splits):
    # The cap counts the work, every split (Y, J) visited, not the table:
    # a star of k leaves visits about 3^k splits for about 2^k sets.
    masks = generate_graph(name, **kwargs).adjacency_masks
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", splits)
    polymer._s_table(masks, size)
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", splits - 1)
    with pytest.raises(ResourceLimitError, match=f"signed-sum DP visited more than {splits - 1} states"):
        polymer._s_table(masks, size)


def test_spanning_tree_enumeration_counts():
    for g, want in [
        (generate_graph("complete", n=3), 3),
        (generate_graph("complete", n=4), 16),
        (generate_graph("complete", n=5), 125),
        (generate_graph("cycle", n=6), 6),
        (generate_graph("path", n=5), 1),
        (generate_graph("petersen"), 2000),
    ]:
        trees = list(enumerate_spanning_trees(g))
        assert len(trees) == want
        assert len({t.edges for t in trees}) == want
        assert spanning_tree_count(g) == want


def test_spanning_tree_count_cayley():
    # Exact well past the 2^53 limit of a float determinant (K15 onward).
    for n in range(2, 26):
        assert spanning_tree_count(generate_graph("complete", n=n)) == n ** (n - 2)


def test_spanning_tree_count_degenerate():
    assert spanning_tree_count(Graph(1, [])) == 1
    assert spanning_tree_count(Graph(0, [])) == 1
    assert spanning_tree_count(Graph(3, [(0, 1)])) == 0


def test_rooted_tree_validation():
    k3 = generate_graph("complete", n=3)
    t = RootedSpanningTree(k3, {1: 0, 2: 1}, {0: 0, 1: 1, 2: 2})
    assert t.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        RootedSpanningTree(k3, {1: 0}, {0: 0, 1: 1})
    with pytest.raises(ValueError):
        RootedSpanningTree(k3, {1: 0, 2: 1}, {0: 0, 1: 1, 2: 5})
    p3 = generate_graph("path", n=3)
    with pytest.raises(ValueError):
        RootedSpanningTree(p3, {1: 0, 2: 0}, {0: 0, 1: 1, 2: 1})


def test_classification_by_hand():
    k3 = generate_graph("complete", n=3)
    fan = RootedSpanningTree(k3, {1: 0, 2: 0}, {0: 0, 1: 1, 2: 1})
    chain = RootedSpanningTree(k3, {1: 0, 2: 1}, {0: 0, 1: 1, 2: 2})
    assert classify_tree(fan) == "neither"
    assert classify_tree(chain) == "penrose"
    c4 = generate_graph("cycle", n=4)
    lopsided = RootedSpanningTree(
        c4, {1: 0, 3: 0, 2: 1}, {0: 0, 1: 1, 3: 1, 2: 2}
    )
    assert classify_tree(lopsided) == "weakly-penrose-only"


def test_penrose_report_examples():
    rep = penrose_report(generate_graph("complete", n=3))
    assert rep == PenroseReport(2, 3, 2)
    rep = penrose_report(generate_graph("complete", n=4))
    assert rep == PenroseReport(-6, 16, 6)
    rep = penrose_report(generate_graph("cycle", n=4))
    assert rep == PenroseReport(-3, 4, 3)


def test_penrose_identity_small_corpus():
    for n in range(1, 6):
        for g in connected_graphs(n):
            rep = penrose_report(g)
            sign = -1 if (n - 1) % 2 else 1
            assert rep.s_value == sign * rep.penrose_count
            assert rep.penrose_count <= rep.tree_count


def _census(g):
    """The Penrose count by building and sorting every tree."""
    return sum(classify_tree(t) == "penrose" for t in enumerate_spanning_trees(g))


def test_penrose_dps_match_the_census():
    # Every connected graph on at most 7 vertices (996 graphs).
    for n in range(1, 8):
        for g in connected_graphs(n):
            rep = penrose_report(g)
            assert rep.penrose_count == _census(g)
            assert rep.tree_count == spanning_tree_count(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_penrose_dps_match_the_census_under_relabeling(data):
    n = data.draw(st.integers(2, 6))
    graphs = connected_graphs(n)
    g = graphs[data.draw(st.integers(0, len(graphs) - 1))]
    perm = data.draw(st.permutations(range(n)))
    h = g.relabeled(perm)
    rep, base = penrose_report(h), penrose_report(g)
    assert rep.penrose_count == _census(h)
    # S does not depend on the labels, nor, by the identity, does the
    # Penrose count from any root.
    assert rep == base


def test_penrose_counts_closed_forms():
    for n, want in [(3, 2), (6, 120), (8, 5040), (10, 362880)]:
        rep = penrose_report(generate_graph("complete", n=n))
        assert rep.penrose_count == want
        assert rep.tree_count == n ** (n - 2)
    for n in range(4, 41, 6):
        rep = penrose_report(generate_graph("cycle", n=n))
        assert (rep.tree_count, rep.penrose_count) == (n, n - 1)
    for g in [
        generate_graph("path", n=30),
        generate_graph("star", leaves=40),
        Graph(7, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5), (5, 6)]),
    ]:
        rep = penrose_report(g)
        assert (rep.tree_count, rep.penrose_count) == (1, 1)


def test_penrose_report_stops_at_the_state_cap():
    # The layering DP finishes grid 5x5 (32126211 trees) but not this graph.
    with pytest.raises(ResourceLimitError, match="Penrose layering DP visited more than 500000 states"):
        penrose_report(generate_graph("random-regular", n=18, degree=4, seed=1))


@pytest.mark.parametrize(
    "name, kwargs, states",
    [
        ("grid", {"rows": 4, "cols": 4}, 4639),
        ("random-regular", {"n": 16, "degree": 3, "seed": 1}, 13436),
        ("petersen", {}, 1017),
        ("random-regular", {"n": 18, "degree": 3, "seed": 1}, 66696),
        ("random-regular", {"n": 12, "degree": 4, "seed": 2}, 13569),
        ("grid", {"rows": 5, "cols": 5}, 310820),
        ("random-regular", {"n": 16, "degree": 4, "seed": 2}, 364475),
    ],
)
def test_the_tree_dps_visit_a_pinned_number_of_states(monkeypatch, name, kwargs, states):
    # What counts as a state decides which graphs verify skips: at a cap
    # of `states` the layering DP finishes, and one below it the DP stops.
    g = generate_graph(name, **kwargs)
    masks, rest = g.adjacency_masks, ((1 << g.n) - 1) & ~1
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", states)
    polymer._penrose_layerings(masks, rest)
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", states - 1)
    with pytest.raises(ResourceLimitError, match=f"Penrose layering DP visited more than {states - 1} states"):
        polymer._penrose_layerings(masks, rest)


def test_the_penrose_report_holds_the_signed_sum_and_two_tree_counts():
    assert [f.name for f in dataclasses.fields(PenroseReport)] == [
        "s_value", "tree_count", "penrose_count"
    ]


def test_a_cap_the_layering_dp_fits_under_gives_the_whole_report(monkeypatch):
    # The layering DP needs 13569 states on this graph, so at a cap of
    # 50000 the report is complete: nothing else in it counts states.
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", 50_000)
    g = generate_graph("random-regular", n=12, degree=4, seed=2)
    assert penrose_report(g) == PenroseReport(-32176, 366832, 32176)
    assert spanning_tree_count(g) == 366832


@pytest.mark.parametrize(
    "name, kwargs, count",
    [
        ("grid", {"rows": 4, "cols": 4}, 17493),
        ("random-regular", {"n": 16, "degree": 3, "seed": 1}, 37752),
        ("random-regular", {"n": 18, "degree": 3, "seed": 1}, 199500),
    ],
)
def test_penrose_dp_counts_at_sixteen_to_eighteen_vertices(name, kwargs, count):
    # The first two are the counts the DP gave before it split the
    # unplaced vertices into components.
    g = generate_graph(name, **kwargs)
    assert polymer._penrose_layerings(g.adjacency_masks, ((1 << g.n) - 1) & ~1) == count


def test_the_layering_dp_reaches_a_sixteen_vertex_quartic_graph():
    # -S from chromatic_polynomial (about 3 s, so not run here) is the same.
    g = generate_graph("random-regular", n=16, degree=4, seed=2)
    rest = ((1 << g.n) - 1) & ~1
    assert polymer._penrose_layerings(g.adjacency_masks, rest) == 2576224


def test_penrose_report_validation_and_json():
    for counts in [(2, 3, 4), (0, 1, -1)]:
        with pytest.raises(ValueError):
            PenroseReport(*counts)
    rep = penrose_report(generate_graph("cycle", n=5))
    assert rep == PenroseReport(s_value=4, tree_count=5, penrose_count=4)


def _xi(g: Graph, q) -> Fraction:
    """Xi_G(q) itself, read off the polynomial q^n Xi_G(q)."""
    q = Fraction(q)
    return hardcore_partition(g)(q) / q**g.n


def test_partition_identity_connected():
    for g in [
        generate_graph("complete", n=4),
        generate_graph("cycle", n=5),
        generate_graph("star", leaves=4),
        generate_graph("grid", rows=2, cols=3),
    ]:
        assert hardcore_partition(g) == chromatic_polynomial(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partition_polynomial_is_the_coloring_polynomial(data):
    # Any graph on 0-8 vertices, edgeless and disconnected ones included:
    # q^n Xi_G(q) = P_G(q), coefficient by coefficient.
    n = data.draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=16)) if pairs else []
    g = Graph(n, edges)
    assert hardcore_partition(g) == chromatic_polynomial(g)


def test_chrom_cache_holds_one_graphs_entries():
    graphs = [
        Graph(8, [(u, v) for u in range(4) for v in range(4, 8)]),  # K4,4
        generate_graph("petersen"),
        generate_graph("grid", rows=3, cols=3),
        generate_graph("random-regular", n=10, degree=3, seed=7),
    ]

    def alone(g):
        polymer._CHROM_CACHE.clear()
        return penrose_report(g), dict(polymer._CHROM_CACHE)

    fresh = [alone(g) for g in graphs]
    assert all(entries for _, entries in fresh)
    polymer._CHROM_CACHE.clear()
    for g, (report, entries) in zip(graphs, fresh):
        # a report after another graph's leaves this graph's entries only
        assert penrose_report(g) == report
        assert polymer._CHROM_CACHE == entries
        # and a second report on the same graph keeps them
        assert penrose_report(g) == report
        assert polymer._CHROM_CACHE == entries
    polymer._CHROM_CACHE.clear()


# Values of the earlier engine, which took every S from deletion-contraction.
PINNED_NORMS = {
    "grid-4x4": [
        4, 16, 58, 190, 574, 1583, 3982, 9020, 18234, 32380, 49506, 63172, 63743, 45415, 17493,
    ],
    "petersen": [3, 9, 28, 84, 219, 476, 816, 1026, 704],
    "complete-12": [
        11, 110, 990, 7920, 55440, 332640, 1663200, 6652800, 19958400, 39916800, 39916800,
    ],
}
PINNED_PARTITIONS = {
    ("complete", 6, None): ["0", "0", "45/16807", "189/1250"],
    ("cycle", 8, None): ["1/128", "86/2187", "7985/117649", "4304673/10000000"],
    ("star", 7, None): ["1/128", "128/2187", "78125/823543", "4782969/10000000"],
    ("random-regular", 8, 288545018): ["0", "16/2187", "2145/117649", "35451/125000"],
    ("path", 8, None): ["1/128", "128/2187", "78125/823543", "4782969/10000000"],
}
PINNED_FP = [
    ("petersen", 16, 10.0, 0.5, "violated", 1.5932966335760814, None),
    ("petersen", 16, 40.0, 0.1, "satisfied", 0.09990907703746271, 6.293119352818625e-11),
    ("grid-4x4", 16, 10.0, 0.5, "violated", 2.665736973947863, None),
    ("grid-4x4", 16, 40.0, 0.1, "violated", 0.1371242458241156, None),
    ("random-regular-14", 12, 10.0, 0.5, "violated", 1.561689312046673, None),
    ("random-regular-14", 12, 40.0, 0.1, "satisfied", 0.0998535811017847, 2.4418849294264047e-08),
]


def _pinned_graph(name: str) -> Graph:
    return {
        "grid-4x4": lambda: generate_graph("grid", n=4),
        "petersen": lambda: generate_graph("petersen"),
        "complete-12": lambda: generate_graph("complete", n=12),
        "random-regular-14": lambda: generate_graph("random-regular", n=14, degree=3, seed=1),
    }[name]()


def test_activity_norms_are_pinned():
    for name, want in PINNED_NORMS.items():
        g = _pinned_graph(name)
        assert polymer._norms_scaled(g, g.n) == tuple(want)


def test_partition_values_are_pinned():
    for (family, n, seed), want in PINNED_PARTITIONS.items():
        kwargs = {"n": n} if seed is None else {"n": n, "degree": 3, "seed": seed}
        g = generate_graph(family, **kwargs)
        got = [_xi(g, q) for q in (2, 3, Fraction(7, 2), 10)]
        assert got == [Fraction(z) for z in want]


def test_fp_reports_are_pinned():
    for name, order, q, a, status, head, tail in PINNED_FP:
        rep = check_fp_condition(_pinned_graph(name), q, a, order)
        assert (rep.status, rep.order, rep.q, rep.a) == (status, order, q, a)
        assert rep.head == pytest.approx(head, rel=1e-12)
        assert rep.tail_bound == (None if tail is None else pytest.approx(tail, rel=1e-12))


def test_partition_identity_disconnected():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert hardcore_partition(g) == chromatic_polynomial(g)


def test_partition_stops_at_its_vertex_cap():
    with pytest.raises(ResourceLimitError, match="9 vertices, exceeding the cap of 8"):
        hardcore_partition(generate_graph("cycle", n=9))


def test_cq_norm_values():
    p3 = generate_graph("path", n=3)
    assert verify_cn_bound(p3, 4).lhs_scaled == (2, 1, 0)
    k3 = generate_graph("complete", n=3)
    assert verify_cn_bound(k3, 3).lhs_scaled == (2, 2)
    with pytest.raises(ValueError):
        verify_cn_bound(k3, 1)


def test_cq_norm_matches_per_vertex_signed_sums():
    # The per-vertex formula, with every S from the enumeration oracle.
    for order in range(2, 6):
        for g in connected_graphs(order):
            want = tuple(
                max(
                    sum(
                        abs(signed_connected_sum(g.induced(v for v in range(g.n) if s >> v & 1)))
                        for s in connected_sets_masks(g.adjacency_masks, x, (1 << g.n) - 1, n, n)
                    )
                    for x in range(g.n)
                )
                for n in range(2, g.n + 1)
            )
            assert verify_cn_bound(g, g.n).lhs_scaled == want


def test_cn_bound_triangle_equalities():
    k3 = generate_graph("complete", n=3)
    rep = verify_cn_bound(k3, 4)
    assert rep.holds
    assert rep.lhs_scaled[:2] == rep.rhs_scaled[:2]
    assert rep.lhs_scaled[2] == 0


def test_cn_bound_rhs_is_the_degree_series_on_binomial_profiles():
    # In a triangle-free graph of maximum degree d every subset of a
    # largest neighbourhood is independent, so the profile is binomial
    # and the series is t_n_delta(d), which test_series.py holds to the
    # closed form.
    for g, d in [
        (generate_graph("petersen"), 3),
        (generate_graph("cycle", n=8), 2),
        (generate_graph("grid", n=3), 4),
    ]:
        assert neighborhood_profile(g) == NeighborhoodProfile.binomial(d)
        assert verify_cn_bound(g, 5).rhs_scaled == t_n_delta(d, 5).coefficients[1:]


def test_activity_floats_saturate_where_q_powers_leave_the_float_range():
    k3 = generate_graph("complete", n=3)
    # e^{1+a} overflows, yet e^{1+a} * Delta / q is finite
    rep = check_fp_condition(k3, 1e300, 709.0, 8)
    assert rep.geometric_ratio == pytest.approx(2.0 * math.exp(710.0 - 300.0 * math.log(10.0)))


def test_cn_bound_random_graphs():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        g = Graph(n, edges)
        if g.max_degree == 0:
            continue
        assert verify_cn_bound(g, min(5, n)).holds


def test_fp_condition_statuses():
    k3 = generate_graph("complete", n=3)
    sat = check_fp_condition(k3, 11.0, 0.597, 64)
    assert sat.status == "satisfied"
    assert sat.head + sat.tail_bound <= sat.threshold
    bad = check_fp_condition(k3, 1.0, 0.5, 16)
    assert bad.status == "violated"
    open_case = check_fp_condition(k3, 30.0, 2.0, 8)
    assert open_case.status == "inconclusive"
    assert open_case.geometric_ratio >= 1.0


def test_fp_condition_validation_and_json():
    k3 = generate_graph("complete", n=3)
    with pytest.raises(ValueError):
        check_fp_condition(k3, 0.0, 0.5, 16)
    with pytest.raises(ValueError):
        check_fp_condition(k3, 11.0, -1.0, 16)
    with pytest.raises(ValueError):
        check_fp_condition(k3, 11.0, 0.5, 1)
    for q, a in ((math.inf, 0.5), (math.nan, 0.5), (11.0, math.inf), (11.0, 710.0)):
        with pytest.raises(ValueError):
            check_fp_condition(k3, q, a, 16)
    rep = check_fp_condition(k3, 11.0, 0.597, 64)
    assert (rep.status, rep.order, rep.q, rep.a) == ("satisfied", 64, 11.0, 0.597)
    assert all(
        math.isfinite(x) for x in (rep.head, rep.tail_bound, rep.threshold, rep.geometric_ratio)
    )
