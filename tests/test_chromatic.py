import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import (
    Graph,
    ResourceLimitError,
    chromatic,
    chromatic_polynomial,
    count_proper_colorings,
    generate_graph,
)
from chromabound.chromatic import _edge_bit_masks
from chromabound.polynomial import X
from reference_oracles import colorings_by_inclusion_exclusion, colorings_by_independent_partitions


def test_known_polynomials():
    k3 = generate_graph("complete", n=3)
    assert chromatic_polynomial(k3) == X * (X - 1) * (X - 2)
    k4 = generate_graph("complete", n=4)
    assert chromatic_polynomial(k4) == X * (X - 1) * (X - 2) * (X - 3)
    tree = generate_graph("star", leaves=4)
    assert chromatic_polynomial(tree) == X * (X - 1) ** 4
    c5 = generate_graph("cycle", n=5)
    assert chromatic_polynomial(c5) == (X - 1) ** 5 - (X - 1)


def test_edgeless_and_empty():
    assert chromatic_polynomial(Graph(3, [])) == X**3
    assert chromatic_polynomial(Graph(0, [])).coefficients == (1,)


def test_disconnected_is_component_product():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    p = chromatic_polynomial(g)
    triangle = chromatic_polynomial(generate_graph("complete", n=3))
    edge = chromatic_polynomial(Graph(2, [(0, 1)]))
    point = chromatic_polynomial(Graph(1, []))
    assert p == triangle * edge * point


def test_polynomial_matches_oracle_random_graphs():
    rng = random.Random(2024)
    for trial in range(25):
        n = rng.randrange(1, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        p = chromatic_polynomial(g)
        for q in range(5):
            assert p(q) == count_proper_colorings(g, q), (trial, q)


def _random_chordal(rng: random.Random, n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of a chordal graph on n vertices and its clique sizes |K_i|.

    Vertex i joins K_i, a random subset of the clique {j} + K_j of a random
    earlier vertex j (empty for some i, so some graphs are disconnected).
    """
    cliques: list[set[int]] = []
    edges = []
    for i in range(n):
        k = set()
        if i and rng.random() < 0.9:
            j = rng.randrange(i)
            k = {u for u in cliques[j] | {j} if rng.random() < 0.9}
        cliques.append(k)
        edges += [(u, i) for u in k]
    return edges, [len(k) for k in cliques]


def _linear_product(roots: list[int]) -> tuple[int, ...]:
    """Ascending coefficients of prod (q - r), in plain integers."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


def test_chordal_graphs_match_their_perfect_elimination_product():
    # Coloring vertices in elimination order, vertex i has q - |K_i| colors:
    # P(q) = prod (q - |K_i|), independent of deletion-contraction. The
    # labels are shuffled so that the order is not the vertex order.
    rng = random.Random(16)
    for trial in range(220):
        sizes = [rng.randrange(1, 15)]
        if trial % 10 == 0:
            sizes.append(rng.randrange(1, 15 - sizes[0] + 1))  # disjoint union
        edges, clique_sizes, offset = [], [], 0
        for n in sizes:
            part_edges, part_sizes = _random_chordal(rng, n)
            edges += [(u + offset, v + offset) for u, v in part_edges]
            clique_sizes += part_sizes
            offset += n
        perm = list(range(offset))
        rng.shuffle(perm)
        g = Graph(offset, [(perm[u], perm[v]) for u, v in edges])
        assert chromatic_polynomial(g).coefficients == _linear_product(clique_sizes), trial


def test_isomorphic_graphs_share_cache_entries():
    # Petersen has no simplicial vertex and is not a cycle, so it reaches the memo
    cache = {}
    g = generate_graph("petersen")
    chromatic_polynomial(g, cache=cache)
    size_after_first = len(cache)
    assert size_after_first > 0
    perm = [3, 5, 1, 0, 4, 2, 9, 8, 7, 6]
    chromatic_polynomial(g.relabeled(perm), cache=cache)
    assert len(cache) == size_after_first


def test_vertex_cap():
    big = generate_graph("path", n=19)
    with pytest.raises(ResourceLimitError):
        chromatic_polynomial(big)
    assert chromatic_polynomial(big, max_vertices=19)(2) == 2


def test_oracle_edge_cases():
    g = generate_graph("cycle", n=4)
    assert count_proper_colorings(g, 0) == 0
    assert count_proper_colorings(g, 1) == 0
    assert count_proper_colorings(g, 2) == 2
    assert count_proper_colorings(Graph(3, []), 2) == 8
    assert count_proper_colorings(Graph(0, []), 5) == 1
    with pytest.raises(ValueError):
        count_proper_colorings(g, -1)


def test_oracle_caps():
    # q^n is capped at 2^20 color assignments, whatever n and q are.
    with pytest.raises(ResourceLimitError):
        count_proper_colorings(generate_graph("path", n=11), 4)
    with pytest.raises(ResourceLimitError):
        count_proper_colorings(generate_graph("path", n=21), 2)
    assert count_proper_colorings(generate_graph("path", n=4), 7) == 7 * 6**3
    assert count_proper_colorings(Graph(2, [(0, 1)]), 1024) == 1024 * 1023


def test_coloring_table_cache_is_bounded():
    # One table is 24 MB at the q^n cap (q = 2, n = 20), so only a few are
    # kept: enough for q = 2..4 at one n, as criterion 10 asks.
    _edge_bit_masks.cache_clear()
    size = _edge_bit_masks.cache_info().maxsize
    assert size is not None and 3 <= size <= 4
    for q in range(2, size + 12):
        _edge_bit_masks(q, 2)
    assert _edge_bit_masks.cache_info().currsize == size
    _edge_bit_masks.cache_clear()


def test_oracle_chunked_path_agrees():
    # 4^10 = 2^20 color assignments, the largest table the oracle builds;
    # the polynomial provides the reference value.
    g = generate_graph("cycle", n=10)
    assert count_proper_colorings(g, 4) == chromatic_polynomial(g)(4)


def test_larger_named_graphs():
    pete = generate_graph("petersen")
    p = chromatic_polynomial(pete)
    assert p(3) == 120
    assert p(0) == 0 and p(1) == 0 and p(2) == 0
    grid = generate_graph("grid", rows=3, cols=4)
    pg = chromatic_polynomial(grid)
    assert pg(2) == 2
    assert pg(1) == 0
    assert pg.degree == 12


def _line_graph(g: Graph) -> Graph:
    """One vertex per edge of g, two adjacent when their edges share an end."""
    edges = sorted(g.edges)
    return Graph(
        len(edges),
        [(i, j) for j, f in enumerate(edges) for i, e in enumerate(edges[:j]) if set(e) & set(f)],
    )


@pytest.mark.parametrize(
    "g",
    [
        generate_graph("random-regular", n=14, degree=3, seed=1),
        generate_graph("random-regular", n=13, degree=4, seed=3),
        # 4-regular with every vertex in two triangles
        _line_graph(generate_graph("random-regular", n=8, degree=3, seed=1)),
    ],
    ids=["random-regular-14-3", "random-regular-13-4", "line-graph-of-cubic-8"],
)
def test_polynomial_matches_inclusion_exclusion_past_the_coloring_oracle_cap(g):
    # count_proper_colorings stops at q^n = 2^20; this oracle has no such cap
    p = chromatic_polynomial(g)
    assert [p(q) for q in range(5)] == colorings_by_inclusion_exclusion(g, range(5))


@pytest.mark.parametrize(
    "g",
    [
        generate_graph("grid", rows=4, cols=4),
        generate_graph("random-regular", n=16, degree=3, seed=1),
        _line_graph(generate_graph("random-regular", n=10, degree=3, seed=1)),
    ],
    ids=["grid-4x4", "random-regular-16-3", "line-graph-of-cubic-10"],
)
def test_the_frontier_dp_and_deletion_contraction_agree(monkeypatch, g):
    # the threshold below and then above g's size, so that each engine runs
    cores = []
    frontier = chromatic._frontier_chrom
    monkeypatch.setattr(chromatic, "_frontier_chrom", lambda masks: frontier(cores.append(masks) or masks))
    monkeypatch.setattr(chromatic, "_FRONTIER_MIN_VERTICES", 1)
    by_frontier = chromatic_polynomial(g)
    assert [len(core) for core in cores] == [g.n]
    monkeypatch.setattr(chromatic, "_FRONTIER_MIN_VERTICES", g.n + 1)
    assert chromatic_polynomial(g) == by_frontier
    assert len(cores) == 1


def test_the_frontier_dp_on_a_dense_graph_matches_its_independent_set_partitions():
    # 11-regular on 16 vertices: deletion-contraction takes minutes here
    sparse = generate_graph("random-regular", n=16, degree=4, seed=2)
    g = Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16) if not sparse.has_edge(u, v)])
    p = chromatic_polynomial(g)
    assert [p(q) for q in range(g.n + 1)] == colorings_by_independent_partitions(g, range(g.n + 1))
    assert p(6) == 0 < p(7)


@st.composite
def _graphs_of_nine_to_twelve_vertices(draw):
    """A Hamiltonian cycle through shuffled labels and 1 to n chords: a
    connected graph, seldom with a simplicial vertex, so that most of
    them reach the frontier DP whole. At most n chords, since
    deletion-contraction, the reference, slows down on dense graphs."""
    n = draw(st.integers(9, 12))
    perm = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chords = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=n))
    return Graph(n, [(perm[i - 1], perm[i]) for i in range(n)] + sorted(chords))


@settings(max_examples=40, deadline=None)
@given(_graphs_of_nine_to_twelve_vertices())
def test_the_frontier_dp_from_nine_vertices_matches_deletion_contraction(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(chromatic, "_FRONTIER_MIN_VERTICES", 9)
        by_frontier = chromatic_polynomial(g)
    assert by_frontier == chromatic_polynomial(g)


@pytest.mark.parametrize(
    "name, kwargs, states",
    [
        ("random-regular", {"n": 18, "degree": 3, "seed": 1}, 300),
        ("random-regular", {"n": 16, "degree": 4, "seed": 2}, 2970),
        ("grid", {"rows": 5, "cols": 5}, 294),
    ],
)
def test_the_frontier_dp_creates_a_pinned_number_of_states(monkeypatch, name, kwargs, states):
    # At a cap of `states` the DP finishes, and one below it the DP stops.
    g = generate_graph(name, **kwargs)
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", states)
    assert chromatic_polynomial(g, max_vertices=g.n)(2) == (2 if name == "grid" else 0)
    monkeypatch.setattr(chromatic, "_DP_STATE_CAP", states - 1)
    with pytest.raises(ResourceLimitError, match=f"^the frontier DP visited more than {states - 1} states, its cap$"):
        chromatic_polynomial(g, max_vertices=g.n)


def test_the_frontier_result_is_kept_under_the_cores_own_masks():
    # a second call on the same graph takes P from the memo, not the DP
    g = generate_graph("random-regular", n=16, degree=3, seed=1)
    cache = {}
    p = chromatic_polynomial(g, cache=cache)
    assert cache == {g.adjacency_masks: p}
    assert chromatic_polynomial(g, cache=cache) == p
