import random

import pytest

from chromabound import (
    Graph,
    ResourceLimitError,
    chromatic_polynomial,
    count_proper_colorings,
    generate_graph,
)
from chromabound.chromatic import _edge_bit_masks
from chromabound.polynomial import X
from reference_oracles import colorings_by_inclusion_exclusion


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
