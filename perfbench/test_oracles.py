"""Tests of the benchmark's oracles against networkx.

    python3 -m pytest perfbench/test_oracles.py -q

networkx (and sympy, for its chromatic polynomial) must be installed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

nx = pytest.importorskip("networkx")


def _edges(g) -> list[tuple[int, int]]:
    return [(int(u), int(v)) for u, v in g.edges()]


def _connected_atlas(n: int) -> list:
    return [
        g for g in nx.graph_atlas_g()
        if g.number_of_nodes() == n and nx.is_connected(g)
    ]


def test_atlas_connected_counts():
    counts = [len(_connected_atlas(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]


def test_chromatic_polynomial_on_six_vertex_graphs():
    sympy = pytest.importorskip("sympy")
    graphs = _connected_atlas(6)
    assert len(graphs) == 112
    for g in graphs:
        expr = nx.chromatic_polynomial(g)
        x = sorted(expr.free_symbols, key=str)[0]
        expected = [int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
        assert oracles.chromatic_coefficients(6, _edges(g)) == expected


def test_chromatic_polynomial_of_disconnected_and_edgeless_graphs():
    # two disjoint edges: (q(q-1))^2
    assert oracles.chromatic_coefficients(4, [(0, 1), (2, 3)]) == [0, 0, 1, -2, 1]
    assert oracles.chromatic_coefficients(3, []) == [0, 0, 0, 1]
    assert oracles.chromatic_coefficients(1, []) == [0, 1]


@pytest.mark.parametrize(
    "g",
    [
        nx.petersen_graph(),
        nx.complete_graph(6),
        nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 4)),
        nx.cycle_graph(12),
        nx.random_regular_graph(3, 12, seed=5),
    ],
)
def test_spanning_trees_match_networkx(g):
    expected = round(nx.number_of_spanning_trees(g))
    assert oracles.spanning_trees(g.number_of_nodes(), _edges(g)) == expected


def test_spanning_trees_on_six_vertex_graphs():
    for g in _connected_atlas(6):
        expected = round(nx.number_of_spanning_trees(g))
        assert oracles.spanning_trees(6, _edges(g)) == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_disk_test_on_complete_graphs(n):
    # the roots of P_{K_n} are exactly 0, 1, ..., n-1
    g = nx.complete_graph(n)
    poly = oracles.chromatic_coefficients(n, _edges(g))
    top = n - 1
    assert not oracles.roots_inside(poly, Fraction(top))
    assert oracles.roots_inside(poly, Fraction(top) + Fraction(1, 10**9))
    assert not oracles.roots_inside(poly, Fraction(top) - Fraction(1, 10**9))
    lo, hi = oracles.max_root_modulus(poly)
    assert lo <= top < hi


def test_disk_test_sees_multiple_roots():
    # q (q-1)^11, the chromatic polynomial of any tree on 12 vertices
    poly = oracles.chromatic_coefficients(12, [(0, i) for i in range(1, 12)])
    assert poly == [0] + [comb(11, k) * (-1) ** (11 - k) for k in range(12)]
    lo, hi = oracles.max_root_modulus(poly)
    assert lo <= 1 < hi
    assert hi - lo <= Fraction(1, 10**9) * hi


def test_regular_profile_series_matches_closed_form():
    for delta in (2, 3, 6):
        z = tuple(comb(delta, k) for k in range(delta + 1))
        zt = tuple(comb(delta - 1, k) for k in range(delta))
        assert oracles.tree_series_lagrange(z, zt, 30) == oracles.regular_tree_counts(delta, 30)


def test_profile_of_triangle_free_neighbourhoods_is_binomial():
    g = nx.petersen_graph()
    delta, t, t_tilde = oracles.neighborhood_profile(10, _edges(g))
    assert (delta, t, t_tilde) == (3, (3, 3, 1), (2, 1))
    assert oracles.per_graph_bound(t, t_tilde) == pytest.approx(
        oracles.degree_only_bound(3), rel=1e-12
    )


def test_complete_graph_profile_gives_the_complete_form():
    g = nx.complete_graph(5)
    delta, t, t_tilde = oracles.neighborhood_profile(5, _edges(g))
    assert (delta, t, t_tilde) == (4, (4, 0, 0, 0), (3, 0, 0))
    assert oracles.per_graph_bound(t, t_tilde) == pytest.approx(
        oracles.complete_form(4), rel=1e-9
    )
