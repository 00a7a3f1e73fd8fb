import hashlib
import time
from functools import lru_cache

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import (
    Graph,
    ResourceLimitError,
    canonical_form,
    connected_graphs,
    graph_id,
    named_corpus,
)

# Connected unlabeled graphs by vertex count (OEIS A001349).
_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def test_level_counts():
    for n, want in _COUNTS.items():
        assert len(connected_graphs(n)) == want


def test_levels_are_connected_and_distinct():
    for n in range(1, 7):
        graphs = connected_graphs(n)
        assert all(g.n == n for g in graphs)
        assert all(g.is_connected() for g in graphs)
        forms = {canonical_form(g) for g in graphs}
        assert len(forms) == len(graphs)


def test_levels_are_canonical_representatives():
    for g in connected_graphs(5):
        assert tuple(g.adjacency_masks) == canonical_form(g)


def test_level_order_is_deterministic():
    first = [tuple(g.adjacency_masks) for g in connected_graphs(6)]
    second = [tuple(g.adjacency_masks) for g in connected_graphs(6)]
    assert first == second
    sizes = [g.m for g in connected_graphs(6)]
    assert sizes == sorted(sizes)


def test_corpus_iterator_is_cumulative():
    with pytest.raises(ValueError):
        connected_graphs(0)


def test_level_ten_is_refused_before_any_work():
    # 11716571 classes; level 9 alone takes hundreds of MB
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        connected_graphs(10)
    assert time.perf_counter() - t0 < 0.5


def test_named_corpus():
    entries = named_corpus()
    names = [name for name, _ in entries]
    assert len(set(names)) == len(names)
    by_name = dict(entries)
    assert by_name["complete-8"].n == 8 and by_name["complete-8"].m == 28
    assert by_name["petersen"].degrees() == (3,) * 10
    assert by_name["cycle-12"].n == 12
    assert by_name["grid-3x4"].n == 12
    assert by_name["random-regular-10-3"].degrees() == (3,) * 10
    assert all(g.n <= 12 for _, g in entries)
    assert all(g.is_connected() for _, g in entries)


def test_levels_and_graph_ids_are_pinned():
    # Any change to canonical labeling that alters a representative, the
    # level order or a graph_id shows here.
    digest = hashlib.sha1()
    for n in range(1, 8):
        for g in connected_graphs(n):
            digest.update(repr(tuple(g.adjacency_masks)).encode())
    assert digest.hexdigest() == "c95895b85d6140c0e1b16b30c56c76e72510ee9b"
    digest = hashlib.sha1()
    for g in connected_graphs(8):
        digest.update(repr(tuple(g.adjacency_masks)).encode())
    assert digest.hexdigest() == "86880c98baeab1e4975d252ab0ea0518b7ec90f3"
    assert {name: graph_id(g) for name, g in named_corpus()} == {
        "complete-8": "g8v28e-22db39a1",
        "petersen": "g10v15e-c5d19800",
        "cycle-12": "g12v12e-96fd9b66",
        "path-12": "g12v11e-f0a8c3fb",
        "star-11": "g12v11e-b6497fc6",
        "grid-3x4": "g12v17e-d97c50b9",
        "random-regular-10-3": "g10v15e-e91d7526",
    }


@lru_cache(maxsize=None)
def _representatives(n: int) -> frozenset:
    return frozenset(tuple(g.adjacency_masks) for g in connected_graphs(n))


@st.composite
def _connected_labeled_graphs(draw):
    # a random spanning tree, random extra edges, then a random labeling
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())}
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(_connected_labeled_graphs())
def test_every_connected_graph_has_a_representative(g):
    assert canonical_form(g) in _representatives(g.n)
