import hashlib

import pytest

from chromabound import (
    canonical_form,
    connected_graphs,
    corpus_graphs,
    graph_id,
    named_corpus,
)

# Connected unlabeled graphs by vertex count (level 8 is exercised in
# the acceptance suite to keep unit runtime down).
_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


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
    assert len(list(corpus_graphs(5))) == sum(_COUNTS[n] for n in range(1, 6))
    with pytest.raises(ValueError):
        connected_graphs(0)


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
    assert {name: graph_id(g) for name, g in named_corpus()} == {
        "complete-8": "g8v28e-22db39a1",
        "petersen": "g10v15e-c5d19800",
        "cycle-12": "g12v12e-96fd9b66",
        "path-12": "g12v11e-f0a8c3fb",
        "star-11": "g12v11e-b6497fc6",
        "grid-3x4": "g12v17e-d97c50b9",
        "random-regular-10-3": "g10v15e-e91d7526",
    }
