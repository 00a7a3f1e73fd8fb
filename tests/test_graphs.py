import copy
import gc
import pickle
import random
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import (
    Graph,
    GraphParseError,
    canonical_form,
    NeighborhoodProfile,
    connected_graphs,
    generate_graph,
    neighborhood_profile,
    parse_graph,
)
from chromabound.graphs import _canonical_masks, _components_masks
from reference_oracles import connected_sets_masks, reference_canonical_masks


def test_graph_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    assert g.n == 4
    assert g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degrees() == (1, 2, 2, 1)
    assert g.max_degree == 2
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degree(1) == 2 and g.neighbors(3) == frozenset({2})
    for h in (g, generate_graph("petersen"), Graph(3, [])):
        assert Graph.from_masks(h.adjacency_masks) == h


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph_pickles_and_copies():
    g = generate_graph("petersen")
    for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert back == g and hash(back) == hash(g)
        assert back.adjacency_masks == g.adjacency_masks


@pytest.mark.parametrize(
    "masks, vertex",
    [
        ((0b10, 0), "vertex 0"),  # 0 lists 1, 1 does not list 0
        ((0, 0b01), "vertex 1"),  # 1 lists 0, 0 does not list 1
        ((0b1, 0), "vertex 0"),  # self-loop
        ((0b100, 0b0), "vertex 0"),  # bit 2 on two vertices
    ],
)
def test_from_masks_rejects_malformed_masks(masks, vertex):
    with pytest.raises(ValueError, match=vertex):
        Graph.from_masks(masks)


@st.composite
def _graphs_with_a_model(draw):
    """A graph built from drawn pairs (repeated, in either orientation) and
    the set of normalized pairs it should hold."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    drawn = draw(st.lists(st.sampled_from(pairs), max_size=2 * len(pairs))) if pairs else []
    listed = [(v, u) if draw(st.booleans()) else (u, v) for u, v in drawn]
    return n, Graph(n, listed), set(drawn)


@settings(max_examples=200, deadline=None)
@given(_graphs_with_a_model(), st.data())
def test_graph_api_matches_a_set_of_pairs(case, data):
    n, g, model = case
    assert g.n == n
    assert g.edges == model and g.m == len(model)
    assert g.degrees() == tuple(sum(v in e for e in model) for v in range(n))
    # out-of-range and negative vertices included: a mask lookup at -1
    # would read the last vertex
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in model), (u, v)

    perm = data.draw(st.permutations(range(n)))
    h = g.relabeled(perm)
    assert h == Graph(n, [(perm[u], perm[v]) for u, v in model])
    assert h.edges == {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in model}

    keep = sorted(data.draw(st.sets(st.integers(0, n - 1))) if n else [])
    pos = {v: i for i, v in enumerate(keep)}
    sub = g.induced(keep)
    assert sub.n == len(keep)
    assert sub.edges == {(pos[u], pos[v]) for u, v in model if u in pos and v in pos}

    same = Graph.from_masks(g.adjacency_masks)
    assert same == g and hash(same) == hash(g)


def test_a_graph_keeps_no_more_than_its_masks():
    # Every level-7 graph rebuilt from masks that already exist, then read
    # through each accessor: what stays allocated is what a Graph adds.
    masks = [g.adjacency_masks for g in connected_graphs(7)]
    kept = [None] * len(masks)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, adj in enumerate(masks):
            g = kept[i] = Graph.from_masks(adj)
            g.n, g.m, g.edges, g.degrees(), g.has_edge(0, 1), hash(g)
        del g
        # a full collection also empties the free lists, which would keep
        # the tuples that degrees() made and dropped
        gc.collect()
        per_graph = (tracemalloc.get_traced_memory()[0] - before) / len(masks)
    finally:
        tracemalloc.stop()
    assert per_graph < 200, per_graph


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    assert not g.is_connected()
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
    assert Graph(1, []).is_connected()
    assert Graph(0, []).is_connected()


def test_components_within_a_vertex_set_are_those_of_the_induced_subgraph():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
        within = rng.randrange(1 << n)
        verts = [v for v in range(n) if within >> v & 1]
        want = [tuple(verts[i] for i in comp) for comp in g.induced(verts).components()]
        got = [tuple(v for v in range(n) if comp >> v & 1) for comp in _components_masks(g.adjacency_masks, within)]
        assert got == want


def test_induced_subgraph():
    g = generate_graph("cycle", n=5)
    h = g.induced([0, 1, 2])
    assert h.n == 3 and h.m == 2
    assert h.has_edge(0, 1) and h.has_edge(1, 2)
    assert g.induced([4, 0, 4]) == Graph(2, [(0, 1)])


@pytest.mark.parametrize("vertices", [[0, 5], [3], [-1, 1]])
def test_induced_subgraph_rejects_out_of_range(vertices):
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 2)]).induced(vertices)


def test_relabeled_preserves_structure():
    rng = random.Random(11)
    g = generate_graph("grid", rows=2, cols=3)
    for _ in range(20):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        assert h.m == g.m
        assert sorted(h.degrees()) == sorted(g.degrees())
        for u, v in [(0, 1), (0, 3), (2, 5)]:
            assert h.has_edge(perm[u], perm[v]) == g.has_edge(u, v)


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(7)
    for name, kwargs in [
        ("cycle", {"n": 6}),
        ("path", {"n": 7}),
        ("grid", {"rows": 2, "cols": 3}),
        ("petersen", {}),
        ("complete", {"n": 5}),
    ]:
        g = generate_graph(name, **kwargs)
        base = canonical_form(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabeled(perm)) == base


def test_canonical_form_separates_nonisomorphic():
    path = generate_graph("path", n=4)
    star = generate_graph("star", leaves=3)
    assert canonical_form(path) != canonical_form(star)


def test_canonical_forms_match_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas = [h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 7]
    forms = [
        canonical_form(Graph(h.number_of_nodes(), h.edges()))
        for h in atlas
        if nx.is_connected(h)
    ]
    ours = [tuple(g.adjacency_masks) for n in range(1, 8) for g in connected_graphs(n)]
    assert len(set(forms)) == 996
    assert sorted(forms) == sorted(ours)


@st.composite
def _labeled_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph(n, edges), draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(_labeled_graphs())
def test_canonical_form_is_invariant_under_relabeling(case):
    g, perm = case
    form = canonical_form(g)
    assert canonical_form(g.relabeled(perm)) == form
    # the form is itself a labeling of g, and its own canonical form
    h = Graph.from_masks(form)
    assert sorted(h.degrees()) == sorted(g.degrees())
    assert canonical_form(h) == form


def _assert_reference_forms(g, perm):
    for h in (g, g.relabeled(perm)):
        masks = h.adjacency_masks
        assert _canonical_masks(masks) == reference_canonical_masks(masks)


@st.composite
def _larger_labeled_graphs(draw):
    n = draw(st.integers(2, 12))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges), draw(st.permutations(range(n)))


@settings(max_examples=120, deadline=None)
@given(_larger_labeled_graphs())
def test_canonical_masks_match_the_tuple_ranking_reference(case):
    # Integer signatures must give the very forms the tuple-ranking
    # refinement gave: memo keys, graph_ids and the corpus rest on them.
    g, perm = case
    _assert_reference_forms(g, perm)


@pytest.mark.parametrize(
    "name, kwargs",
    [("grid", {"rows": 4, "cols": 4}), ("petersen", {})]
    + [
        ("random-regular", {"n": n, "degree": d, "seed": seed})
        for n, d in [(12, 3), (14, 3), (16, 4), (18, 3)]
        for seed in (1, 2, 3)
    ],
)
def test_canonical_masks_match_the_reference_where_the_memo_works(name, kwargs):
    # The corpus pins stop at 8 vertices; deletion-contraction keys the
    # memo on 9-18-vertex graphs like these.
    g = generate_graph(name, **kwargs)
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    _assert_reference_forms(g, perm)


def _cube(d):
    return Graph(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1])


def _complete_multipartite(*parts):
    starts = [sum(parts[:i]) for i in range(len(parts) + 1)]
    return Graph(starts[-1], [
        (u, v)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        for u in range(starts[i], starts[i + 1])
        for v in range(starts[j], starts[j + 1])
    ])


def _circulant(n, jumps):
    return Graph(n, {tuple(sorted((u, (u + j) % n))) for u in range(n) for j in jumps})


@pytest.mark.parametrize(
    "name, g",
    [("petersen", generate_graph("petersen"))]
    + [(f"cycle-{n}", generate_graph("cycle", n=n)) for n in range(5, 13)]
    + [("Q3", _cube(3)), ("Q4", _cube(4))]
    + [("K3,3", _complete_multipartite(3, 3)), ("K4,4", _complete_multipartite(4, 4))]
    + [("grid-3x3", generate_graph("grid", n=3)), ("grid-4x4", generate_graph("grid", n=4))]
    + [(f"K{parts}", _complete_multipartite(*parts)) for parts in [(2, 2, 2), (3, 3, 3), (2, 3, 4), (1, 2, 2, 3)]]
    + [(f"C{n}{jumps}", _circulant(n, jumps)) for n, jumps in [(10, (1, 3)), (11, (1, 2)), (12, (1, 5)), (13, (1, 5))]],
)
def test_canonical_masks_match_the_reference_on_symmetric_graphs(name, g):
    # These graphs have many automorphisms, so the orbit pruning and the
    # return to the parting node cut most branches; the forms stay those
    # of the unpruned search.
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        _assert_reference_forms(g, perm)


def test_integer_signatures_order_equal_length_sorted_tuples():
    # Sorted colour tuples of one length below W: their order is the
    # descending order of the signatures sum(W ** (K - c)) refinement ranks.
    rng = random.Random(3)
    for _ in range(300):
        length = rng.randint(0, 6)
        colors = rng.randint(1, 12)
        base = length + 1
        top = colors - 1
        tuples = list({
            tuple(sorted(rng.randrange(colors) for _ in range(length)))
            for _ in range(rng.randint(1, 12))
        })

        def sig(t):
            return sum(base ** (top - c) for c in t)

        assert sorted(tuples) == sorted(tuples, key=sig, reverse=True)
        assert len({sig(t) for t in tuples}) == len(tuples)


def test_parse_edge_list_roundtrip():
    text = "# a comment\n4 3\n0 1\n1 2\n2 3\n"
    g = parse_graph(text)
    assert g.n == 4 and g.m == 3
    assert g.has_edge(1, 2)


def test_parse_edge_list_errors():
    with pytest.raises(GraphParseError):
        parse_graph("2 1\n0 0\n")
    with pytest.raises(GraphParseError):
        parse_graph("2 1\n0 5\n")
    with pytest.raises(GraphParseError):
        parse_graph("nonsense\n")


def test_parse_dimacs():
    text = "c comment\np edge 3 2\ne 1 2\ne 2 3\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2)
    # the format comes from the text: a line starting "p " makes it DIMACS
    assert parse_graph("c comment\n  p edge 2 1\ne 1 2\n").m == 1
    with pytest.raises(GraphParseError):
        parse_graph("p edge 2 1\ne 0 1\n")
    for header in ("p edge 2 -1", "p edge -1 0"):
        with pytest.raises(GraphParseError, match="^line 2: negative count in header$"):
            parse_graph(f"c comment\n{header}\n")


# Every message of the reader with its line, in both formats. "missing 'p
# edge n m' line" has no row: a text is read as DIMACS only when it holds
# a "p " line, and that line sets the header or raises first.
@pytest.mark.parametrize(
    "text, line, message",
    [
        ("", None, "empty input, expected 'n m' header"),
        ("# only a comment\n\n", None, "empty input, expected 'n m' header"),
        ("x y\n", 1, "header must be two integers 'n m'"),
        ("# c\n3\n", 2, "header must be two integers 'n m'"),
        ("c 3 2\n", 1, "header must be two integers 'n m'"),
        ("3 -1\n", 1, "negative count in header"),
        ("2 1\n0 1\n\n1 0\n", 4, "more than the declared 1 edges"),
        ("3 2\n0 1\n", None, "declared 2 edges, found 1"),
        ("2 1\n0 1 1\n", 2, "edge line must be two integers"),
        ("2 1\n0 x\n", 2, "edge line must be two integers"),
        ("2 1\n0 2\n", 2, "vertex index 2 out of range"),
        ("2 1\n-1 0\n", 2, "vertex index -1 out of range"),
        ("2 1\n1 1\n", 2, "self-loop at vertex 1"),
        ("p edge x 1\n", 1, "problem line must be 'p edge n m'"),
        ("c\np col 3 1\n", 2, "problem line must be 'p edge n m'"),
        ("p edge 3\n", 1, "problem line must be 'p edge n m'"),
        ("c\np edge 2 -1\n", 2, "negative count in header"),
        ("p edge 2 0\np edge 2 0\n", 2, "duplicate problem line"),
        ("e 1 2\np edge 2 1\n", 1, "edge before problem line"),
        ("p edge 2 1\nx 1 2\n", 2, "unknown line type 'x'"),
        ("p edge 2 0\n# a comment\n", 2, "unknown line type '#'"),
        ("P edge 2 0\n", 1, "unknown line type 'P'"),
        ("p edge 2 1\ne 1 2\nc\ne 2 1\n", 4, "more than the declared 1 edges"),
        ("p edge 3 2\ne 1 2\n", None, "declared 2 edges, found 1"),
        ("p edge 2 1\ne 1\n", 2, "edge line must be two integers"),
        ("p edge 2 1\ne 0 1\n", 2, "vertex index 0 out of range"),
        ("p edge 2 1\ne 1 3\n", 2, "vertex index 3 out of range"),
        ("p edge 2 1\ne 2 2\n", 2, "self-loop at vertex 2"),
    ],
)
def test_parse_errors_name_their_line(text, line, message):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


@st.composite
def _edge_lines(draw):
    """A vertex count up to 8 and edge lines, repeated, in either orientation."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return n, draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []


@settings(max_examples=200, deadline=None)
@given(_edge_lines(), st.data())
def test_both_formats_read_back_any_small_graph(model, data):
    n, edges = model
    for comment, base, header, tag in (("#", 0, "", ""), ("c", 1, "p edge ", "e ")):
        lines = [f"{header}{n} {len(edges)}"]
        lines += [f"{tag}{u + base} {v + base}" for u, v in edges]
        for _ in range(data.draw(st.integers(0, 4))):
            filler = data.draw(st.sampled_from(["", "   ", "\t", f"  {comment} note"]))
            lines.insert(data.draw(st.integers(0, len(lines))), filler)
        assert parse_graph("\n".join(lines) + "\n") == Graph(n, edges)


def test_generators_shape():
    assert generate_graph("complete", n=5).m == 10
    assert generate_graph("cycle", n=6).degrees() == (2,) * 6
    assert generate_graph("path", n=6).m == 5
    star = generate_graph("star", leaves=4)
    assert star.n == 5 and star.max_degree == 4
    grid = generate_graph("grid", rows=3, cols=4)
    assert grid.n == 12 and grid.m == 17
    pete = generate_graph("petersen")
    assert pete.n == 10 and pete.m == 15
    assert pete.degrees() == (3,) * 10
    with pytest.raises(ValueError):
        generate_graph("moebius")
    with pytest.raises(ValueError):
        generate_graph("cycle")


@pytest.mark.parametrize(
    "family, kwargs, message",
    [
        ("petersen", {"n": 40}, "'petersen' does not take n"),
        ("petersen", {"degree": 7, "seed": 1}, "'petersen' does not take degree, seed"),
        ("cycle", {"n": 8, "seed": 3}, "'cycle' does not take seed"),
        ("complete", {"n": 4, "leaves": 3}, "'complete' does not take leaves"),
        ("star", {"n": 3, "rows": 2}, "'star' does not take rows"),
        ("star", {"n": 3, "leaves": 4}, "star takes n or leaves, not both"),
        ("grid", {"n": 3, "rows": 2, "cols": 2}, "grid takes n or rows/cols, not both"),
        ("random-regular", {"n": 8, "degree": 3, "seed": 1, "cols": 2}, "does not take cols"),
    ],
)
def test_a_parameter_the_family_does_not_take_is_named(family, kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_graph(family, **kwargs)


def test_random_regular_is_regular_and_reproducible():
    g1 = generate_graph("random-regular", n=10, degree=3, seed=42)
    g2 = generate_graph("random-regular", n=10, degree=3, seed=42)
    g3 = generate_graph("random-regular", n=10, degree=3, seed=43)
    assert g1 == g2
    assert g1.degrees() == (3,) * 10
    assert g3.degrees() == (3,) * 10
    with pytest.raises(ValueError):
        generate_graph("random-regular", n=5, degree=3, seed=1)  # odd n*d


def test_profile_complete_graph():
    # Neighborhood of any K5 vertex is K4: only singleton independent sets.
    prof = neighborhood_profile(generate_graph("complete", n=5))
    assert prof.delta == 4
    assert prof.t == (4, 0, 0, 0)
    assert prof.t_tilde == (3, 0, 0)
    assert prof != NeighborhoodProfile.binomial(4)
    z = prof.z_polynomial()
    zt = prof.z_tilde_polynomial()
    assert z.coefficients == (1, 4)
    assert zt.coefficients == (1, 3)


def test_profile_triangle_free_is_binomial():
    prof = neighborhood_profile(generate_graph("petersen"))
    assert prof.delta == 3
    assert prof.t == (3, 3, 1)
    assert prof.t_tilde == (2, 1)
    assert prof == NeighborhoodProfile.binomial(3)


def test_profile_star():
    prof = neighborhood_profile(generate_graph("star", leaves=4))
    assert prof.delta == 4
    # The hub sees 4 pairwise nonadjacent leaves.
    assert prof.t == (4, 6, 4, 1)
    assert prof == NeighborhoodProfile.binomial(4)


def _independent_count(g, pool, k):
    return sum(
        1
        for sub in combinations(sorted(pool), k)
        if not any(g.has_edge(u, v) for u, v in combinations(sub, 2))
    )


def _profile_brute(g):
    delta = g.max_degree
    t = [0] * delta
    t_tilde = [0] * (delta - 1)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        for k in range(1, len(nbrs) + 1):
            t[k - 1] = max(t[k - 1], _independent_count(g, nbrs, k))
        for u in nbrs:
            for k in range(1, len(nbrs)):
                t_tilde[k - 1] = max(t_tilde[k - 1], _independent_count(g, nbrs - {u}, k))
    return tuple(t), tuple(t_tilde)


def test_profile_matches_brute_force_on_small_connected_graphs():
    for n in range(2, 8):
        for g in connected_graphs(n):
            prof = neighborhood_profile(g)
            assert (prof.t, prof.t_tilde) == _profile_brute(g), g.edges


def test_profile_of_a_large_star_is_fast_and_binomial():
    start = time.perf_counter()
    prof = neighborhood_profile(generate_graph("star", n=40))
    assert time.perf_counter() - start < 1.0
    assert prof.delta == 40
    assert prof.t == tuple(comb(40, k) for k in range(1, 41))
    assert prof == NeighborhoodProfile.binomial(40)


def test_profile_rejects_edgeless():
    with pytest.raises(ValueError):
        neighborhood_profile(Graph(3, []))


def test_profile_json_shape():
    data = neighborhood_profile(generate_graph("cycle", n=5)).to_json()
    assert data["delta"] == 2
    assert all(isinstance(s, str) for s in data["t"])
    assert all(isinstance(s, str) for s in data["t_tilde"])


def _connected_subsets_brute(g, v0, k):
    """Masks of the k-vertex sets holding v0 that induce a connected graph."""
    found = set()
    for rest in combinations([v for v in range(g.n) if v != v0], k - 1):
        sub = (v0, *rest)
        if g.induced(sorted(sub)).is_connected():
            found.add(sum(1 << v for v in sub))
    return found


def test_connected_subset_enumeration_matches_brute_force():
    rng = random.Random(3)
    for trial in range(8):
        n = rng.randrange(4, 8)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        for k in range(1, min(5, n) + 1):
            got = list(connected_sets_masks(g.adjacency_masks, 0, (1 << n) - 1, k, k))
            assert len(got) == len(set(got))
            assert set(got) == _connected_subsets_brute(g, 0, k)


def test_connected_subsets_exact_size_only():
    g = generate_graph("path", n=5)
    sets = list(connected_sets_masks(g.adjacency_masks, 2, (1 << g.n) - 1, 3, 3))
    assert {s.bit_count() for s in sets} == {3}
    # On a path, a connected set containing vertex 2 is an interval.
    assert len(sets) == 3
