"""Brute-force oracles that the tests hold chromabound's engines to.

``signed_connected_sum`` enumerates edge subsets for the signed sum S
that the polymer module takes from the chromatic engine's linear
coefficient. ``enumerate_spanning_trees`` and ``classify_tree`` build
and sort every rooted spanning tree for the Penrose count that
``penrose_report`` takes from its layering DP.
``reference_canonical_masks`` refines by ranking each vertex's colour
and sorted tuple of neighbour colours and explores every branch but
those of interchangeable vertices; ``graphs._canonical_masks`` ranks by
integer signatures, prunes by automorphism orbits and must return the
same form. ``reference_roots_inside`` is the Schur-Cohn disk test that
divides every transformed polynomial by the gcd of its coefficients;
``roots.roots_inside`` divides exactly by an earlier leading coefficient
instead and must give the same verdict. ``connected_sets_masks`` lists
the connected vertex sets through a vertex, which the tests count the
signed-sum table, the activity norms and the tree series against.
``colorings_by_inclusion_exclusion`` counts proper colorings from the
independence polynomials of all induced subgraphs, with no
deletion-contraction and no enumeration of colorings.

The module shares no code with the engines it checks: it reads only the
vertex count and edge set of the input ``Graph`` (or, for the canonical
labeling and the connected sets, its adjacency masks), and tests
connectivity with its own union-find.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from chromabound import Graph

SIGNED_SUM_EDGE_CAP = 24


class EnumerationCapError(Exception):
    """The graph has more edges than the signed-sum enumeration accepts."""


def _find(parents: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way up
    (this only shortens paths, so the sets stay as they were)."""
    while parents[x] != x:
        parents[x] = parents[parents[x]]
        x = parents[x]
    return x


def _component_count(parents: list[int], edges) -> int:
    """Components of the forest ``parents`` once ``edges`` join it, or 1
    as soon as they are joined into one; the forest itself is left as it
    was. Each component of the forest has one root, its own parent."""
    scratch = list(parents)
    comps = sum(map(operator.eq, scratch, range(len(scratch))))
    for u, v in edges:
        if comps == 1:
            break
        ru, rv = _find(scratch, u), _find(scratch, v)
        if ru != rv:
            scratch[ru] = rv
            comps -= 1
    return comps


@lru_cache(maxsize=16)
def _edge_set(g: Graph) -> frozenset[tuple[int, int]]:
    """The edge set of g, built once per graph while g is among the last
    16 asked for: ``Graph.edges`` is rebuilt from the adjacency on every
    access, and the census checks and sorts every tree against it."""
    return g.edges


def _require_connected(g: Graph, what: str) -> list[tuple[int, int]]:
    """The sorted edges of g, which must be non-empty and connected."""
    if g.n == 0:
        raise ValueError(f"{what} needs at least one vertex")
    edges = sorted(g.edges)
    if _component_count(list(range(g.n)), edges) != 1:
        raise ValueError(f"{what} is defined for connected graphs only")
    return edges


# ---------------------------------------------------------------------------
# Signed connected-subgraph sums
# ---------------------------------------------------------------------------

def signed_connected_sum(g: Graph) -> int:
    """Sum of (-1)^{|E'|} over connected spanning subgraphs (V, E') of g.

    Enumerated directly over edge subsets, abandoning a branch as soon as
    the chosen plus remaining edges can no longer connect the graph.
    """
    edges = _require_connected(g, "signed sum")
    if len(edges) > SIGNED_SUM_EDGE_CAP:
        raise EnumerationCapError(
            f"graph has {len(edges)} edges, exceeding the enumeration cap of "
            f"{SIGNED_SUM_EDGE_CAP}"
        )
    n, m = g.n, len(edges)
    total = 0
    # (next edge, union-find forest of the chosen edges, chosen count)
    stack = [(0, list(range(n)), 0)]
    while stack:
        i, parents, count = stack.pop()
        if _component_count(parents, edges[i:]) != 1:
            continue
        if i == m:
            total += -1 if count % 2 else 1
            continue
        u, v = edges[i]
        with_e = list(parents)
        ru, rv = _find(with_e, u), _find(with_e, v)
        if ru != rv:
            with_e[ru] = rv
        stack.append((i + 1, parents, count))
        stack.append((i + 1, with_e, count + 1))
    return total


# ---------------------------------------------------------------------------
# Rooted spanning trees and generation conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootedSpanningTree:
    """A spanning tree of ``host`` rooted at vertex 0.

    ``parent`` maps every non-root vertex to its predecessor and
    ``depth`` gives the generation number, 0 at the root.
    """

    host: Graph
    parent: dict[int, int]
    depth: dict[int, int]
    root: int = 0

    def __post_init__(self):
        n = self.host.n
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        if set(self.parent) != set(range(n)) - {self.root}:
            raise ValueError("parent map must cover exactly the non-root vertices")
        if self.depth.get(self.root) != 0:
            raise ValueError("root must have depth 0")
        host_edges = _edge_set(self.host)
        for v, p in self.parent.items():
            if (min(v, p), max(v, p)) not in host_edges:
                raise ValueError(f"tree edge {{{v}, {p}}} is not a host edge")
            if self.depth.get(v) != self.depth.get(p, -2) + 1:
                raise ValueError("depth must increase by 1 along parent links")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (min(v, p), max(v, p)) for v, p in self.parent.items()
        )


def enumerate_spanning_trees(g: Graph) -> Iterator[RootedSpanningTree]:
    """Every spanning tree of g exactly once, rooted at vertex 0.

    Edge-by-edge inclusion/exclusion: an edge is included only when it
    joins two current components, and it is excluded only when the chosen
    plus the remaining edges still connect the graph. So every branch
    keeps the graph connectable, and one short of n - 1 chosen edges
    always has an edge left to decide.
    """
    edges = _require_connected(g, "a spanning tree")
    n = g.n
    # (next edge, union-find forest of the chosen edges, chosen edges)
    stack = [(0, list(range(n)), [])]
    while stack:
        i, parents, chosen = stack.pop()
        if len(chosen) == n - 1:
            yield _root_tree(g, chosen)
            continue
        if _component_count(parents, edges[i + 1:]) == 1:
            stack.append((i + 1, parents, chosen))
        u, v = edges[i]
        ru, rv = _find(parents, u), _find(parents, v)
        if ru != rv:
            merged = list(parents)
            merged[ru] = rv
            stack.append((i + 1, merged, chosen + [(u, v)]))


def _root_tree(g: Graph, tree_edges: list[tuple[int, int]]) -> RootedSpanningTree:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[int, int] = {}
    depth = {0: 0}
    queue = [0]
    for v in queue:  # breadth first; the list grows as it is read
        d = depth[v] + 1
        for w in adj[v]:
            if w not in depth:
                depth[w] = d
                parent[w] = v
                queue.append(w)
    return RootedSpanningTree(host=g, parent=parent, depth=depth)


def classify_tree(t: RootedSpanningTree) -> str:
    """Sort a rooted spanning tree into one of three buckets.

    "penrose": no host edge joins equal-depth vertices, and no host
    edge {i, j} has depth(j) = depth(i) - 1 with j > parent(i).
    "weakly-penrose-only": not that, but no host edge joins two
    children of a common parent. "neither": some host edge does.
    A tree edge joins a vertex to its parent, one generation up, and so
    meets none of these conditions.
    """
    depth, parent = t.depth, t.parent
    same_gen_ok = True
    cross_gen_ok = True
    sibling_ok = True
    for i, j in _edge_set(t.host):
        di, dj = depth[i], depth[j]
        if di == dj:
            same_gen_ok = False
            if parent.get(i) == parent.get(j):
                sibling_ok = False
        elif dj == di - 1 and j > parent[i]:
            cross_gen_ok = False
        elif di == dj - 1 and i > parent[j]:
            cross_gen_ok = False
    if same_gen_ok and cross_gen_ok:
        return "penrose"
    if sibling_ok:
        return "weakly-penrose-only"
    return "neither"


# ---------------------------------------------------------------------------
# Connected vertex sets
# ---------------------------------------------------------------------------

def connected_sets_masks(
    masks: tuple[int, ...],
    v0: int,
    allowed: int,
    min_size: int,
    max_size: int,
) -> Iterator[int]:
    """Yield each connected vertex set containing v0 within ``allowed`` exactly once.

    Binary decision scheme: the lowest-labeled extension vertex is either
    added (bringing its fresh neighbors into the extension) or excluded
    for good, so every set arises along exactly one decision path.
    """
    if not (allowed >> v0) & 1 or min_size > max_size:
        return

    def rec(sub: int, size: int, ext: int, forb: int) -> Iterator[int]:
        if size >= min_size:
            yield sub
        if size >= max_size:
            return
        while ext:
            b = ext & -ext
            ext ^= b
            w = b.bit_length() - 1
            grown = masks[w] & allowed & ~(sub | forb | ext | b)
            yield from rec(sub | b, size + 1, ext | grown, forb)
            forb |= b

    yield from rec(1 << v0, 1, masks[v0] & allowed, 0)


# ---------------------------------------------------------------------------
# Canonical labeling by sorted neighbour-colour tuples
# ---------------------------------------------------------------------------

def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _interchangeable(masks: tuple[int, ...], v: int, u: int) -> bool:
    return masks[v] & ~(1 << u) == masks[u] & ~(1 << v)


def reference_canonical_masks(masks: tuple[int, ...]) -> tuple[int, ...]:
    """The least relabeled mask tuple over an individualization-refinement
    search whose refinement ranks (colour, sorted neighbour colours)."""
    n = len(masks)
    if n <= 1:
        return tuple(masks)
    nbrs = [tuple(_mask_bits(m)) for m in masks]
    best: tuple[int, ...] | None = None

    def search(colors: list[int]) -> None:
        nonlocal best
        # stable color refinement: rank (color, sorted neighbor colors)
        # until the ranks stop changing
        while True:
            sigs = [
                (c, tuple(sorted(map(colors.__getitem__, nb))))
                for c, nb in zip(colors, nbrs)
            ]
            rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colors:
                break
            colors = new
        if len(rank) == n:
            # discrete: vertex v gets label colors[v]
            bit = [1 << c for c in colors]
            cand = [0] * n
            for c, nb in zip(colors, nbrs):
                cand[c] = sum(map(bit.__getitem__, nb))
            cand = tuple(cand)
            if best is None or cand < best:
                best = cand
            return
        # invariant cell choice: among non-singleton classes, smallest
        # size, then smallest color value
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        cell_color = min((sz, c) for c, sz in counts.items() if sz > 1)[1]
        cell = [v for v in range(n) if colors[v] == cell_color]
        tried: list[int] = []
        for v in cell:
            if any(_interchangeable(masks, v, u) for u in tried):
                continue
            tried.append(v)
            child = [2 * c for c in colors]
            child[v] -= 1
            search(child)

    degs = [m.bit_count() for m in masks]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    search([rank[d] for d in degs])
    return best


def reference_roots_inside(coefficients: tuple[int, ...], radius) -> bool:
    """The Schur-Cohn disk test with each transformed polynomial divided
    by the gcd of its coefficients: True exactly when every root of the
    integer polynomial (ascending, nonzero) lies in |q| < radius."""
    radius = Fraction(radius)
    degree = len(coefficients) - 1
    if radius <= 0:
        return degree == 0
    r, s = radius.numerator, radius.denominator
    c = [a * r**k * s ** (degree - k) for k, a in enumerate(coefficients)]
    while len(c) > 1:
        a0, an = c[0], c[-1]
        if abs(an) <= abs(a0):
            return False
        m = len(c) - 1
        c = [an * c[k] - a0 * c[m - k] for k in range(1, m + 1)]
        g = math.gcd(*c)
        c = [x // g for x in c]
    return True


# ---------------------------------------------------------------------------
# Proper colorings by inclusion-exclusion
# ---------------------------------------------------------------------------

def colorings_by_inclusion_exclusion(g: Graph, qs) -> list[int]:
    """P(q) for each q in qs, as sum over X of (-1)^(n-|X|) [z^n] I_X(z)^q.

    I_X is the independence polynomial of the subgraph induced on X, so
    [z^n] I_X^q counts the q-tuples of independent sets in X whose sizes
    add up to n; inclusion-exclusion keeps the tuples that cover V, which
    are exactly the proper colorings (Bjorklund, Husfeldt & Koivisto,
    SIAM J. Comput. 39(2), 2009). I_X = I_(X-v) + z I_(X-N[v]) for the
    highest vertex v of X, and both sets are below X, so one pass over
    the subsets in increasing order fills every I_X.
    """
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    indep: list[list[int]] = [[1]]
    for x in range(1, 1 << n):
        v = x.bit_length() - 1
        without, rest = indep[x & ~(1 << v)], indep[x & ~(1 << v) & ~adj[v]]
        poly = without + [0] * (len(rest) + 1 - len(without))
        for i, c in enumerate(rest):
            poly[i + 1] += c
        indep.append(poly)
    totals = [0] * (max(qs, default=0) + 1)
    for x, poly in enumerate(indep):
        sign = -1 if (n - x.bit_count()) % 2 else 1
        power = [1]  # I_X^k truncated above z^n
        for k in range(len(totals)):
            if k:
                power = _truncated_product(power, poly, n)
            if len(power) > n:
                totals[k] += sign * power[n]
    return [totals[q] for q in qs]


def _truncated_product(a: list[int], b: list[int], n: int) -> list[int]:
    """a * b (ascending coefficients) without the terms above z^n."""
    out = [0] * min(len(a) + len(b) - 1, n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return out


def colorings_by_independent_partitions(g: Graph, qs) -> list[int]:
    """P(q) for each q in qs, as sum over k of a_k q(q-1)...(q-k+1).

    a_k is the number of partitions of the vertices into k independent
    sets: the color classes of the colorings that use exactly k colors,
    before the colors are named. The blocks are chosen one at a time, each
    the block of the lowest vertex left, with a memo on the set left. Its
    work grows with the number of independent sets, so it suits dense
    graphs, where deletion-contraction does not.
    """
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    memo = {0: [1]}

    def partitions(left: int) -> list[int]:
        """a_k of the graph induced on ``left``, at k = 0, 1, ..."""
        if left not in memo:
            low = left & -left
            total = [0] * (left.bit_count() + 1)
            stack = [(low, left & ~low & ~adj[low.bit_length() - 1])]
            while stack:
                block, free = stack.pop()
                for k, c in enumerate(partitions(left & ~block)):
                    total[k + 1] += c
                while free:
                    b = free & -free
                    free ^= b
                    stack.append((block | b, free & ~adj[b.bit_length() - 1]))
            memo[left] = total
        return memo[left]

    counts = partitions((1 << g.n) - 1)
    values = []
    for q in qs:
        falling, value = 1, 0
        for k, a in enumerate(counts):
            value += a * falling
            falling *= q - k
        values.append(value)
    return values
