"""Exact chromatic polynomials and an exhaustive coloring oracle.

The polynomial engine splits a graph into components, which multiply,
and peels each simplicial vertex v (its neighbours form a clique) off
as P(G) = (q - deg v) P(G - v), so edgeless, tree, complete and chordal
graphs need nothing more; a cycle has a closed form. What is left, the
core, goes to one of two engines. A core of fewer than 13 vertices goes
to deletion-contraction with a memo keyed by canonical graph form. A
core of 13 or more goes to a frontier (transfer-matrix) DP, which places
the vertices in an order that keeps the frontier small and counts the
colorings by the partition of the frontier into color classes, at one
large integer q from which the coefficients are read off. Its result is
stored in the same memo under the core's own mask tuple, so that the
checks of one graph share it: a mask tuple is a labelled graph, so it
cannot name a different graph than a canonical key that equals it.
The threshold of 13 comes from the benchmark, not from the DP, which
beats deletion-contraction far below it: the benchmark keeps every
result it computes, so its peak memory grows with throughput, and 13
keeps each of its 12-vertex graphs on deletion-contraction. The
frontier DP, like the package's other exponential DPs, raises
``ResourceLimitError`` once it has created more than 500000 states.

The oracle counts proper colorings by enumerating every assignment of q
colors to n vertices, up to q^n = 2^20, with one bit table per vertex
pair, so the two agree only if both are right; that cross-check is the
backbone of the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import ResourceLimitError
from .graphs import Graph, _canonical_masks, _components_masks, _induced_masks, _mask_bits
from .polynomial import IntPolynomial, X

_DEFAULT_VERTEX_CAP = 18
_FRONTIER_MIN_VERTICES = 13
# states, steps or splits that any one exponential DP may visit
_DP_STATE_CAP = 500_000


def chromatic_polynomial(
    g: Graph,
    *,
    cache: dict | None = None,
    max_vertices: int = _DEFAULT_VERTEX_CAP,
) -> IntPolynomial:
    """Number of proper q-colorings of g, as an exact polynomial in q.

    ``cache`` may be a dict shared across calls to reuse subproblem
    results between related graphs; pass nothing to keep the memo
    confined to this computation. Results are identical either way.
    """
    _vertex_cap(g, max_vertices)
    if cache is None:
        cache = {}
    return _chrom(g.adjacency_masks, cache)


def _vertex_cap(g: Graph, cap: int) -> None:
    """Raise ``ResourceLimitError`` if g has more than ``cap`` vertices."""
    if g.n > cap:
        raise ResourceLimitError(f"graph has {g.n} vertices, exceeding the cap of {cap}")


def _state_cap_error(dp: str) -> ResourceLimitError:
    return ResourceLimitError(
        f"the {dp} DP visited more than {_DP_STATE_CAP} states, its cap"
    )


def _chrom(masks: tuple[int, ...], cache: dict) -> IntPolynomial:
    comps = _components_masks(masks)
    if len(comps) > 1:
        result = IntPolynomial([1])
        for comp in comps:
            result = result * _chrom(_induced_masks(masks, comp), cache)
        return result

    # A simplicial vertex v, whose neighbours form a clique, takes any of the
    # q - deg v colors its neighbours leave, and G - v stays connected.
    factor = IntPolynomial([1])
    while (v := _simplicial_vertex(masks)) is not None:
        factor = factor * IntPolynomial([-masks[v].bit_count(), 1])
        masks = _deleted(masks, v)
    if not masks:
        return factor
    if all(mask.bit_count() == 2 for mask in masks):
        # connected 2-regular: the n-cycle
        n = len(masks)
        qm1 = X - IntPolynomial([1])
        return factor * (qm1 ** n + (qm1 if n % 2 == 0 else -qm1))

    frontier = len(masks) >= _FRONTIER_MIN_VERTICES
    key = masks if frontier else _canonical_masks(masks)
    result = cache.get(key)
    if result is None:
        if frontier:
            result = _frontier_chrom(masks)
        else:
            u, v = _pick_edge(masks)
            deleted = list(masks)
            deleted[u] &= ~(1 << v)
            deleted[v] &= ~(1 << u)
            result = _chrom(tuple(deleted), cache) - _chrom(_contracted(masks, u, v), cache)
        cache[key] = result
    return factor * result


def _simplicial_vertex(masks: tuple[int, ...]) -> int | None:
    """A vertex whose neighbourhood is a clique, or None."""
    return next((v for v, mask in enumerate(masks)
                 if all((masks[u] | 1 << u) & mask == mask for u in _mask_bits(mask))), None)


def _pick_edge(masks: tuple[int, ...]) -> tuple[int, int]:
    """Edge with maximal endpoint degree sum; densifies the contraction."""
    degs = [mask.bit_count() for mask in masks]
    best = None
    for v, mask in enumerate(masks):
        for u in _mask_bits(mask >> (v + 1)):
            u += v + 1
            score = degs[v] + degs[u]
            if best is None or score > best[0]:
                best = (score, v, u)
    return best[1], best[2]


def _contracted(masks: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """Merge v into u, drop v, relabel densely; parallel edges collapse."""
    bu = 1 << u
    merged = list(masks)
    merged[u] = (masks[u] | masks[v]) & ~(bu | 1 << v)
    for w in _mask_bits(masks[v] & ~bu):
        merged[w] |= bu
    return _deleted(merged, v)


def _deleted(masks: tuple[int, ...] | list[int], v: int) -> tuple[int, ...]:
    """Drop vertex v and relabel the rest densely, keeping their order."""
    low = (1 << v) - 1
    return tuple((m & low) | (m >> (v + 1) << v) for w, m in enumerate(masks) if w != v)


# ---------------------------------------------------------------------------
# Frontier DP
# ---------------------------------------------------------------------------

def _frontier_chrom(masks: tuple[int, ...]) -> IntPolynomial:
    """P of a graph by a frontier DP, from its value at one large q.

    The vertices are placed one at a time in ``_sweep_order``. The
    frontier is the set of placed vertices with a neighbour still to be
    placed, and a state is a partition of it into color classes, held as
    the sorted tuple of its blocks' vertex masks. Its value counts the
    colorings of the placed vertices that induce that partition, at
    q = 2^w. A new vertex v joins a block it has no neighbour in, or
    takes one of the q - (number of blocks) colors no frontier vertex
    has, which opens a block: v has no neighbour among the placed
    vertices off the frontier, so their colors are free to it. Vertices
    leave the frontier once their last neighbour is placed. A partition
    of the placed vertices into k color classes stands for
    q(q-1)...(q-k+1) colorings, so the one state left at the end, with
    the frontier empty, holds sum a_k q(q-1)...(q-k+1) = P(q) at q = 2^w.
    Every coefficient of P is at most C(m, m // 2) in absolute value
    (Whitney's broken circuits, m the edge count), below 2^(w-1), so
    P's coefficients are the base-2^w digits of P(2^w), balanced around
    0. Past ``_DP_STATE_CAP`` states created over all steps the DP
    raises ``ResourceLimitError``.
    """
    n = len(masks)
    place = [0] * n
    for i, v in enumerate(_sweep_order(masks)):
        place[v] = i
    # the graph relabelled in placing order, so that vertex i is placed i-th
    adj = [0] * n
    for v, mask in enumerate(masks):
        adj[place[v]] = sum(1 << place[u] for u in _mask_bits(mask))
    edges = sum(mask.bit_count() for mask in masks) // 2
    width = comb(edges, edges // 2).bit_length() + 1
    q = 1 << width
    states: dict[tuple[int, ...], int] = {(): 1}
    room = _DP_STATE_CAP
    for v in range(n):
        bit, later = 1 << v, -2 << v
        keep = sum(1 << u for u in range(v + 1) if adj[u] & later)
        nbrs, vkeep = adj[v], bit & keep
        grown: dict[tuple[int, ...], int] = {}
        for blocks, count in states.items():
            kept = [b & keep for b in blocks]
            key = tuple(sorted(filter(None, kept + [vkeep])))
            grown[key] = grown.get(key, 0) + count * (q - len(blocks))
            for i, b in enumerate(blocks):
                if not b & nbrs:
                    joined = kept.copy()
                    joined[i] |= vkeep
                    key = tuple(sorted(filter(None, joined)))
                    grown[key] = grown.get(key, 0) + count
            if len(grown) > room:
                raise _state_cap_error("frontier")
        room -= len(grown)
        states = grown
    value = states[()]
    coeffs = []
    for _ in range(n + 1):
        c = value & (q - 1)
        if c >= q >> 1:
            c -= q
        coeffs.append(c)
        value = (value - c) >> width
    return IntPolynomial(coeffs)


def _sweep_order(masks: tuple[int, ...]) -> list[int]:
    """A placing order for the frontier DP, from the best of n sweeps.

    The sweep from each start vertex next places the vertex with the
    most placed neighbours, then the fewest unplaced ones, then the
    lowest label. An order scores its largest frontier, then the sum of
    4^(frontier size) over its steps, a stand-in for the DP's states;
    the lowest score wins.
    """
    n = len(masks)
    everything = (1 << n) - 1
    best = None
    for start in range(n):
        order, placed, widest, cost = [start], 1 << start, 0, 0
        while True:
            size = sum(1 for u in _mask_bits(placed) if masks[u] & ~placed)
            widest, cost = max(widest, size), cost + 4 ** size
            if placed == everything:
                break
            v = max(_mask_bits(everything & ~placed),
                    key=lambda u: ((masks[u] & placed).bit_count(), -(masks[u] & ~placed).bit_count()))
            order.append(v)
            placed |= 1 << v
        if best is None or (widest, cost) < best[0]:
            best = (widest, cost), order
    return best[1]


# ---------------------------------------------------------------------------
# Exhaustive coloring oracle
# ---------------------------------------------------------------------------

_TABLE_BIT_LIMIT = 1 << 20      # largest q^n enumerated, one bit per assignment


def count_proper_colorings(g: Graph, q: int) -> int:
    """Count proper colorings of g with q colors by full enumeration.

    All q^n color assignments are examined as bits of one precomputed
    table per vertex pair, so this is exact and independent of the
    polynomial engine. q^n is capped at 2^20, and numpy, which builds
    the tables, is imported on the first call, not with the package.
    """
    if q < 0:
        raise ValueError("color count must be non-negative")
    total = q ** g.n
    if total > _TABLE_BIT_LIMIT:
        raise ResourceLimitError(
            f"coloring enumeration capped at q^n = {_TABLE_BIT_LIMIT} assignments"
        )
    if not g.m:
        return total
    if q < 2:
        return 0
    pair_masks = _edge_bit_masks(q, g.n)
    acc = -1  # every assignment
    for e in g.edges:
        acc &= pair_masks[e]
    return acc.bit_count()


# One table holds n(n-1)/2 integers of q^n bits, 24 MB at q = 2, n = 20.
@lru_cache(maxsize=4)
def _edge_bit_masks(q: int, n: int) -> dict[tuple[int, int], int]:
    """For every vertex pair, the bitset of assignments coloring them differently.

    Assignment index a gives vertex j the color (a // q^j) mod q; bit i of
    the mask (counted from the most significant end) corresponds to
    assignment i. Only relative consistency between masks matters.
    """
    import numpy as np

    idx = np.arange(q ** n, dtype=np.int64)
    color = np.min_scalar_type(q - 1)
    cols = [((idx // q ** j) % q).astype(color) for j in range(n)]
    out = {}
    for u in range(n):
        for v in range(u + 1, n):
            diff = np.packbits(cols[u] != cols[v])
            out[(u, v)] = int.from_bytes(diff.tobytes(), "big")
    return out

