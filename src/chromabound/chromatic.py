"""Exact chromatic polynomials and an exhaustive coloring oracle.

The polynomial engine is deletion-contraction with memoization keyed by
a canonical graph form. Components multiply, and a simplicial vertex v
(its neighbours form a clique) peels off as P(G) = (q - deg v) P(G - v),
so edgeless, tree, complete and chordal graphs never reach the memo.
The oracle counts proper colorings by enumerating every assignment of q
colors to n vertices, up to q^n = 2^20, with one bit table per vertex
pair, so the two agree only if both are right; that cross-check is the
backbone of the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ResourceLimitError
from .graphs import Graph, _canonical_masks, _components_masks, _induced_masks, _mask_bits
from .polynomial import IntPolynomial, X

_DEFAULT_VERTEX_CAP = 18


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

    key = _canonical_masks(masks)
    result = cache.get(key)
    if result is None:
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

