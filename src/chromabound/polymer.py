"""Hard-core polymer machinery for the coloring partition function.

A monomer is a vertex set of size at least 2 inducing a connected
subgraph; its activity at parameter q is S / q^(k-1), where k is its
size and S is the signed sum over connected spanning subgraphs of the
induced graph. The module works in integers that do not depend on q,
and q enters only the fixed-point convergence check. The hard-core
partition function, scaled by q^n, is an integer polynomial in q, to
be set against the coloring polynomial. The activity bound weighs the
size-k activities against a tree count divided by the same q^(k-1),
so q cancels from it, and at sizes 2..top it compares two integer
vectors coefficientwise. The S of every connected set of a graph at
once comes from one subset recursion, the exponential formula solved
at each set's lowest vertex; the S of a whole graph, in the Penrose
report, is the linear coefficient of its coloring polynomial, taken
from ``chromatic``'s engines (deletion-contraction below 13 core
vertices, the frontier DP from 13) through ``_CHROM_CACHE``, the memo
of one graph's subresults that ``verify``'s other polynomial checks
share, so that one ``verify`` computes the polynomial once.
The module counts the rooted spanning trees that meet the generation
conditions under which the signed sum collapses to a single count, the
Penrose trees, by a subset DP over their layerings. It memoizes its
states, multiplies over the components of the vertices still to place
and stops at the state cap that every exponential DP of the package
shares, ``chromatic._DP_STATE_CAP``, which carries it to 16-18-vertex
graphs.
The convergence check bounds its geometric tail with a certificate.
The tests hold S and the Penrose count to brute-force oracles of their
own: an edge-subset enumeration and a census of every spanning tree.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import chromatic
from .chromatic import _chrom, _state_cap_error, _vertex_cap
from .graphs import (
    Graph,
    _components_masks,
    _mask_bits,
    neighborhood_profile,
)
from .polynomial import IntPolynomial
from .series import solve_tree_series

_PARTITION_VERTEX_CAP = 8
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Coloring-polynomial subresults, keyed by canonical form, shared by
# penrose_report and verify's partition and zero-free checks. Every user
# takes it from _chrom_memo, so it holds the subresults of one graph.
_CHROM_CACHE: dict = {}
_chrom_cache_graph: tuple[int, ...] | None = None


def _chrom_memo(g: Graph) -> dict:
    """``_CHROM_CACHE`` for a computation on g, emptied first whenever
    the last graph to ask for it was a different one, so that the checks
    of one graph share their subresults and a sweep keeps one graph's."""
    global _chrom_cache_graph
    masks = g.adjacency_masks
    if masks != _chrom_cache_graph:
        _CHROM_CACHE.clear()
        _chrom_cache_graph = masks
    return _CHROM_CACHE


# ---------------------------------------------------------------------------
# Signed connected-subgraph sums
# ---------------------------------------------------------------------------

def _s_table(masks: tuple[int, ...], max_size: int) -> dict[int, int]:
    """S of every connected vertex set of size at most ``max_size``.

    Summed over the set partitions of X, the products of the blocks' S
    give [X is independent]. Split off the block Y of the lowest vertex
    v: the rest J = X - Y is independent, and in a connected X each
    vertex of J has a neighbour in Y. So S({v}) = 1, and a connected X
    of two or more vertices has S(X) = -sum S(Y) over such splits. The
    table is built in increasing size: each finished Y adds -S(Y) to
    Y + J for every nonempty independent set J of vertices above v with
    a neighbour in Y. No disconnected set is reached, and one missing
    from the table counts 0. Past 500000 visited splits (Y, J) the build
    raises ``ResourceLimitError``; the count bounds the work, about 3^k
    on a star of k leaves, and with it the table, about 2^k sets there.
    """
    table = {1 << v: 1 for v in range(len(masks))}
    steps, cap = 0, chromatic._DP_STATE_CAP
    by_size: list[list[int]] = [[], list(table)] + [[] for _ in range(max_size - 1)]
    for size in range(1, max_size):
        for y in by_size[size]:
            s, low = table[y], y & -y
            reach, rest = 0, y
            while rest:
                b = rest & -rest
                reach |= masks[b.bit_length() - 1]
                rest ^= b
            # J grows in increasing vertex order, from the candidates
            # above its last vertex that miss its neighbourhood
            stack = [(y, reach & ~y & ~(low - 1), size)]
            while stack:
                y_j, cand, k = stack.pop()
                k += 1
                while cand:
                    steps += 1
                    if steps > cap:
                        raise _state_cap_error("signed-sum")
                    b = cand & -cand
                    cand ^= b
                    x = y_j | b
                    prev = table.get(x)
                    if prev is None:
                        table[x] = -s
                        by_size[k].append(x)
                    else:
                        table[x] = prev - s
                    if cand and k < max_size:
                        stack.append((x, cand & ~masks[b.bit_length() - 1], k))
    return table


# ---------------------------------------------------------------------------
# Penrose trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenroseReport:
    """Signed sum S next to the spanning-tree counts it collapses onto."""

    s_value: int
    tree_count: int
    penrose_count: int

    def __post_init__(self):
        if not 0 <= self.penrose_count <= self.tree_count:
            raise ValueError("tree counts must be ordered and non-negative")


def penrose_report(g: Graph) -> PenroseReport:
    """Count the Penrose trees and set them against the signed sum.

    S is the linear coefficient of the coloring polynomial, from
    ``chromatic``'s engines. The two counts come from elsewhere:
    ``tree_count`` is Kirchhoff's count and ``penrose_count`` the
    layering DP, so the collapse identity compares independent
    computations. The DP visits at most 500000 states and raises
    ``ResourceLimitError`` past that.
    """
    if g.n == 0:
        raise ValueError("signed sum needs at least one vertex")
    if not g.is_connected():
        raise ValueError("signed sum is defined for connected graphs only")
    masks = g.adjacency_masks
    # the DP first: past its cap it raises before the polynomial is computed
    penrose = _penrose_layerings(masks, ((1 << g.n) - 1) & ~1)
    return PenroseReport(
        s_value=_chrom(masks, _chrom_memo(g)).coefficients[1],
        tree_count=spanning_tree_count(g),
        penrose_count=penrose,
    )


def _independent_subsets(masks: tuple[int, ...], pool: int):
    """Yield ``(C, reach)`` for every nonempty independent set C within
    ``pool``, where ``reach`` is the union of the neighbourhoods of C's
    vertices. Each set is built once: a set with free vertices F grows
    by each vertex b of F, and the vertices of F below b, left out, are
    no longer free."""
    stack = [(0, 0, pool)]
    while stack:
        chosen, reach, free = stack.pop()
        if chosen:
            yield chosen, reach
        while free:
            b = free & -free
            free ^= b
            nb = masks[b.bit_length() - 1]
            stack.append((chosen | b, reach | nb, free & ~nb))


def _penrose_layerings(masks: tuple[int, ...], rest: int) -> int:
    """Number of Penrose trees rooted at vertex 0, whose other vertices
    are ``rest``.

    In a Penrose tree no host edge joins two vertices of one generation,
    and no host edge joins a vertex i to a vertex j of the generation
    before with j > parent(i). Such a tree is fixed by its generations
    L0 = {0}, L1, ...: each is an independent set, every vertex has a
    neighbour in the generation before (its parent is the largest one),
    and any such layering gives a Penrose tree. A state counts the
    layerings of the unplaced vertices whose next generation is drawn
    from the candidates, the unplaced neighbours of the last one.

    No tree edge leaves a component of the unplaced set, so a state's
    count is the product over its components, and a component without a
    candidate gives 0. Layers are drawn only from a connected unplaced
    set: in one of two or more vertices every candidate has an unplaced
    neighbour, and a single vertex is its own only candidate, so no
    candidate has to join the next generation for want of a later
    parent, and no such candidate is looked for. Past
    ``chromatic._DP_STATE_CAP`` visited states the DP raises
    ``ResourceLimitError``. Counts are memoized on the state, and the
    memo is emptied on the way out: the recursive closure is a reference
    cycle, which would keep it until the next garbage collection.
    """
    n = len(masks)
    memo: dict[int, int] = {}
    steps, cap = 0, chromatic._DP_STATE_CAP

    def count(rest: int, cand: int) -> int:
        nonlocal steps
        key = rest | cand << n
        total = memo.get(key)
        if total is None:
            comps = _components_masks(masks, rest)
            if len(comps) == 1:
                total = 0
                for layer, reach in _independent_subsets(masks, cand):
                    steps += 1
                    if steps > cap:
                        raise _state_cap_error("Penrose layering")
                    left = rest & ~layer
                    if not left:
                        total += 1
                    elif reach & left:
                        total += count(left, reach & left)
            else:
                total = 1
                for comp in comps:
                    total *= count(comp, cand & comp) if cand & comp else 0
                    if not total:
                        break
            memo[key] = total
        return total

    try:
        return count(rest, masks[0] & rest)
    finally:
        memo.clear()


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, exactly: the determinant of a Laplacian
    minor (Kirchhoff), by fraction-free Bareiss elimination over the
    integers.

    The minor of a connected graph's Laplacian is positive definite, so
    every pivot, a leading principal minor, is positive and no row swaps
    are needed.
    """
    if g.n <= 1:
        return 1
    if not g.is_connected():
        return 0
    masks, k = g.adjacency_masks, g.n - 1
    a = [
        [masks[r].bit_count() if r == c else -(masks[r] >> c & 1) for c in range(1, g.n)]
        for r in range(1, g.n)
    ]
    prev = 1
    for i in range(k - 1):
        pivot = a[i][i]
        for r in range(i + 1, k):
            row, lead = a[r], a[r][i]
            for c in range(i + 1, k):
                row[c] = (row[c] * pivot - lead * a[i][c]) // prev
        prev = pivot
    return a[k - 1][k - 1]


# ---------------------------------------------------------------------------
# Partition function
# ---------------------------------------------------------------------------

def hardcore_partition(g: Graph) -> IntPolynomial:
    """q^n Xi_G(q), the hard-core partition function of the monomer gas
    scaled to an integer polynomial in q.

    Xi_G sums, over all collections of pairwise-disjoint monomers, the
    product of their activities S(m) / q^(|m|-1). The polymer
    representation says that q^n Xi_G(q) is the coloring polynomial
    P_G(q), and the test suite holds the implementation to that identity.

    U(A) = q^|A| Xi(A) over the vertex sets A: the lowest vertex v of A
    is either bare or in a monomer m inside A, so U(empty) = 1 and
    U(A) = q [U(A - v) + sum S(m) U(A - m)].
    """
    _vertex_cap(g, _PARTITION_VERTEX_CAP)
    at_low: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for mask, s in _s_table(g.adjacency_masks, g.n).items():
        if mask & (mask - 1):
            at_low[(mask & -mask).bit_length() - 1].append((mask, s))
    # u[A] lists the coefficients of U(A) in ascending powers of q, |A| + 1 of them
    u = [[1]] * (1 << g.n)
    for avail in range(1, 1 << g.n):
        low = avail & -avail
        total = list(u[avail ^ low])
        for mask, s in at_low[low.bit_length() - 1]:
            if mask & avail == mask:
                for k, c in enumerate(u[avail ^ mask]):
                    total[k] += s * c
        u[avail] = [0] + total
    return IntPolynomial(u[-1])


# ---------------------------------------------------------------------------
# Activity norms and the fixed-point convergence check
# ---------------------------------------------------------------------------

def _norms_scaled(g: Graph, top: int) -> tuple[int, ...]:
    """The activity norms with their q-powers stripped off, at sizes 2 to
    ``top``: at size k, the largest sum over a vertex x of |S| over the
    size-k monomers that hold x. One table of signed sums gives them all;
    its build raises ``ResourceLimitError`` past 500000 visited splits,
    whatever ``top`` is."""
    totals = [[0] * g.n for _ in range(top + 1)]
    for mask, s in _s_table(g.adjacency_masks, min(top, g.n)).items():
        at_size, s = totals[mask.bit_count()], abs(s)
        for v in _mask_bits(mask):
            at_size[v] += s
    return tuple(max(t, default=0) for t in totals[2:])


def _scaled(k: int, q: float, e: int, log_factor: float = 0.0) -> float:
    """e^log_factor * k / q^e as a float, through logarithms when a step
    leaves the float range; inf when the value itself does."""
    if k == 0:
        return 0.0
    try:
        value = math.exp(log_factor) * k / q ** e
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if math.isinf(value):
        log_value = log_factor + math.log(k) - e * math.log(q)
        value = math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf
    return value


@dataclass(frozen=True)
class CnBoundReport:
    """Activity norms against the constrained-tree coefficients at sizes
    2..top, each scaled by q^{n-1}, which leaves integers free of q;
    entry i of either tuple belongs to size i + 2."""

    holds: bool
    lhs_scaled: tuple[int, ...]
    rhs_scaled: tuple[int, ...]


def verify_cn_bound(g: Graph, top: int) -> CnBoundReport:
    """Check that the size-n activity norm is at most q^{-(n-1)} t_n at
    every size n from 2 to ``top``.

    t_n is the coefficient of the rooted-tree series built from the
    graph's own neighborhood growth profile. Every size-n monomer has
    activity S / q^(n-1), so both sides carry the factor q^{-(n-1)}.
    Cancelled, it leaves a coefficientwise comparison of two integer
    vectors, and the bound holds at every q > 0 or at none. One table of
    signed sums gives every norm, and one series every t_n.
    """
    if top < 2:
        raise ValueError("monomer sizes start at 2")
    lhs_scaled = _norms_scaled(g, top)
    if g.max_degree == 0:
        rhs_scaled = (0,) * len(lhs_scaled)
    else:
        prof = neighborhood_profile(g)
        _, tbar = solve_tree_series(prof.z_tilde_polynomial(), prof.z_polynomial(), top)
        rhs_scaled = tbar.coefficients[1:]
    return CnBoundReport(
        holds=all(c <= t for c, t in zip(lhs_scaled, rhs_scaled)),
        lhs_scaled=lhs_scaled,
        rhs_scaled=rhs_scaled,
    )


@dataclass(frozen=True)
class FpConditionReport:
    """Certificate for the fixed-point convergence inequality.

    ``head`` is the exact enumerated part sum_{n=2}^{order} e^{an} C_n;
    the tail beyond the truncation is dominated by the geometric series
    e^a r^n with r = e^{1+a} * Delta / q, giving ``tail_bound`` when
    r < 1. The inequality asks head + tail <= e^a - 1 = ``threshold``.
    """

    status: str
    head: float
    tail_bound: float | None
    threshold: float
    geometric_ratio: float
    order: int
    q: float
    a: float


def check_fp_condition(g: Graph, q: float, a: float, order: int) -> FpConditionReport:
    """Decide the convergence inequality at (q, a) with truncation order.

    Returns status "violated" when the enumerated head alone exceeds
    e^a - 1 (conclusive regardless of the tail), "satisfied" when head
    plus the certified geometric tail stays within it, and
    "inconclusive" otherwise, in particular whenever the tail ratio
    reaches 1 and certification is impossible. The head takes the signed
    sum of every connected set of at most ``order`` vertices from one
    table, whose cap of 500000 visited splits is the only limit on
    ``order``.
    """
    if not 0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    if not 0 < a < _LOG_FLOAT_MAX:
        raise ValueError(f"a must lie in (0, {_LOG_FLOAT_MAX:.6g}) so that e^a fits a float")
    if order < 2:
        raise ValueError("truncation order must be at least 2")
    threshold = math.expm1(a)
    head = 0.0
    for n, norm in enumerate(_norms_scaled(g, min(order, g.n)), 2):
        head += _scaled(norm, q, n - 1, a * n)
    ratio = _scaled(g.max_degree, q, 1, 1.0 + a)
    if head > threshold:
        return FpConditionReport(
            "violated", head, None, threshold, ratio, order, q, a
        )
    if ratio >= 1.0:
        return FpConditionReport(
            "inconclusive", head, None, threshold, ratio, order, q, a
        )
    tail = math.exp(a) * ratio ** order / (1.0 - ratio)
    status = "satisfied" if head + tail <= threshold else "inconclusive"
    return FpConditionReport(status, head, tail, threshold, ratio, order, q, a)
