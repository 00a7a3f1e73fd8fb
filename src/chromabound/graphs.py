"""Simple undirected graphs: representation, parsing, generators, profiles.

Vertices are dense integers 0..n-1. The adjacency is held only as a
tuple of bitmasks (bit u of ``masks[v]`` set iff u ~ v), from which
neighbors and degrees are read and on which the exhaustive routines in
the rest of the package lean heavily.

The neighborhood profile of a graph records, for each k, the maximal
number of independent k-subsets inside a single vertex neighborhood
(t_k), and the same maximum when one neighbor is removed first (t~_k).
These two vectors are all the graph-dependent zero-free bound needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from .errors import GraphParseError
from .polynomial import IntPolynomial


class Graph:
    """Immutable simple graph on vertex set {0, ..., n-1}. Its only state is
    ``adjacency_masks`` (bit u of mask v set iff u ~ v); ``n``, ``m`` and
    ``edges`` are read from it on each access."""

    __slots__ = ("adjacency_masks",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "adjacency_masks", tuple(masks))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # the default slot restore would write through __setattr__
        return (Graph.from_masks, (self.adjacency_masks,))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "Graph":
        """The graph with adjacency ``masks``: symmetric, loop-free, bits below len(masks)."""
        masks = tuple(masks)
        n = len(masks)
        for v, m in enumerate(masks):
            if m >> n:
                raise ValueError(f"mask of vertex {v} has a bit outside 0..{n - 1}")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            while m:
                u = (m & -m).bit_length() - 1
                if not masks[u] >> v & 1:
                    raise ValueError(f"vertex {v} has neighbor {u}, but {u} lacks {v}")
                m &= m - 1
        g = object.__new__(cls)
        object.__setattr__(g, "adjacency_masks", masks)
        return g

    @property
    def n(self) -> int:
        return len(self.adjacency_masks)

    @property
    def m(self) -> int:
        return sum(m.bit_count() for m in self.adjacency_masks) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (u, v) with u < v."""
        return frozenset(
            (v, u) for v, m in enumerate(self.adjacency_masks) for u in _mask_bits(m) if u > v
        )

    def neighbors(self, v: int) -> frozenset:
        return frozenset(_mask_bits(self.adjacency_masks[v]))

    def degree(self, v: int) -> int:
        return self.adjacency_masks[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adjacency_masks)

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adjacency_masks[u] >> v & 1)

    def is_connected(self) -> bool:
        return len(_components_masks(self.adjacency_masks)) <= 1

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of the connected components, each sorted, in order of minimum vertex."""
        return [tuple(_mask_bits(m)) for m in _components_masks(self.adjacency_masks)]

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled densely in sorted vertex order."""
        vert_mask = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for {self.n} vertices")
            vert_mask |= 1 << v
        return Graph.from_masks(_induced_masks(self.adjacency_masks, vert_mask))

    def relabeled(self, perm: Iterable[int]) -> "Graph":
        """Apply the permutation old-label -> new-label."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adjacency_masks == other.adjacency_masks

    def __hash__(self) -> int:
        return hash(self.adjacency_masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _induced_masks(masks: tuple[int, ...], vert_mask: int) -> tuple[int, ...]:
    """Adjacency of the subgraph induced by ``vert_mask``, relabeled densely
    in increasing vertex order."""
    verts = list(_mask_bits(vert_mask))
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        m = 0
        for u in _mask_bits(masks[v] & vert_mask):
            m |= 1 << pos[u]
        out.append(m)
    return tuple(out)


def _components_masks(masks: tuple[int, ...], within: int = -1) -> list[int]:
    """Connected components of a bitmask adjacency, or of the subgraph it
    induces on the vertex mask ``within``, as vertex masks in order of
    their lowest vertex."""
    within &= (1 << len(masks)) - 1
    out = []
    while within:
        comp = frontier = within & -within
        while frontier:
            reach = 0
            while frontier:
                b = frontier & -frontier
                reach |= masks[b.bit_length() - 1]
                frontier ^= b
            frontier = reach & within & ~comp
            comp |= frontier
        within ^= comp
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

def canonical_form(g: Graph) -> tuple[int, ...]:
    """A canonical adjacency-mask tuple: equal iff the graphs are isomorphic.

    Individualization-refinement search returning the lexicographically
    least relabeled mask tuple over the explored branches. Refinement
    ranks the vertices of each cell by an integer signature, a base-W
    count of their neighbours' colours, which orders them exactly as
    their sorted neighbour-colour tuples would; the forms are therefore
    the ones a tuple-ranking refinement gives. Branching is restricted
    to one representative per group of interchangeable vertices
    (identical neighborhoods after ignoring each other), which keeps
    complete and complete-multipartite graphs linear, and is pruned by
    automorphism orbits: two leaves with one form give an automorphism,
    and a branch in the orbit of one already explored is skipped. A
    skipped branch reaches the forms of an explored one, so the forms
    are those of the unpruned search.
    """
    return _canonical_masks(g.adjacency_masks)


def _canonical_masks(masks: tuple[int, ...]) -> tuple[int, ...]:
    # The colouring is an ordered list of cells, each in increasing vertex
    # order; a vertex's colour is the index of its cell, so colours are
    # always 0..n-1. Refinement splits every cell at once by the colours
    # of the vertices' neighbours, keeps the order of the cells, orders
    # the parts of a cell by the sorted tuple of their neighbours' colours
    # and repeats until no cell splits. Individualizing v puts it in a
    # cell of its own just before the rest of its cell.
    #
    # Integer signatures. The first cells are the degree classes and
    # cells only split, so the tuples within a cell have equal length.
    # For equal lengths, tuple a is below tuple b exactly when, at the
    # smallest colour whose counts differ, a has more of it: at the first
    # index i where they differ, a[i] = x < b[i]; the equal prefixes hold
    # the same colours below x, and the rest of b holds none of x. With
    # W = max degree + 1, sig(v) = sum of W**(n - 1 - colour(u)) over the
    # neighbours u of v carries the count of colour c as its base-W digit
    # n - 1 - c: a count is at most the degree, below W, so nothing
    # carries and the smallest colour is the top digit. Descending
    # signatures are therefore ascending tuples, and every cell, leaf and
    # form is the one a ranking of (colour, sorted tuple) would give.
    #
    # Automorphism pruning (McKay, J. Algorithms 26, 1998). Refinement and
    # the cell choice commute with automorphisms, so an automorphism that
    # fixes a node's individualized vertices maps the branch of v onto the
    # branch of its image, leaves and forms alike. A leaf whose form equals
    # the best one yields such a map, from its labelling to the best
    # leaf's; it fixes the vertices the two paths share and sends this
    # path's next vertex to one whose branch is done, so the search
    # returns to the node where the paths part. Each node then skips a
    # vertex in the orbit of one it tried, under the automorphisms found
    # that fix its path. A skipped branch holds the forms of a tried one,
    # so the least form is the one the full search gives.
    #
    # search(cells, path) returns the depth of the node to resume at.
    n = len(masks)
    if n <= 1:
        return tuple(masks)
    nbrs = [tuple(_mask_bits(m)) for m in masks]
    by_degree: dict[int, list[int]] = {}
    for v, m in enumerate(masks):
        by_degree.setdefault(m.bit_count(), []).append(v)
    base = max(by_degree) + 1
    weights = [base ** (n - 1 - c) for c in range(n)]
    best: tuple[int, ...] | None = None
    best_cells: list[list[int]] = []  # the best leaf
    best_path: list[int] = []  # the vertices individualized on its way
    autos: list[list[int]] = []  # automorphisms found, as lists of images

    def search(cells: list[list[int]], path: list[int]) -> int:
        nonlocal best, best_cells, best_path
        weight = [0] * n
        while True:
            for cell, w in zip(cells, weights):
                for v in cell:
                    weight[v] = w
            split: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                parts: dict[int, list[int]] = {}
                for v in cell:
                    parts.setdefault(sum(map(weight.__getitem__, nbrs[v])), []).append(v)
                if len(parts) == 1:
                    split.append(cell)
                else:
                    split.extend(parts[sig] for sig in sorted(parts, reverse=True))
            if len(split) == len(cells):
                break
            cells = split
        if len(cells) == n:
            # discrete: cells[i] holds the vertex labelled i
            bit = [0] * n
            for i, (v,) in enumerate(cells):
                bit[v] = 1 << i
            cand = tuple([sum(map(bit.__getitem__, nbrs[v])) for v, in cells])
            if best is None or cand < best:
                best, best_cells, best_path = cand, cells, path
            elif cand == best:
                image = [0] * n
                for (v,), (w,) in zip(cells, best_cells):
                    image[v] = w
                autos.append(image)
                depth = 0
                while path[depth] == best_path[depth]:
                    depth += 1
                return depth
            return len(path)
        # invariant cell choice: smallest non-singleton cell, then the
        # lowest colour; each branch individualizes one of its vertices
        at, size = 0, n + 1
        for i, cell in enumerate(cells):
            if 1 < len(cell) < size:
                at, size = i, len(cell)
        cell = cells[at]
        depth = len(path)
        tried: list[int] = []
        done = 0  # the tried vertices, as a mask
        orbit: dict[int, int] = {}  # v -> mask of its orbit in the cell
        used = 0
        for v in cell:
            while used < len(autos):
                image = autos[used]
                used += 1
                if any(image[u] != u for u in path):
                    continue
                # it maps the cell onto itself; join its cycles
                for u in cell:
                    a, b = orbit.get(u, 1 << u), orbit.get(image[u], 1 << image[u])
                    if a != b:
                        joined = a | b
                        for x in _mask_bits(joined):
                            orbit[x] = joined
            if orbit and orbit.get(v, 0) & done or any(_interchangeable(masks, v, u) for u in tried):
                continue
            tried.append(v)
            done |= 1 << v
            back = search(cells[:at] + [[v], [u for u in cell if u != v]] + cells[at + 1:], path + [v])
            if back < depth:
                return back
        return depth

    search([by_degree[d] for d in sorted(by_degree)], [])
    return best


def _interchangeable(masks: tuple[int, ...], v: int, u: int) -> bool:
    """True when swapping u and v (fixing the rest) is an automorphism.

    Holds iff the two neighborhoods agree once u and v ignore each other;
    adjacency between u and v themselves is symmetric either way.
    """
    return masks[v] & ~(1 << u) == masks[u] & ~(1 << v)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse a graph from text, in the format that the text shows.

    Text with a line starting "p " (any case, after leading blanks) is
    DIMACS ("p edge n m" then m lines "e u v", 1-based, "c" comment
    lines ignored, the tags p, e and c in any case); any other text is
    an edge list (header "n m", then m lines "u v", 0-based, '#' comment
    lines ignored). Both are a header
    of two counts and then m lines of two endpoints, read by one loop;
    only DIMACS's tag on each line is checked apart. Duplicate edges
    collapse silently; self-loops and out-of-range endpoints are errors
    naming the offending line and the index as the file writes it.
    """
    lines = text.splitlines()
    dimacs = any(line.strip().lower().startswith("p ") for line in lines)
    if dimacs:
        comment, base, usage = "c", 1, "problem line must be 'p edge n m'"
    else:
        comment, base, usage = "#", 0, "header must be two integers 'n m'"
    n = m = None
    edges = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0].lower().startswith(comment):
            continue
        if dimacs:
            tag = fields.pop(0)
            kind = tag.lower()
            if kind not in ("p", "e"):
                raise GraphParseError(f"unknown line type {tag!r}", lineno)
            if kind == "e" and n is None:
                raise GraphParseError("edge before problem line", lineno)
            if kind == "p":
                if n is not None:
                    raise GraphParseError("duplicate problem line", lineno)
                if fields[:1] != ["edge"]:
                    raise GraphParseError(usage, lineno)
                del fields[0]
        if n is None:
            n, m = _two_ints(fields, lineno, usage)
            if n < 0 or m < 0:
                raise GraphParseError("negative count in header", lineno)
            continue
        if len(edges) == m:
            raise GraphParseError(f"more than the declared {m} edges", lineno)
        u, v = _two_ints(fields, lineno, "edge line must be two integers")
        for w in (u, v):
            if not base <= w < n + base:
                raise GraphParseError(f"vertex index {w} out of range", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u - base, v - base))
    if n is None:  # a DIMACS text has a "p" line, which sets n or raises
        raise GraphParseError("empty input, expected 'n m' header")
    if len(edges) < m:
        raise GraphParseError(f"declared {m} edges, found {len(edges)}")
    return Graph(n, edges)


def _two_ints(fields: list[str], lineno: int, usage: str) -> tuple[int, int]:
    """The two integers of a header or edge line's fields."""
    try:
        a, b = map(int, fields)
    except ValueError:
        raise GraphParseError(usage, lineno) from None
    return a, b


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_FAMILY_PARAMS = {
    "complete": {"n"},
    "cycle": {"n"},
    "path": {"n"},
    "star": {"n", "leaves"},
    "grid": {"n", "rows", "cols"},
    "petersen": set(),
    "random-regular": {"n", "degree", "seed"},
}


def generate_graph(
    family: str,
    *,
    n: int | None = None,
    rows: int | None = None,
    cols: int | None = None,
    leaves: int | None = None,
    degree: int | None = None,
    seed: int | None = None,
) -> Graph:
    """Construct a named graph family member.

    complete(n), cycle(n >= 3), path(n), star(leaves), grid(rows, cols)
    (or grid(n) for the square), petersen(), random-regular(n, degree,
    seed). The random-regular sampler is the pairing model with
    rejection, reproducible from the seed; after 2000 rejected pairings
    it pairs the stubs one edge at a time (``_pair_stubs_one_by_one``),
    which always finishes but is not exactly uniform. ``ValueError``
    names any parameter given that the family does not take.
    """
    fam = family.lower().replace("_", "-")
    if fam not in _FAMILY_PARAMS:
        raise ValueError(f"unknown graph family {family!r}")
    given = {"n": n, "rows": rows, "cols": cols, "leaves": leaves, "degree": degree, "seed": seed}
    extra = [k for k, v in given.items() if v is not None and k not in _FAMILY_PARAMS[fam]]
    if extra:
        raise ValueError(f"graph family {fam!r} does not take {', '.join(extra)}")
    if n is not None and (leaves, rows, cols) != (None, None, None):
        raise ValueError(f"{fam} takes n or {'leaves' if fam == 'star' else 'rows/cols'}, not both")
    if fam == "complete":
        k = _require(n, "n")
        if k < 1:
            raise ValueError("complete graph needs n >= 1")
        return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    if fam == "cycle":
        k = _require(n, "n")
        if k < 3:
            raise ValueError("cycle needs length >= 3")
        return Graph(k, [(i, (i + 1) % k) for i in range(k)])
    if fam == "path":
        k = _require(n, "n")
        if k < 1:
            raise ValueError("path needs n >= 1")
        return Graph(k, [(i, i + 1) for i in range(k - 1)])
    if fam == "star":
        k = _require(leaves if leaves is not None else n, "leaves")
        if k < 1:
            raise ValueError("star needs at least one leaf")
        return Graph(k + 1, [(0, i) for i in range(1, k + 1)])
    if fam == "grid":
        r, c = (n, n) if n is not None else (_require(rows, "rows"), _require(cols, "cols"))
        if r < 1 or c < 1:
            raise ValueError("grid needs positive dimensions")
        edges = []
        for i in range(r):
            for j in range(c):
                v = i * c + j
                if j + 1 < c:
                    edges.append((v, v + 1))
                if i + 1 < r:
                    edges.append((v, v + c))
        return Graph(r * c, edges)
    if fam == "petersen":
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        idx = {p: i for i, p in enumerate(pairs)}
        edges = [
            (idx[p], idx[q])
            for p in pairs
            for q in pairs
            if p < q and not (set(p) & set(q))
        ]
        return Graph(10, edges)
    return _random_regular(_require(n, "n"), _require(degree, "degree"), seed)


def _require(value, name):
    if value is None:
        raise ValueError(f"missing parameter {name!r}")
    return value


def _random_regular(n: int, degree: int, seed: int | None) -> Graph:
    if seed is None:
        raise ValueError("random-regular needs a seed for reproducibility")
    if degree < 0 or degree >= n:
        raise ValueError("degree must satisfy 0 <= degree < n")
    if n * degree % 2:
        raise ValueError("n * degree must be even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(degree)]
    for _ in range(2000):
        rng.shuffle(stubs)
        pairs = {frozenset(stubs[i:i + 2]) for i in range(0, len(stubs), 2)}
        # simple: no loop (a pair of one vertex) and no repeated pair
        if len(pairs) == len(stubs) // 2 and all(len(p) == 2 for p in pairs):
            return Graph(n, map(tuple, pairs))
    return _pair_stubs_one_by_one(n, degree, rng)


def _pair_stubs_one_by_one(n: int, degree: int, rng: random.Random) -> Graph:
    """A degree-regular simple graph by pairing that rejects single bad
    pairs (Steger & Wormald, Combin. Probab. Comput. 8, 1999).

    Two random stubs left make an edge unless they would make a loop or
    a repeated edge; such a pair alone is drawn again. When no two stubs
    left can make an edge, the attempt starts over. Every degree-regular
    graph on n vertices can come out of an attempt, so the loop ends with
    probability 1, but the graphs are not exactly uniform.
    """
    while True:
        masks = [0] * n
        stubs = [v for v in range(n) for _ in range(degree)]
        while stubs:
            i, j = rng.sample(range(len(stubs)), 2)
            u, v = stubs[i], stubs[j]
            if u != v and not masks[u] >> v & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                for k in sorted((i, j), reverse=True):
                    stubs[k] = stubs[-1]
                    stubs.pop()
                continue
            left = sum(1 << w for w in set(stubs))
            if not any(left & ~masks[w] & ~(1 << w) for w in _mask_bits(left)):
                break
        else:
            return Graph.from_masks(masks)


# ---------------------------------------------------------------------------
# Neighborhood profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class NeighborhoodProfile:
    """Independent-subset counts of vertex neighborhoods.

    ``t[k-1]`` is the maximum over vertices v of degree >= k of the
    number of independent k-subsets of the neighborhood of v, for
    k = 1..delta. ``t_tilde[k-1]`` is the same maximum taken over
    neighborhoods with one neighbor removed, for k = 1..delta-1.
    Both satisfy the binomial bounds t_k <= C(delta, k) and
    t~_k <= C(delta-1, k), with equality exactly when some maximum
    degree vertex has an independent (triangle-free) neighborhood.
    """

    delta: int
    t: tuple[int, ...]
    t_tilde: tuple[int, ...]

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("profile needs delta >= 1")
        if len(self.t) != self.delta or len(self.t_tilde) != self.delta - 1:
            raise ValueError("profile vector lengths must be delta and delta-1")
        if any(x < 0 for x in self.t) or any(x < 0 for x in self.t_tilde):
            raise ValueError("profile counts must be non-negative")

    @classmethod
    def binomial(cls, delta: int) -> "NeighborhoodProfile":
        """The triangle-free profile: Z(u) = (1+u)^delta, Z~(u) = (1+u)^(delta-1)."""
        t = tuple(comb(delta, k) for k in range(1, delta + 1))
        return cls(delta, t, tuple(comb(delta - 1, k) for k in range(1, delta)))

    def z_polynomial(self) -> IntPolynomial:
        """Z(u) = 1 + sum_k t_k u^k."""
        return IntPolynomial((1,) + self.t)

    def z_tilde_polynomial(self) -> IntPolynomial:
        """Z~(u) = 1 + sum_k t~_k u^k."""
        return IntPolynomial((1,) + self.t_tilde)

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "t": [str(x) for x in self.t],
            "t_tilde": [str(x) for x in self.t_tilde],
        }


def _independent_subset_counts(
    masks: tuple[int, ...], pool: int, memo: dict[int, tuple[int, ...]]
) -> tuple[int, ...]:
    """counts[k] = number of independent k-subsets of the vertex mask ``pool``.

    The independence polynomial by I(P) = I(P - v) + x I(P - N[v]) with v
    the lowest vertex of P, memoized on P in ``memo`` (which must map 0 to
    (1,)); the tuple ends at the largest independent set.
    """
    hit = memo.get(pool)
    if hit is not None:
        return hit
    low = pool & -pool
    without = _independent_subset_counts(masks, pool ^ low, memo)
    with_v = _independent_subset_counts(
        masks, pool & ~low & ~masks[low.bit_length() - 1], memo
    )
    counts = list(without) + [0] * (len(with_v) + 1 - len(without))
    for k, c in enumerate(with_v):
        counts[k + 1] += c
    memo[pool] = tuple(counts)
    return memo[pool]


def neighborhood_profile(g: Graph) -> NeighborhoodProfile:
    """Compute the independent-subset profile of every neighborhood.

    Counts the independent subsets of each neighborhood by size with
    the deletion recursion of ``_independent_subset_counts``, sharing one
    memo across all the neighborhoods of g. The recursion meets at most
    2^delta masks per neighborhood, and only delta of them when the
    neighborhood is independent (a star) or a clique.
    """
    delta = g.max_degree
    if delta == 0:
        raise ValueError("profile undefined for maximum degree 0")
    masks = g.adjacency_masks
    memo = {0: (1,)}
    t = [0] * (delta + 1)
    t_tilde = [0] * delta
    for pool in masks:
        for k, c in enumerate(_independent_subset_counts(masks, pool, memo)):
            t[k] = max(t[k], c)
        for u in _mask_bits(pool):
            reduced = _independent_subset_counts(masks, pool & ~(1 << u), memo)
            for k, c in enumerate(reduced):
                t_tilde[k] = max(t_tilde[k], c)
    return NeighborhoodProfile(delta=delta, t=tuple(t[1:]), t_tilde=tuple(t_tilde[1:]))
