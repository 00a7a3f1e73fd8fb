"""Independent computations that the benchmark checks chromabound against.

Nothing here imports chromabound. Graphs arrive as a vertex count and an
edge list, polynomials as integer coefficient lists, lowest degree first.

- ``chromatic_coefficients``: the chromatic polynomial from a dynamic
  program over set partitions of the frontier of a vertex ordering.
- ``roots_inside`` / ``max_root_modulus``: an exact integer Schur-Cohn
  test for "every root lies strictly inside |q| < r", and the largest
  root modulus found by bisection on that test.
- ``neighborhood_profile``: the independent-subset counts t_k and t~_k,
  counted over itertools.combinations.
- ``per_graph_bound``, ``sokal_radius``, ``complete_form``: the bound
  formulas, minimized by ternary search on their own.
- ``spanning_trees``: Kirchhoff's matrix-tree theorem with an exact
  fraction-free (Bareiss) determinant.
- ``tree_series_lagrange`` / ``regular_tree_counts``: rooted-tree series
  by Lagrange inversion and by the closed form for the regular tree.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb, gcd

# The comparison table of the paper: degree, then the classical
# degree-only radius, the improved degree-only radius and the
# complete-graph form, each to two decimals. The last row gives the
# limits of radius / degree. Four cells (10.72, 17.57, 38.24, 33.24)
# differ by 0.01 from their formulas rounded to two decimals, so the
# check allows the paper's values that much.
PAPER_TABLE = [
    ("2", "13.23", "10.72", "9.90"),
    ("3", "21.14", "17.57", "15.75"),
    ("4", "29.08", "24.44", "21.58"),
    ("6", "44.98", "38.24", "33.24"),
    ("any", "7.96*delta", "6.91*delta", "5.83*delta"),
]


# ---------------------------------------------------------------------------
# Chromatic polynomial by a frontier dynamic program
# ---------------------------------------------------------------------------

def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _frontier_order(adj: list[set[int]]) -> list[int]:
    """Greedy vertex order that keeps the frontier small.

    The frontier after a step holds the processed vertices that still
    have an unprocessed neighbour. Each step takes the vertex that leaves
    the smallest frontier, preferring vertices with more processed
    neighbours, then lower labels.
    """
    n = len(adj)
    done: set[int] = set()
    order: list[int] = []
    for _ in range(n):
        best = None
        for v in range(n):
            if v in done:
                continue
            after = done | {v}
            size = sum(1 for u in after if adj[u] - after)
            key = (size, -len(adj[v] & done), v)
            if best is None or key < best:
                best = key
        v = best[2]
        done.add(v)
        order.append(v)
    return order


def partition_counts(n: int, edges) -> list[int]:
    """counts[k] = number of partitions of the vertices into k independent sets."""
    adj = _adjacency(n, edges)
    order = _frontier_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    # vertex v leaves the frontier after the step that processes its last neighbour
    leaves_at = [max([pos[v]] + [pos[u] for u in adj[v]]) for v in range(n)]

    frontier: list[int] = []
    # state: (block label of each frontier vertex, total blocks so far) -> count
    states: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    for step, v in enumerate(order):
        nbr_slots = [i for i, u in enumerate(frontier) if u in adj[v]]
        grown: dict[tuple[tuple[int, ...], int], int] = {}
        for (labels, k), cnt in states.items():
            open_blocks = set(labels)
            blocked = {labels[i] for i in nbr_slots}
            fresh = len(open_blocks)
            moves = [((labels + (fresh,), k + 1), cnt)]
            moves += [((labels + (b,), k), cnt) for b in open_blocks - blocked]
            closed = k - len(open_blocks)
            if closed:
                # blocks with no frontier vertex hold no neighbour of v
                moves.append(((labels + (fresh,), k), cnt * closed))
            for key, c in moves:
                grown[key] = grown.get(key, 0) + c
        frontier.append(v)
        keep = [i for i, u in enumerate(frontier) if leaves_at[u] > step]
        frontier = [frontier[i] for i in keep]
        states = {}
        for (labels, k), cnt in grown.items():
            key = (_relabel([labels[i] for i in keep]), k)
            states[key] = states.get(key, 0) + cnt
    counts = [0] * (n + 1)
    for (_, k), cnt in states.items():
        counts[k] += cnt
    return counts


def _relabel(labels: list[int]) -> tuple[int, ...]:
    first: dict[int, int] = {}
    return tuple(first.setdefault(b, len(first)) for b in labels)


def chromatic_coefficients(n: int, edges) -> list[int]:
    """P_G(q) = sum_k a_k q(q-1)...(q-k+1), as coefficients lowest first."""
    counts = partition_counts(n, edges)
    total = [0] * (n + 1)
    falling = [1]  # q(q-1)...(q-k+1), lowest first
    for k, a in enumerate(counts):
        if k > 0:
            falling = _mul_linear(falling, -(k - 1))
        for i, c in enumerate(falling):
            total[i] += a * c
    return _strip(total)


def _mul_linear(p: list[int], c: int) -> list[int]:
    """p(q) * (q + c)."""
    out = [0] * (len(p) + 1)
    for i, a in enumerate(p):
        out[i] += c * a
        out[i + 1] += a
    return out


def _strip(p: list[int]) -> list[int]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


# ---------------------------------------------------------------------------
# Exact disk test (Schur-Cohn) and the largest root modulus
# ---------------------------------------------------------------------------

def roots_inside(coeffs: list[int], radius: Fraction) -> bool:
    """True exactly when every root of the polynomial lies in |q| < radius.

    Scales to s^n p(r z / s) for radius = r/s, then applies the Schur
    transform b_k = a_n a_k - a_0 a_{n-k} until the degree reaches 0;
    all roots are inside exactly when every step has |a_n| > |a_0|.
    """
    p = _strip(coeffs)
    if p == [0]:
        raise ValueError("the zero polynomial has no root set")
    radius = Fraction(radius)
    if radius <= 0:
        return len(p) == 1
    r, s = radius.numerator, radius.denominator
    n = len(p) - 1
    c = [a * r**k * s ** (n - k) for k, a in enumerate(p)]
    while len(c) > 1:
        a0, an = c[0], c[-1]
        if abs(an) <= abs(a0):
            return False
        m = len(c) - 1
        c = [an * c[k] - a0 * c[m - k] for k in range(1, m + 1)]
        g = 0
        for x in c:
            g = gcd(g, x)
        c = [x // g for x in c]
    return True


BRACKET_REL = Fraction(1, 10**9)


def max_root_modulus(coeffs: list[int]) -> tuple[Fraction, Fraction]:
    """An exact bracket (lo, hi] for the largest root modulus.

    Some root has modulus >= lo and every root has modulus < hi, with
    hi - lo <= BRACKET_REL * hi. A polynomial whose only root is 0 gives
    (0, 0].
    """
    p = _strip(coeffs)
    if all(a == 0 for a in p[:-1]):
        return Fraction(0), Fraction(0)
    # Cauchy: every root has modulus < 1 + max |a_k / a_n|
    hi = 1 + Fraction(max(abs(a) for a in p[:-1]), abs(p[-1]))
    lo = hi / 2
    while roots_inside(p, lo):
        hi, lo = lo, lo / 2
    while hi - lo > BRACKET_REL * hi:
        mid = _short_between(lo, hi)
        if roots_inside(p, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _short_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A rational with a small denominator near the middle of (lo, hi)."""
    width = hi - lo
    den = 1
    while Fraction(1, den) > width / 4:
        den *= 2
    mid = (lo + hi) / 2
    return Fraction(round(mid * den), den)


def round_down(x: float, digits: int = 9) -> Fraction:
    """x rounded down to a rational with the given number of decimals."""
    scale = 10**digits
    return Fraction(math.floor(Fraction(x) * scale), scale)


# ---------------------------------------------------------------------------
# Neighbourhood profile and the bound formulas
# ---------------------------------------------------------------------------

def _independent(adj: list[set[int]], verts) -> bool:
    return all(v not in adj[u] for u, v in itertools.combinations(verts, 2))


def _independent_counts(adj: list[set[int]], pool: list[int]) -> list[int]:
    """counts[k] = number of independent k-subsets of pool, k = 0..len(pool)."""
    return [
        sum(1 for s in itertools.combinations(pool, k) if _independent(adj, s))
        for k in range(len(pool) + 1)
    ]


def neighborhood_profile(n: int, edges) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(delta, t, t_tilde): the independent-subset maxima over neighbourhoods.

    t[k-1] is the largest number of independent k-subsets of one vertex
    neighbourhood, k = 1..delta; t_tilde[k-1] is the same with one
    neighbour removed first, k = 1..delta-1.
    """
    adj = _adjacency(n, edges)
    delta = max((len(a) for a in adj), default=0)
    t = [0] * (delta + 1)
    t_tilde = [0] * max(delta, 1)
    for v in range(n):
        nb = sorted(adj[v])
        for k, c in enumerate(_independent_counts(adj, nb)):
            t[k] = max(t[k], c)
        for u in nb:
            rest = [w for w in nb if w != u]
            for k, c in enumerate(_independent_counts(adj, rest)):
                t_tilde[k] = max(t_tilde[k], c)
    return delta, tuple(t[1:]), tuple(t_tilde[1 : delta])


def _poly_value(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ternary_min(f, lo: float, hi: float, steps: int = 200) -> float:
    """Minimum of a unimodal f on (lo, hi), by ternary search."""
    a, b = lo, hi
    for _ in range(steps):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if f(m1) <= f(m2):
            b = m2
        else:
            a = m1
    return f(0.5 * (a + b))


def per_graph_bound(t: tuple[int, ...], t_tilde: tuple[int, ...]) -> float:
    """min over 0 < x < Z^{-1}(2) of Z~(x) / (x (2 - Z(x))).

    Z(x) = 1 + sum t_k x^k and Z~(x) = 1 + sum t~_k x^k. With the
    binomial profile this is the improved degree-only radius.
    """
    z = (1,) + tuple(t)
    zt = (1,) + tuple(t_tilde)
    lo, hi = 0.0, 1.0
    while _poly_value(z, hi) < 2.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _poly_value(z, mid) < 2.0:
            lo = mid
        else:
            hi = mid
    x_max = lo
    return _ternary_min(
        lambda x: _poly_value(zt, x) / (x * (2.0 - _poly_value(z, x))), 0.0, x_max
    )


def degree_only_bound(delta: int) -> float:
    """The improved degree-only radius: the per-graph bound of a
    triangle-free neighbourhood of size delta."""
    t = tuple(comb(delta, k) for k in range(1, delta + 1))
    t_tilde = tuple(comb(delta - 1, k) for k in range(1, delta))
    return per_graph_bound(t, t_tilde)


def sokal_radius(delta: int) -> float:
    """min over a > 0 of e^a w^{1-1/D} / (w^{1/D} - 1), w = 1 + a e^{-a}."""

    def f(a: float) -> float:
        w = 1.0 + a * math.exp(-a)
        return math.exp(a) * w ** (1.0 - 1.0 / delta) / (w ** (1.0 / delta) - 1.0)

    return _ternary_min(f, 1e-9, 10.0)


def limit_constants() -> tuple[float, float, float]:
    """The limits of radius / degree: classical, improved, complete form."""

    def k(a: float) -> float:
        w = 1.0 + a * math.exp(-a)
        return math.exp(a) * w / math.log(w)

    def k_star(y: float) -> float:
        return y / ((2.0 - y) * math.log(y))

    return (
        _ternary_min(k, 1e-9, 10.0),
        _ternary_min(k_star, 1.0 + 1e-9, 2.0 - 1e-9),
        1.0 / (3.0 - 2.0 * math.sqrt(2.0)),
    )


def complete_form(delta: int) -> float:
    """The per-graph radius of the complete graph on delta + 1 vertices."""
    d = float(delta)
    return (d - 1.0) ** 2 / (3.0 * d - 1.0 - 2.0 * math.sqrt(2.0 * d * d - d))


# ---------------------------------------------------------------------------
# Spanning trees and rooted-tree series
# ---------------------------------------------------------------------------

def spanning_trees(n: int, edges) -> int:
    """Kirchhoff: the determinant of a reduced Laplacian, computed exactly."""
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return _bareiss_det([row[1:] for row in lap[1:]])


def _bareiss_det(m: list[list[int]]) -> int:
    m = [list(row) for row in m]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _poly_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    out = [0] * min(len(a) + len(b) - 1, cap + 1)
    for i, x in enumerate(a):
        if x == 0 or i > cap:
            continue
        for j, y in enumerate(b[: cap + 1 - i]):
            out[i + j] += x * y
    return out


def tree_series_lagrange(z: tuple[int, ...], zt: tuple[int, ...], order: int) -> list[int]:
    """Coefficients t_1..t_order of T = x Z(U), where U = x Z~(U).

    Lagrange inversion: [x^n] T = [x^{n-1}] Z(U) and, for n >= 2,
    [x^m] Z(U) = (1/m) [u^{m-1}] Z'(u) Z~(u)^m.
    """
    dz = [k * c for k, c in enumerate(z)][1:] or [0]
    out = [z[0]]
    power = [1]
    for m in range(1, order):
        power = _poly_mul(power, list(zt), order)
        prod = _poly_mul(dz, power, m - 1)
        coeff = prod[m - 1] if m - 1 < len(prod) else 0
        if coeff % m:
            raise ArithmeticError("Lagrange coefficient is not an integer")
        out.append(coeff // m)
    return out


def regular_tree_counts(delta: int, order: int) -> list[int]:
    """t_n = delta / ((delta-2) n + 2) * C((delta-1) n, n-1), n = 1..order."""
    out = []
    for n in range(1, order + 1):
        num = delta * comb((delta - 1) * n, n - 1)
        den = (delta - 2) * n + 2
        if num % den:
            raise ArithmeticError("regular tree count is not an integer")
        out.append(num // den)
    return out


def series_radius(zt: tuple[int, ...]) -> float:
    """sup over u > 0 of u / Z~(u), for Z~ of degree at least 2."""
    dzt = [k * c for k, c in enumerate(zt)][1:]

    def slope(u: float) -> float:  # increasing; zero at the maximiser
        return u * _poly_value(dzt, u) - _poly_value(zt, u)

    lo, hi = 0.0, 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo / _poly_value(zt, lo)


def saturation_point(b: float, z: tuple[int, ...], zt: tuple[int, ...]) -> float:
    """x_b = u_b / Z~(u_b), where Z(u_b) = b."""
    lo, hi = 0.0, 1.0
    while _poly_value(z, hi) < b:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _poly_value(z, mid) < b:
            lo = mid
        else:
            hi = mid
    return lo / _poly_value(zt, lo)
