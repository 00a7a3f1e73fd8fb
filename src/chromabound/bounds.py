"""Zero-free disk radii for the coloring polynomial.

Three nested bounds, each a one-dimensional minimization:

  * the classical degree-only bound, minimizing
    e^a (1+a e^{-a})^{1-1/D} / ((1+a e^{-a})^{1/D} - 1) over a > 0;
  * the per-graph bound, minimizing Zt(x) / (x (2 - Z(x))) over
    0 < x < Z^{-1}(2), with Z and Zt the graph's neighborhood growth
    polynomials;
  * the improved degree-only bound, the per-graph bound at the binomial
    profile Z = (1+x)^D, Zt = (1+x)^{D-1} of a triangle-free
    neighborhood.

The module also evaluates the per-graph bound a second way, in the a
variable through the rooted-tree series, whose sum is exact at the
saturation point and which a truncated partial sum checks; computes the
two limiting constants of the degree-only bounds; and verifies actual
zero-freeness: the largest modulus of the chromatic roots is certified
by an exact disk test over the integers, so a verified flag is a proof.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chromatic import _DEFAULT_VERTEX_CAP, chromatic_polynomial
from .errors import InconclusiveError
from .graphs import Graph, NeighborhoodProfile, canonical_form, neighborhood_profile
from .optimize import OptimizationResult, minimize_scalar, solve_level
from .roots import polynomial_roots
from .series import TruncatedSeries, series_radius, solve_tree_series, sup_x_threshold

try:
    # the built-in module: hashlib loads OpenSSL, about 4 MB resident
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

_ORDER_SLACK = 1e-9
# relative room for the level solve's error in the saturation point (about 1e-14)
_SERIES_SLACK = 1e-13


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Bounds for one graph, ordered strongest to weakest.

    ``c_star_graph`` is None for maximum degree below 2, where the
    per-graph formula degenerates; the degree-based fields then report
    the first meaningful degree, 2. ``max_root_modulus`` and
    ``zero_free_verified`` are filled only when roots were computed.
    """

    graph_id: str
    delta: int
    profile: NeighborhoodProfile | None
    c_sokal: float
    c_star_delta: float
    c_star_graph: float | None
    c_star_graph_series: float | None = None
    max_root_modulus: float | None = None
    zero_free_verified: bool = False

    def __post_init__(self):
        if self.c_star_delta > self.c_sokal + _ORDER_SLACK:
            raise ValueError("bound ordering violated: c_star_delta > c_sokal")
        if (
            self.c_star_graph is not None
            and self.c_star_graph > self.c_star_delta + _ORDER_SLACK
        ):
            raise ValueError("bound ordering violated: c_star_graph > c_star_delta")

    @property
    def strongest(self) -> float:
        """The strongest bound that applies: the per-graph one, or below
        degree 2 the degree-2 improved one."""
        return self.c_star_delta if self.c_star_graph is None else self.c_star_graph

    def to_json(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "delta": self.delta,
            "profile": None if self.profile is None else self.profile.to_json(),
            "c_sokal": self.c_sokal,
            "c_star_delta": self.c_star_delta,
            "c_star_graph": self.c_star_graph,
            "c_star_graph_series": self.c_star_graph_series,
            "max_root_modulus": self.max_root_modulus,
            "zero_free_verified": self.zero_free_verified,
        }


def graph_id(g: Graph) -> str:
    """Stable identifier built from the canonical form of g."""
    digest = sha1(repr(canonical_form(g)).encode()).hexdigest()[:8]
    return f"g{g.n}v{g.m}e-{digest}"


def _minimize(f, lo: float, hi: float) -> OptimizationResult:
    """``minimize_scalar``, raising ``InconclusiveError`` when the bracket
    is still wider than the tolerance at the iteration cap."""
    res = minimize_scalar(f, lo, hi)
    if not res.tolerance_met:
        raise InconclusiveError(
            f"minimization over ({lo:.6g}, {hi:.6g}) missed its tolerance: "
            f"bracket {res.bracket[0]:.12g}..{res.bracket[1]:.12g} at the iteration cap"
        )
    return res


# ---------------------------------------------------------------------------
# Degree-only bounds
# ---------------------------------------------------------------------------

def _a_form_min(delta: int, w) -> OptimizationResult:
    """Minimize e^a w^{1-1/delta} / (w^{1/delta} - 1) over 0 < a < 10,
    with w = w(a)."""
    if delta < 2:
        raise ValueError("delta must be at least 2")

    def objective(a: float) -> float:
        wa = w(a)
        return math.exp(a) * wa ** (1.0 - 1.0 / delta) / (wa ** (1.0 / delta) - 1.0)

    return _minimize(objective, 0.0, 10.0)


@lru_cache(maxsize=64)
def sokal_bound(delta: int) -> OptimizationResult:
    """The classical degree-only zero-free radius, by minimization."""
    return _a_form_min(delta, lambda a: 1.0 + a * math.exp(-a))


@lru_cache(maxsize=64)
def cstar_delta(delta: int) -> OptimizationResult:
    """The improved degree-only radius: the per-graph minimization on the
    binomial profile, that of a triangle-free neighborhood."""
    if delta < 2:
        raise ValueError("delta must be at least 2")
    return _cstar_profile_opt(NeighborhoodProfile.binomial(delta))


@lru_cache(maxsize=64)
def cstar_delta_a_form(delta: int) -> OptimizationResult:
    """The same improved radius in the a variable, for cross-checking.

    The substitution 2 - e^{-a} = (1+x)^delta identifies the two
    objectives, so the minima must coincide.
    """
    return _a_form_min(delta, lambda a: 2.0 - math.exp(-a))


def complete_graph_bound(delta: int) -> float:
    """Closed-form per-graph radius of the complete graph on delta+1
    vertices."""
    if delta < 2:
        raise ValueError("delta must be at least 2")
    return (delta - 1.0) ** 2 / (
        3.0 * delta - 1.0 - 2.0 * math.sqrt(2.0 * delta * delta - delta)
    )


@lru_cache(maxsize=None)
def constants() -> dict[str, float]:
    """The two limiting ratios bound/degree as the degree grows."""

    def k_objective(a: float) -> float:
        w = math.log(1.0 + a * math.exp(-a))
        return math.exp(a) * (1.0 + a * math.exp(-a)) / w

    def k_star_objective(y: float) -> float:
        return y / ((2.0 - y) * math.log(y))

    return {
        "K": _minimize(k_objective, 0.0, 10.0).value,
        "K_star": _minimize(k_star_objective, 1.0, 2.0).value,
    }


# ---------------------------------------------------------------------------
# Per-graph bound
# ---------------------------------------------------------------------------

def _cstar_profile_opt(prof: NeighborhoodProfile) -> OptimizationResult:
    """Minimize Zt(x) / (x (2 - Z(x))) over 0 < x < Z^{-1}(2), where Z and
    Zt are the profile's neighborhood growth polynomials."""
    z = prof.z_polynomial()
    zt = prof.z_tilde_polynomial()
    x_max = solve_level(z, 2.0)

    def objective(x: float) -> float:
        return zt(x) / (x * (2.0 - z(x)))

    return _minimize(objective, 0.0, x_max)


def cstar_graph(g: Graph) -> BoundReport:
    """Per-graph bound report; degree-only bounds fill the weaker fields.

    For maximum degree 1 the per-graph field is reported as None and the
    degree-based fields use degree 2, the first degree where the
    formulas are meaningful.
    """
    if g.max_degree == 0:
        raise ValueError("per-graph bound undefined for an edgeless graph")
    return _bound_report(g, neighborhood_profile(g))


def _bound_report(g: Graph, prof: NeighborhoodProfile | None) -> BoundReport:
    """The bounds of g from its profile, degree 2 standing in for lower
    degrees; the per-graph bound is None below degree 2."""
    delta = g.max_degree
    ref_delta = max(delta, 2)
    return BoundReport(
        graph_id=graph_id(g),
        delta=delta,
        profile=prof,
        c_sokal=sokal_bound(ref_delta).value,
        c_star_delta=cstar_delta(ref_delta).value,
        c_star_graph=_cstar_profile_opt(prof).value if delta >= 2 else None,
    )


def cstar_graph_series(g: Graph | NeighborhoodProfile, order: int = 64) -> float:
    """The per-graph bound in the a variable, from the rooted-tree series.

    ``g`` is the graph or its neighborhood profile, all the bound reads of
    the graph. At each a the radius is e^a/y for the largest y with
    sum_n t_n y^{n-1} = Z(U(y)) <= b = 2 - e^{-a}: the saturation point
    ``sup_x_threshold(b)`` while b < Z(u0), u0 maximizing u/Zt(u), and the
    series radius once b >= Z(u0). ``order`` sets a check: the exact
    order-N partial sum at the minimizing y, whose terms are non-negative,
    must not pass b beyond the root solver's tolerance, or
    ``InconclusiveError`` is raised.
    """
    if order < 8:
        raise ValueError("order must be at least 8")
    prof = g if isinstance(g, NeighborhoodProfile) else neighborhood_profile(g)
    z, zt = prof.z_polynomial(), prof.z_tilde_polynomial()
    radius, u0 = series_radius(zt)
    z_u0 = z(u0) if math.isfinite(u0) else math.inf

    def saturation(a: float) -> float:
        b = 2.0 - math.exp(-a)
        return sup_x_threshold(b, z, zt) if b < z_u0 else radius

    res = _minimize(lambda a: math.exp(a) / saturation(a), 1e-3, 3.0)
    b, y = 2.0 - math.exp(-res.argmin), saturation(res.argmin)
    t = solve_tree_series(zt, z, order)[1]
    if not _partial_sum_at_most(t, y, b * (1.0 + _SERIES_SLACK)):
        head = t(Fraction(y)) / Fraction(y)
        raise InconclusiveError(f"order-{order} partial sum {float(head)!r} exceeds {b!r}")
    return res.value


def _partial_sum_at_most(t: TruncatedSeries, y: float, level: float) -> bool:
    """Whether sum_{n=1..N} t_n y^{n-1} <= level, decided exactly.

    A float y is num / 2^k and level is m / 2^j, so the comparison is
    sum_n t_n num^{n-1} 2^{k(N-n)} * 2^j <= m * 2^{k(N-1)} over the
    integers, the left side one Horner pass with shifts for the powers
    of 2^k.
    """
    num, den = y.as_integer_ratio()
    m, den_level = level.as_integer_ratio()
    k, j = den.bit_length() - 1, den_level.bit_length() - 1
    acc = 0
    for i, c in enumerate(reversed(t.coefficients)):  # c = t_{N-i}
        acc = acc * num + (c << k * i)
    return acc << j <= m << k * (t.order - 1)


def verify_zero_free(
    g: Graph,
    *,
    tol: float | None = None,
    cache: dict | None = None,
    max_vertices: int = _DEFAULT_VERTEX_CAP,
) -> BoundReport:
    """Certify the largest chromatic root modulus and compare it with the bounds.

    The verified flag records whether the certified largest root modulus
    falls strictly inside ``BoundReport.strongest``, the strongest
    applicable bound (the per-graph bound for degree >= 2, the degree-2
    improved bound for degenerate graphs). Every root has modulus at
    most ``max_root_modulus``, so a true flag proves the graph's
    chromatic polynomial zero-free on |q| >= bound.

    ``tol`` is accepted and ignored: no root tolerance enters the verdict.
    ``cache`` is passed to ``chromatic_polynomial``: a dict shared with
    other calls reuses their subproblem results, and with none the memo
    is confined to this computation. Results are identical either way.
    """
    p = chromatic_polynomial(g, cache=cache, max_vertices=max_vertices)
    rs = polynomial_roots(p)
    report = cstar_graph(g) if g.max_degree else _bound_report(g, None)
    return dataclasses.replace(
        report,
        max_root_modulus=rs.max_modulus,
        zero_free_verified=rs.max_modulus < report.strongest,
    )
