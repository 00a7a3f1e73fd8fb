"""One-dimensional minimization and polynomial levels.

The objective functions in this package are smooth and unimodal on the
interior of their domains but blow up at one or both endpoints. The
minimizer is Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 5) on the whole interval: it starts at
the golden-section point and takes a step to the vertex of the parabola
through the three best points, or a golden-section step when that
vertex leaves the bracket or the steps stop shrinking, until the
bracket is 1e-10 relative wide. Exceptions and NaNs from the objective
are treated as +inf rather than propagated, so a golden-section step
moves away from them. Every level the package solves is p(x) = target
for a polynomial p with non-negative coefficients above its constant
term, increasing and convex on x >= 0, so Newton's method started
above the root falls monotonically to it and stops there at rounding
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .polynomial import IntPolynomial

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_MAX_ITER = 200
_ARGMIN_TOL = 1e-10


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a scalar minimization.

    ``bracket`` is the final search interval, which holds ``argmin``;
    ``tolerance_met`` records whether its width reached the tolerance
    before the iteration cap. Near a minimum the objective is
    flat to within rounding over a width of about sqrt(eps) relative, so
    ``value`` is accurate to rounding but the true minimizer may lie
    outside a narrower bracket.
    """

    argmin: float
    value: float
    bracket: tuple[float, float]
    evaluations: int
    tolerance_met: bool


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float) -> OptimizationResult:
    """Minimize f over the open interval (lo, hi).

    Brent's method narrows the bracket (lo, hi) until its width is at
    most 1e-10 (1 + |a| + |b|), taking at most 200 steps. On an
    objective with more than one local minimum it finds one of them.
    ``ValueError`` is raised if the least value it saw is not finite.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    evals = 0

    def g(x: float) -> float:
        nonlocal evals
        evals += 1
        try:
            v = float(f(x))
        except (OverflowError, ValueError, ZeroDivisionError):
            return math.inf
        return math.inf if math.isnan(v) else v

    # x is the best point so far, w the second best and v the previous w
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = g(x)
    d = e = 0.0  # the last two steps
    met = False
    for _ in range(_MAX_ITER):
        width = _ARGMIN_TOL * (1.0 + abs(a) + abs(b))
        if b - a <= width:
            met = True
            break
        step_min = width / 4.0  # no two evaluations closer than this
        m = 0.5 * (a + b)
        p = q = 0.0
        if abs(e) > step_min and math.isfinite(fv) and math.isfinite(fw):
            # vertex of the parabola through (v, fv), (w, fw), (x, fx) at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
        if q and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            # the parabola moves less than half the step before last and
            # stays inside the bracket
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * step_min:
                d = math.copysign(step_min, m - x)
        else:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= step_min else math.copysign(step_min, d))
        fu = g(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    if not math.isfinite(fx):
        raise ValueError("objective has no finite value on the interval")
    return OptimizationResult(
        argmin=x,
        value=fx,
        bracket=(a, b),
        evaluations=evals,
        tolerance_met=met,
    )


def solve_level(p: IntPolynomial, target: float) -> float:
    """The x > 0 with p(x) = target, for p with non-negative coefficients
    above its constant term c_0 and a finite target above c_0.

    Newton's method starts at x0 = min over k >= 1 with c_k > 0 of
    ((target - c_0) / c_k)^(1/k): one term c_k x0^k alone reaches
    target - c_0, so p(x0) >= target. On x >= 0 p is increasing and
    convex, so a Newton step from a point where p >= target lands between
    the root and that point, and the iterates fall monotonically to the
    root: no bracket is needed. Each step evaluates p and p' in one Horner
    pass, and the iteration stops when a step no longer lowers x.
    ``ValueError`` is raised when a coefficient or p(x0) is past the
    float range (about 1.8e308).
    """
    try:
        c = [float(a) for a in p.coefficients]
    except OverflowError:
        raise ValueError(
            "a coefficient of the level polynomial is past the float range (about 1.8e308)"
        ) from None
    if not math.isfinite(target):
        raise ValueError(f"target {target!r} is not finite")
    if any(a < 0 for a in c[1:]):
        raise ValueError("coefficients above the constant term must be non-negative")
    if not target > p(0):
        raise ValueError(f"target {target!r} does not exceed p(0)")
    starts = [((target - c[0]) / a) ** (1.0 / k) for k, a in enumerate(c) if k and a > 0]
    if not starts:
        raise ValueError("no coefficient above the constant term is positive")
    x = min(starts)
    while True:
        v = d = 0.0  # p(x) and p'(x)
        for a in reversed(c):
            d = d * x + v
            v = v * x + a
        if v == math.inf:
            raise ValueError(f"p passes the float range before it reaches {target!r}")
        x_next = x - (v - target) / d
        if not x_next < x:
            return x
        x = x_next
