"""One-dimensional minimization and root bracketing.

The objective functions in this package are smooth and unimodal on the
interior of their domains but blow up at one or both endpoints. The
minimizer is Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 5) on the whole interval: it starts at
the golden-section point and takes a step to the vertex of the parabola
through the three best points, or a golden-section step when that
vertex leaves the bracket or the steps stop shrinking, until the
bracket is 1e-10 relative wide. Exceptions and NaNs from the objective
are treated as +inf rather than propagated, so a golden-section step
moves away from them. The root finder brackets by doubling a unit step,
with no limit on the number of doublings short of an infinite step, and
then narrows the bracket to a fixed relative width of 1e-12 by Brent's
zeroin (ch. 4): inverse quadratic or secant steps, with a bisection
step whenever they would not shrink the bracket fast enough. On the
smooth functions here both converge superlinearly, where golden
section and bisection gain a fixed factor per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_MAX_ITER = 200
_ARGMIN_TOL = 1e-10
_ROOT_TOL = 1e-12


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


def bisect_increasing(f: Callable[[float], float], target: float, lo: float) -> float:
    """Solve f(x) = target for increasing f, starting from f(lo) <= target.

    The upper end is found by doubling a unit step until f reaches the
    target; ``ValueError`` is raised if the step becomes infinite first.
    Brent's zeroin then narrows the bracket to a width of at most 1e-12
    (1 + |lo| + |hi|) and returns the end where |f - target| is smaller.
    """
    fa = f(lo) - target
    if fa > 0:
        raise ValueError("f(lo) already exceeds the target")
    a = lo
    step = 1.0
    b = lo + step
    fb = f(b) - target
    while not fb >= 0:
        a, fa = b, fb
        step *= 2.0
        b = lo + step
        if math.isinf(b):
            raise ValueError(
                f"could not bracket the target {target!r}: f stays below it "
                "at every doubled step in the float range"
            )
        fb = f(b) - target

    # b is the best estimate, c the far end of the bracket, a the previous b
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0 and fc > 0) or (fb < 0 and fc < 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        step_min = _ROOT_TOL * (1.0 + abs(b) + abs(c)) / 2.0
        m = 0.5 * (c - b)
        if abs(m) <= step_min or fb == 0:
            return b
        if abs(e) >= step_min and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(step_min * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > step_min else math.copysign(step_min, m)
        fb = f(b) - target
