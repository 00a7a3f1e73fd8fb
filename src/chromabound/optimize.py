"""One-dimensional minimization and root bracketing.

The objective functions in this package are smooth and unimodal on the
interior of their domains but blow up at one or both endpoints, so the
minimizer brackets the minimum between the neighbours of the least of
32 evenly spaced interior samples and then sharpens that bracket by
golden-section search to the requested tolerance. Exceptions and NaNs
from the objective are treated as +inf rather than propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 200


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a scalar minimization.

    ``bracket`` is the final search interval, which holds ``argmin``;
    ``tolerance_met`` records whether its width reached the requested
    tolerance before the iteration cap. Near a minimum the objective is
    flat to within rounding over a width of about sqrt(eps) relative, so
    ``value`` is accurate to rounding but the true minimizer may lie
    outside a narrower bracket.
    """

    argmin: float
    value: float
    bracket: tuple[float, float]
    evaluations: int
    tolerance_met: bool


def minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    grid_points: int = 32,
    tol: float = 1e-10,
) -> OptimizationResult:
    """Minimize f over the open interval (lo, hi).

    ``grid_points`` evenly spaced samples bracket the minimum; a narrow
    well between two samples needs a finer grid.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    evals = 0

    def g(x: float) -> float:
        nonlocal evals
        evals += 1
        try:
            v = float(f(x))
        except (OverflowError, ValueError, ZeroDivisionError):
            return math.inf
        return math.inf if math.isnan(v) else v

    xs = [lo + (hi - lo) * (i + 0.5) / grid_points for i in range(grid_points)]
    vals = [g(x) for x in xs]
    k = min(range(grid_points), key=vals.__getitem__)
    if math.isinf(vals[k]):
        raise ValueError("objective has no finite value on the interval")
    a = xs[k - 1] if k > 0 else lo
    b = xs[k + 1] if k < grid_points - 1 else hi

    # golden-section contraction of [a, b]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = g(c), g(d)
    met = False
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            met = True
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = g(d)

    x_best, f_best = (c, fc) if fc <= fd else (d, fd)
    return OptimizationResult(
        argmin=x_best,
        value=f_best,
        bracket=(a, b),
        evaluations=evals,
        tolerance_met=met,
    )


def bisect_increasing(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float | None = None,
    *,
    tol: float = 1e-12,
    max_doublings: int = 200,
) -> float:
    """Solve f(x) = target for increasing f, starting from f(lo) <= target.

    When ``hi`` is omitted, the upper end is found by doubling a unit
    step until f exceeds the target.
    """
    if f(lo) > target:
        raise ValueError("f(lo) already exceeds the target")
    if hi is None:
        step = 1.0
        hi = lo + step
        for _ in range(max_doublings):
            if f(hi) >= target:
                break
            step *= 2.0
            hi = lo + step
        else:
            raise ValueError("could not bracket the target by doubling")
    elif f(hi) < target:
        raise ValueError("f(hi) is below the target")

    while hi - lo > tol * (1.0 + abs(lo) + abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
