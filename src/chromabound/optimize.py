"""One-dimensional minimization and root bracketing.

The objective functions in this package are smooth and unimodal on the
interior of their domains but blow up at one or both endpoints, so the
minimizer brackets the minimum between the neighbours of the least of
32 evenly spaced interior samples and then sharpens that bracket by
golden-section search to the requested tolerance. Exceptions and NaNs
from the objective are treated as +inf rather than propagated. The root
finder brackets by doubling a unit step, with no limit on the number of
doublings short of an infinite step, and then bisects to a fixed
relative tolerance of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 200
_GRID_POINTS = 32
_BISECT_TOL = 1e-12


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
    tol: float = 1e-10,
) -> OptimizationResult:
    """Minimize f over the open interval (lo, hi).

    32 evenly spaced samples bracket the minimum, so a well narrower
    than the sample spacing can be missed.
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

    xs = [lo + (hi - lo) * (i + 0.5) / _GRID_POINTS for i in range(_GRID_POINTS)]
    vals = [g(x) for x in xs]
    k = min(range(_GRID_POINTS), key=vals.__getitem__)
    if math.isinf(vals[k]):
        raise ValueError("objective has no finite value on the interval")
    a = xs[k - 1] if k > 0 else lo
    b = xs[k + 1] if k < _GRID_POINTS - 1 else hi

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


def bisect_increasing(f: Callable[[float], float], target: float, lo: float) -> float:
    """Solve f(x) = target for increasing f, starting from f(lo) <= target.

    The upper end is found by doubling a unit step until f reaches the
    target; ``ValueError`` is raised if the step becomes infinite first.
    """
    if f(lo) > target:
        raise ValueError("f(lo) already exceeds the target")
    step = 1.0
    hi = lo + step
    while not f(hi) >= target:
        step *= 2.0
        hi = lo + step
        if math.isinf(hi):
            raise ValueError(
                f"could not bracket the target {target!r}: f stays below it "
                "at every doubled step in the float range"
            )

    while hi - lo > _BISECT_TOL * (1.0 + abs(lo) + abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
