import math

import pytest

from chromabound import bisect_increasing, minimize_scalar


def test_quadratic_minimum():
    res = minimize_scalar(lambda x: (x - 1.3) ** 2 + 0.5, 0.0, 4.0)
    assert res.argmin == pytest.approx(1.3, abs=1e-7)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.tolerance_met
    assert res.bracket[0] <= res.argmin <= res.bracket[1]


def test_nonsmooth_objective():
    res = minimize_scalar(lambda x: abs(x - math.pi), 0.0, 10.0)
    assert res.argmin == pytest.approx(math.pi, abs=1e-6)


def test_divergent_endpoints_are_tolerated():
    # 1/x + x on (0, 4): the pole at the left endpoint must not draw
    # Brent's steps towards it.
    res = minimize_scalar(lambda x: 1.0 / x + x, 0.0, 4.0)
    assert res.argmin == pytest.approx(1.0, abs=1e-6)
    assert res.value == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_monotone_objective_ends_at_an_end(sign):
    # the minimum of a monotone objective is at an end of the interval;
    # the bracket still closes to the tolerance around it
    lo, hi = 1.0, 3.0
    res = minimize_scalar(lambda x: sign * x**3, lo, hi)
    end = lo if sign > 0 else hi
    assert res.tolerance_met
    assert abs(res.argmin - end) <= 1e-10 * (1.0 + abs(lo) + abs(hi))
    assert res.value == pytest.approx(sign * end**3, rel=1e-9)


def _undefined_on_left_third(x, bad):
    if x < 4.0 / 3.0:
        if bad == "raise":
            raise ZeroDivisionError
        return float("nan")
    return (x - 1.5) ** 2 + 1.0


@pytest.mark.parametrize("bad", ["raise", "nan"])
def test_objective_undefined_on_the_left_third(bad):
    res = minimize_scalar(lambda x: _undefined_on_left_third(x, bad), 0.0, 4.0)
    assert res.tolerance_met
    assert res.argmin == pytest.approx(1.5, abs=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_no_finite_value_raises():
    with pytest.raises(ValueError, match="no finite value"):
        minimize_scalar(lambda x: float("nan"), 0.0, 1.0)


def test_bisect_on_exponential():
    root = bisect_increasing(math.exp, 5.0, 0.0)
    assert root == pytest.approx(math.log(5.0), abs=1e-10)


def test_bisect_target_below_start():
    with pytest.raises(ValueError):
        bisect_increasing(math.exp, 0.5, 0.0)


def test_bisect_doubles_without_a_step_limit():
    # about 1000 doublings of the unit step before x reaches the target
    root = bisect_increasing(lambda x: x, 1e300, 0.0)
    assert root == pytest.approx(1e300, rel=1e-11)


def test_bisect_names_an_unreachable_target():
    with pytest.raises(ValueError, match="target 2.0"):
        bisect_increasing(lambda x: x / (1.0 + x), 2.0, 0.0)
