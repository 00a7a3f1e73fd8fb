import math
from fractions import Fraction

import pytest

from chromabound import IntPolynomial, connected_graphs, minimize_scalar, named_corpus
from chromabound import neighborhood_profile
from chromabound.optimize import solve_level


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


def _level_equations():
    """(p, target) for Z(x) = 2, Z(u) = b and the radius equation
    u Zt'(u) - Zt(u) = 0 on the 401 neighborhood profiles of the connected
    graphs on <= 8 vertices and the named corpus."""
    graphs = [g for n in range(2, 9) for g in connected_graphs(n)]
    graphs += [g for _, g in named_corpus()]
    profiles = {neighborhood_profile(g) for g in graphs if g.max_degree >= 2}
    assert len(profiles) == 401
    for prof in sorted(profiles, key=repr):
        z, zt = prof.z_polynomial(), prof.z_tilde_polynomial()
        for target in (2.0, 1.01, 1.3, 1.6, 1.9, 1.99):
            yield z, target
        if zt.degree >= 2:
            yield IntPolynomial([(k - 1) * c for k, c in enumerate(zt.coefficients)]), 0.0


def test_level_solves_are_accurate_to_1e_13():
    # exact signs on both sides of the root at 1e-13 relative
    below, above = Fraction(1) - Fraction(1, 10**13), Fraction(1) + Fraction(1, 10**13)
    for p, target in _level_equations():
        x = Fraction(solve_level(p, target))
        assert p(x * below) < target < p(x * above), (p, target)


def test_level_solve_of_a_monomial():
    assert solve_level(IntPolynomial([1, 0, 0, 1]), 28.0) == 3.0
    assert solve_level(IntPolynomial([0, 1]), 1e300) == 1e300


@pytest.mark.parametrize(
    "coefficients, target, message",
    [
        ([1, 2, -1, 3], 2.0, "must be non-negative"),
        ([1], 2.0, "no coefficient above the constant term is positive"),
        ([1, 1], 1.0, "does not exceed p"),
        ([1, 1], 0.5, "does not exceed p"),
        ([1, 1], math.inf, "is not finite"),
        ([1, 1], math.nan, "is not finite"),
        ([1, 10**309], 2.0, "coefficient of the level polynomial is past the float range"),
        ([0, 10**154, 1], 1.7e308, "p passes the float range"),
    ],
    ids=["negative", "constant", "at-p0", "below-p0", "inf", "nan", "huge-coefficient", "p-overflows"],
)
def test_level_solve_rejects(coefficients, target, message):
    with pytest.raises(ValueError, match=message):
        solve_level(IntPolynomial(coefficients), target)
