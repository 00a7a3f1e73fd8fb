import math
import random

import pytest

from chromabound import (
    IntPolynomial,
    TruncatedSeries,
    series_radius,
    solve_tree_series,
    sup_x_threshold,
    t_n_delta,
)


def test_truncated_series_basics():
    s = TruncatedSeries((1, 2, 3), 3)
    assert s.order == 3
    assert s.coefficients[0] == 1 and s.coefficients[2] == 3
    x = 0.1
    assert s(x) == pytest.approx(x + 2 * x**2 + 3 * x**3)
    with pytest.raises(ValueError):
        TruncatedSeries((1, 2), 3)


def test_path_profile_series():
    # Max degree 2: the rooted subtrees of the two-sided infinite path
    # containing the root are intervals, n of them for each size n.
    t = t_n_delta(2, 10)
    assert t.coefficients == tuple(range(1, 11))


def test_cubic_tree_series():
    t = t_n_delta(3, 8)
    assert t.coefficients == (1, 3, 9, 28, 90, 297, 1001, 3432)


def test_degree_one_series():
    t = t_n_delta(1, 5)
    assert t.coefficients == (1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        t_n_delta(0, 5)


def test_t_n_delta_cache_is_bounded():
    t_n_delta.cache_clear()
    size = t_n_delta.cache_info().maxsize
    assert size is not None
    for delta in range(1, size + 12):
        t_n_delta(delta, 4)
    assert t_n_delta.cache_info().currsize == size
    t_n_delta.cache_clear()


def test_child_series_is_generalized_catalan():
    # U = x * Z~(U) with Z~ = (1+u)^(d-1) has the Fuss-Catalan solution
    # U_n = binom((d-1) n, n-1) / n.
    for delta in range(2, 9):
        zt = IntPolynomial([1, 1]) ** (delta - 1)
        z = IntPolynomial([1, 1]) ** delta
        u, _ = solve_tree_series(zt, z, 64)
        for n in range(1, 65):
            assert u.coefficients[n - 1] == math.comb((delta - 1) * n, n - 1) // n


def test_motzkin_profile():
    u, t = solve_tree_series(
        IntPolynomial([1, 1, 1]), IntPolynomial([1, 2, 1]), 7
    )
    assert u.coefficients == (1, 1, 2, 4, 9, 21, 51)
    assert t.coefficients == (1, 2, 3, 6, 13, 30, 72)


def _convolve_trunc(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += x * y
    return out


def test_fixed_point_property_random_profiles():
    rng = random.Random(99)
    profiles = [(IntPolynomial([1]), IntPolynomial([1]))]  # U = T = x
    for _ in range(12):
        deg = rng.randrange(1, 5)
        zt = IntPolynomial([1] + [rng.randrange(0, 4) for _ in range(deg)])
        z = IntPolynomial([1] + [rng.randrange(0, 5) for _ in range(deg + 1)])
        profiles.append((zt, z))
    order = 40
    for zt, z in profiles:
        u, t = solve_tree_series(zt, z, order)

        def compose(poly):
            # poly(U) as a truncated series in x, dense coefficients 0..order.
            acc = [0] * (order + 1)
            for c in reversed(poly.coefficients):
                acc = _convolve_trunc(acc, [0] + list(u.coefficients), order)
                acc[0] += c
            return acc

        zt_of_u = compose(zt)
        z_of_u = compose(z)
        # U = x * Z~(U) and T = x * Z(U), coefficientwise.
        for n in range(1, order + 1):
            assert u.coefficients[n - 1] == zt_of_u[n - 1]
            assert t.coefficients[n - 1] == z_of_u[n - 1]


def test_profile_polynomial_validation():
    with pytest.raises(ValueError):
        solve_tree_series(IntPolynomial([2, 1]), IntPolynomial([1, 1]), 5)
    with pytest.raises(ValueError):
        solve_tree_series(IntPolynomial([1, -1]), IntPolynomial([1, 1]), 5)


def test_series_radius_known_values():
    r, u0 = series_radius(IntPolynomial([1]))
    assert math.isinf(r) and math.isinf(u0)
    r, u0 = series_radius(IntPolynomial([1, 1]))
    assert r == pytest.approx(1.0)
    assert math.isinf(u0)
    r, u0 = series_radius(IntPolynomial([1, 2, 1]))
    assert r == pytest.approx(0.25, abs=1e-9)
    assert u0 == pytest.approx(1.0, abs=1e-6)
    r, u0 = series_radius(IntPolynomial([1, 3, 3, 1]))
    assert r == pytest.approx(4.0 / 27.0, abs=1e-9)
    assert u0 == pytest.approx(0.5, abs=1e-6)


def test_radius_bounds_coefficient_growth():
    # 1/R equals the limsup growth rate of the child-series coefficients.
    zt = IntPolynomial([1, 2, 1])
    r, _ = series_radius(zt)
    u, _ = solve_tree_series(zt, IntPolynomial([1, 2, 1]), 40)
    ratio = u.coefficients[39] / u.coefficients[38]
    assert ratio < 1.0 / r
    assert ratio == pytest.approx(1.0 / r, rel=0.1)


def test_sup_x_threshold():
    z = IntPolynomial([1, 2, 1])
    zt = IntPolynomial([1, 1])
    x = sup_x_threshold(2.0, z, zt)
    root = math.sqrt(2.0) - 1.0
    assert x == pytest.approx(root / (1.0 + root), abs=1e-10)
    for b in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sup_x_threshold(b, z, zt)
    with pytest.raises(ValueError):
        sup_x_threshold(2.0, IntPolynomial([1]), zt)
