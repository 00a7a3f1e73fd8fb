"""Truncated power series for rooted-tree generating functions.

The central object is the pair of formal series U(x) and T(x) solving

    U = x * Zt(U),        T = x * Z(U),

where Z and Zt are polynomials with constant term 1 and non-negative
integer coefficients (neighborhood growth profiles). Coefficients are
computed exactly over the integers in one forward pass: coefficient n
of U depends only on the coefficients below n of the powers of U, which
are kept in a table and extended one coefficient at a time. The module
also locates the radius sup_u u/Zt(u) and the saturation point
x = Z^{-1}(b)/Zt(Z^{-1}(b)) used by the bound optimizers. Both are
levels of polynomials with non-negative coefficients above the constant
term, Z(u) = b and u Zt'(u) - Zt(u) = 0, solved by Newton's method
(``optimize.solve_level``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .graphs import NeighborhoodProfile
from .optimize import solve_level
from .polynomial import IntPolynomial


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer coefficients a_1 .. a_order of a series with no constant term."""

    coefficients: tuple[int, ...]
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if len(self.coefficients) != self.order:
            raise ValueError("coefficient count must equal the order")
        if any(not isinstance(c, int) for c in self.coefficients):
            raise TypeError("coefficients must be integers")

    def __call__(self, x):
        acc = 0 * x
        for c in reversed(self.coefficients):
            acc = (acc + c) * x
        return acc


def _check_profile_poly(p: IntPolynomial, name: str) -> None:
    if not p.coefficients or p.coefficients[0] != 1:
        raise ValueError(f"{name} must have constant term 1")
    if any(c < 0 for c in p.coefficients):
        raise ValueError(f"{name} must have non-negative coefficients")


def solve_tree_series(
    z_tilde: IntPolynomial, z: IntPolynomial, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Solve U = x*z_tilde(U) and T = x*z(U) to the given order.

    Returns the pair (U, T) as truncated integer series. With u_n = [x^n]U
    and z~_k, z_k the coefficients of z_tilde and z:

        u_n = sum_k z~_k [x^(n-1)] U^k,
        [x^n] U^k = sum_{i=1}^{n-1} u_i [x^(n-i)] U^(k-1)   (k >= 2),
        t_n = sum_k z_k [x^(n-1)] U^k,

    so each coefficient is computed once, in O(order^2 * degree) integer
    multiplications.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    _check_profile_poly(z_tilde, "z_tilde")
    _check_profile_poly(z, "z")

    zt, zc = z_tilde.coefficients, z.coefficients
    # powers[k][n] = [x^n] U^k; U^k starts at x^k, which bounds the sum over i.
    k_max = max(len(zt), len(zc), 2) - 1
    powers = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(k_max)]
    u = powers[1]
    for n in range(1, order + 1):
        u[n] = sum(c * p[n - 1] for c, p in zip(zt, powers))
        for k in range(2, k_max + 1):
            prev = powers[k - 1]
            powers[k][n] = sum(u[i] * prev[n - i] for i in range(1, n - k + 2))
    t = [sum(c * p[n - 1] for c, p in zip(zc, powers)) for n in range(1, order + 1)]
    return TruncatedSeries(tuple(u[1:]), order), TruncatedSeries(tuple(t), order)


@lru_cache(maxsize=64)
def t_n_delta(delta: int, order: int) -> TruncatedSeries:
    """The series t_n for the degree-delta regular profile, to the
    given order.

    t_n is [x^n] T where T = x*(1+U)^delta and U = x*(1+U)^(delta-1):
    the number of n-vertex rooted subtrees of the infinite delta-regular
    tree containing the root.
    """
    prof = NeighborhoodProfile.binomial(delta)
    return solve_tree_series(prof.z_tilde_polynomial(), prof.z_polynomial(), order)[1]


def series_radius(z_tilde: IntPolynomial) -> tuple[float, float]:
    """Radius of convergence sup_u u/z_tilde(u) and the maximizing u.

    For constant z_tilde the supremum is infinite; for linear z_tilde it
    is the reciprocal slope, approached as u grows without bound. In
    both cases the maximizer is reported as inf.
    """
    _check_profile_poly(z_tilde, "z_tilde")
    if z_tilde.degree == 0:
        return math.inf, math.inf
    if z_tilde.degree == 1:
        return 1.0 / z_tilde.coefficients[1], math.inf
    # u Zt'(u) - Zt(u) = sum_k (k - 1) t~_k u^k vanishes at the maximizer
    u0 = solve_level(IntPolynomial([(k - 1) * c for k, c in enumerate(z_tilde.coefficients)]), 0.0)
    return u0 / z_tilde(u0), u0


def sup_x_threshold(b: float, z: IntPolynomial, z_tilde: IntPolynomial) -> float:
    """The point x_b = u_b / z_tilde(u_b) where u_b solves z(u_b) = b.

    Requires a finite b > 1 and a non-constant z, so that the level set
    exists on u > 0.
    """
    if not 1.0 < b < math.inf:
        raise ValueError("level b must be finite and exceed 1")
    _check_profile_poly(z, "z")
    _check_profile_poly(z_tilde, "z_tilde")
    if z.degree < 1:
        raise ValueError("z must be non-constant to reach the level b")
    u_b = solve_level(z, float(b))
    return u_b / z_tilde(u_b)
