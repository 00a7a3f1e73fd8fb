"""Roots of integer polynomials and an exact test that they lie in a disk.

``roots_inside(p, R)`` is the Schur-Cohn test (Schur 1917, Cohn 1922)
over the integers. ``polynomial_roots`` strips the zero roots, divides
out the small integer roots exactly by trial, and splits the quotient by
exact gcds into square-free layers, so that every root the float step
sees is simple. The Aberth-Ehrlich iteration (Aberth, Math. Comp. 27,
1973) in Python floats finds the roots of each layer; an approximation
that rounds to an integer root is divided out exactly too. No numpy is
involved. Only the largest modulus is certified: an exact integer root,
or a radius the disk test passed, within 1e-9 relative of the exact
value. The non-integer roots are uncertified approximations; where the
float step overflows they are NaN. The disk tests bracket the largest
modulus in exact dyadic rationals, integers over one power of two: the
bracket around the float estimate has its ends rounded outward to 36
significant bits, so that the radii's short denominators keep the
Schur-Cohn integers small.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomial import IntPolynomial

# The largest modulus is first bracketed within _CERT_REL of its float
# estimate; bisection narrows any other bracket to _BRACKET_REL relative.
_CERT_REL = 1e-10
_BRACKET_REL = Fraction(4, 10**10)
# The seed bracket's ends are rounded outward to this many significant
# bits, which keeps it within _BRACKET_REL and the disk tests' radii short.
_SEED_BITS = 36
# Integer roots up to this modulus are divided out by trial before the
# float step, so they come back exact and leave it a smaller polynomial;
# a larger one is caught by rounding its approximation.
_TRIAL_LIMIT = 16
# Sweeps of the Aberth iteration; a root still moving after them is
# returned as it stands.
_ABERTH_STEPS = 200
_EPS = 2.0**-52


@dataclass(frozen=True)
class RootSet:
    """All complex roots of a polynomial and their certified largest modulus.

    ``roots`` are uncertified Aberth-Ehrlich approximations (the zero and
    integer roots are exact), sorted by real part, then imaginary part.
    ``max_modulus`` is certified: it bounds every |z|, lies within 1e-9
    relative of the largest and equals it when that root is an integer
    (0.0 for constant polynomials).
    """

    roots: tuple[complex, ...]
    max_modulus: float


def roots_inside(p: IntPolynomial, radius) -> bool:
    """True exactly when every root of p lies in |q| < radius, a rational
    (int, Fraction or float).

    Scales to r_0 = s^n p(r z / s) for radius = r/s, then applies the
    Schur transform T, b_k = a_n a_k - a_0 a_{n-k}, until the degree
    reaches 0; all roots are inside exactly when every step has
    |a_n| > |a_0|. A nonzero constant factor changes neither that test
    nor the later steps, so the coefficients are kept small without
    gcds, by a fraction-free step in the manner of Bareiss: r_1 = T(r_0),
    r_2 = T(r_1) and r_{k+1} = T(r_k) / lead(r_{k-1}) for k >= 2. For
    k = 2 the division is exact because lead(T(p)) divides T(T(T(p)))
    for every integer p; for larger k it left no remainder on every
    input tested. Every remainder is checked, and a nonzero one raises
    ``ArithmeticError``, so a True is still a proof.
    """
    if not p:
        raise ValueError("the zero polynomial has no well-defined root set")
    radius = Fraction(radius)
    if radius <= 0:
        return p.degree == 0
    r, s = radius.numerator, radius.denominator
    c = [a * r**k * s ** (p.degree - k) for k, a in enumerate(p.coefficients)]
    for k in range(p.degree):  # c = r_k
        a0, an = c[0], c[-1]
        if abs(an) <= abs(a0):
            return False
        m = len(c) - 1
        c = [an * c[i] - a0 * c[m - i] for i in range(1, m + 1)]
        if k >= 2:
            c = _exact_quotient(c, lead_before)
        lead_before = an
    return True


def _exact_quotient(c: list[int], d: int) -> list[int]:
    quotients = []
    for a in c:
        q, rem = divmod(a, d)
        if rem:
            raise ArithmeticError(f"Schur-Cohn step: {a} is not divisible by {d}")
        quotients.append(q)
    return quotients


def polynomial_roots(p: IntPolynomial) -> RootSet:
    """All roots of p, with multiplicity, and their certified largest modulus."""
    if not p:
        raise ValueError("the zero polynomial has no well-defined root set")
    rest = list(p.coefficients)
    zero_mult = 0
    while rest[0] == 0:
        rest.pop(0)
        zero_mult += 1

    trials = [k for j in range(1, _TRIAL_LIMIT + 1) for k in (j, -j) if rest[0] % k == 0]
    exact, rest = _divide_out(rest, trials)
    layers = _multiplicity_layers(rest)
    approx = [_aberth_roots(h) for h in layers]
    near = {
        round(z.real) for zs in approx for z in zs if cmath.isfinite(z) and abs(z.imag) < 0.5
    }
    more, rest = _divide_out(rest, sorted(k for k in near if abs(k) > _TRIAL_LIMIT))
    if more:
        exact += more
        layers = _multiplicity_layers(rest)
        approx = [_aberth_roots(h) for h in layers]

    found = [0j] * zero_mult + [complex(k) for k in exact]
    found += [z for zs in approx for z in zs]
    found.sort(key=lambda z: (z.real, z.imag))
    return RootSet(tuple(found), _max_modulus(exact, layers, approx))


def _divide_out(coeffs: list[int], ks: list[int]) -> tuple[list[int], list[int]]:
    """The integer roots among ks, with multiplicity, and the exact quotient."""
    found = []
    for k in ks:
        while len(coeffs) > 1:
            quotient, remainder = [0] * (len(coeffs) - 1), coeffs[-1]
            for i in range(len(coeffs) - 2, -1, -1):  # synthetic division by q - k
                quotient[i] = remainder
                remainder = coeffs[i] + k * remainder
            if remainder:
                break
            coeffs = quotient
            found.append(k)
    return found, coeffs


def _aberth_roots(coeffs: list[int]) -> list[complex]:
    """Float approximations to every root, by the Aberth-Ehrlich iteration
    in Gauss-Seidel order. A root stops moving once |p(z)| is within the
    rounding error of evaluating p at z."""
    n = len(coeffs) - 1
    if n <= 1:
        return [complex(-coeffs[0] / coeffs[1])] if n else []
    a = [float(c) for c in reversed(coeffs)]
    # start on a circle around the roots' centroid, at the geometric mean
    # of their distances from it
    centre = -a[1] / (n * a[0])
    radius = abs(_horner(a, centre)[0] / a[0]) ** (1 / n) or 1.0
    z = [centre + radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    moving = list(range(n))
    try:
        for _ in range(_ABERTH_STEPS):
            if not moving:
                break
            still = []
            for i in moving:
                zi = z[i]
                value, slope, bound = _horner(a, zi)
                if abs(value) <= _EPS * bound:
                    continue
                still.append(i)
                pull = sum(1 / (zi - zj) for zj in z if zj != zi)
                denominator = slope - value * pull
                if denominator:
                    z[i] = zi - value / denominator
            moving = still
    except OverflowError:
        # |p(z)| left the float range: no estimate
        return [complex(math.nan, math.nan)] * n
    return z


def _horner(a: list[float], z: complex) -> tuple[complex, complex, float]:
    """p(z), p'(z) and sum_k |a_k| |z|^k, for descending float coefficients."""
    value, slope, bound, r = a[0], 0j, abs(a[0]), abs(z)
    for c in a[1:]:
        slope = slope * z + value
        value = value * z + c
        bound = bound * r + abs(c)
    return value, slope, bound


def _max_modulus(
    exact: list[int], layers: list[list[int]], approx: list[list[complex]]
) -> float:
    """Certified largest modulus over the integer roots and those of the
    layers; the first layer holds every other root once. The bracket
    starts at the float estimate, its ends rounded outward to
    _SEED_BITS-bit dyadic rationals, or where that is not finite, at a
    power of two from Fujiwara's bound: every root has |q| <= 2 max_k
    |a_{n-k}/a_n|^{1/k}, and |a_{n-k}/a_n| < 2^(bits(a_{n-k}) - bits(a_n) + 1)."""
    top = max((abs(k) for k in exact), default=0)
    if not layers:
        return float(top)
    free = IntPolynomial(layers[0])
    try:
        seed = max(abs(z) for z in approx[0]) or 1.0
    except OverflowError:  # some |z| is past the float range
        seed = math.inf
    if math.isfinite(seed):
        if top >= seed * (1 + _CERT_REL) and roots_inside(free, top):
            return float(top)
        lo, lo_exp = math.frexp(seed * (1 - _CERT_REL))
        hi, hi_exp = math.frexp(seed * (1 + _CERT_REL))
        lo, hi = math.floor(lo * 2**_SEED_BITS), math.ceil(hi * 2**_SEED_BITS)
        exp = lo_exp - _SEED_BITS
        hi <<= hi_exp - lo_exp  # 1 where the ends straddle a power of two
    else:
        a, n = free.coefficients, free.degree
        bits = abs(a[n]).bit_length()
        exp = max(
            -((bits - 1 - abs(a[n - k]).bit_length()) // k) for k in range(1, n + 1) if a[n - k]
        )
        lo, hi = 1, 2
    return max(float(top), _certified_radius(free, lo, hi, exp))


def _certified_radius(p: IntPolynomial, lo: int, hi: int, exp: int) -> float:
    """The least float at least hi * 2^exp, where every root is in
    |q| < hi * 2^exp and some root at |q| >= lo * 2^exp, with hi - lo <=
    _BRACKET_REL * lo. The ends are integers over one power of two, so
    only the disk tests see a ``Fraction``. Where an end of the bracket
    (lo, hi] is on the wrong side of the largest modulus, the bracket
    steps past that end by 16 times its width, keeping the exponent, so
    a seed that misses by a few widths costs a few disk tests; it is
    halved only where the step down would not stay above 0. Bisection
    then narrows it, each end tested exactly. A largest modulus beyond
    the float range raises ``OverflowError``.
    """
    if roots_inside(p, _dyadic(hi, exp)):
        while roots_inside(p, _dyadic(lo, exp)):
            step = 16 * (hi - lo)
            lo, hi, exp = (lo - step, lo, exp) if lo > step else (lo, 2 * lo, exp - 1)
    else:
        lo, hi = hi, hi + 16 * (hi - lo)
        while not roots_inside(p, _dyadic(hi, exp)):
            lo, hi = hi, hi + 16 * (hi - lo)
    while (hi - lo) * _BRACKET_REL.denominator > _BRACKET_REL.numerator * lo:
        mid, exp = lo + hi, exp - 1
        lo, hi = (2 * lo, mid) if roots_inside(p, _dyadic(mid, exp)) else (mid, 2 * hi)
    out = math.ldexp(hi, exp)  # rounded to nearest; round up if below
    num, den = out.as_integer_ratio()
    if num << max(-exp, 0) < hi * den << max(exp, 0):
        out = math.nextafter(out, math.inf)
    return out


def _dyadic(num: int, exp: int) -> int | Fraction:
    """num * 2^exp, exactly."""
    return num << exp if exp >= 0 else Fraction(num, 1 << -exp)


def _multiplicity_layers(coeffs: list[int]) -> list[list[int]]:
    """h_1, h_2, ... up to constants: h_k has each root of multiplicity at
    least k as a simple root, so the h_k together hold every root of p
    with its multiplicity. h_k = g_{k-1} / g_k, where g_0 = p and g_k =
    gcd(g_{k-1}, g_{k-1}'); the first layer is p's square-free part."""
    layers = []
    while len(coeffs) > 1:
        a, b = coeffs, [k * c for k, c in enumerate(coeffs)][1:]
        while b:
            a, b = b, _primitive(_pseudo_divide(a, b)[1])
        layers.append(coeffs if len(a) == 1 else _primitive(_pseudo_divide(coeffs, a)[0]))
        coeffs = a
    return layers


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of lead(b)^k a divided by b, for some k
    (ascending coefficients; the remainder of an exact division is [])."""
    a = list(a)
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f, shift = a[-1], len(a) - len(b)
        quotient = [b[-1] * c for c in quotient]
        quotient[shift] += f
        a = [b[-1] * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return quotient, a


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [c // g for c in a]
