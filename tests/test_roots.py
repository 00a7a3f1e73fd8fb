import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chromabound
from chromabound import (
    Graph,
    IntPolynomial,
    chromatic_polynomial,
    connected_graphs,
    generate_graph,
    named_corpus,
    polynomial_roots,
    roots_inside,
)
from chromabound import roots
from chromabound.polynomial import X
from reference_oracles import reference_roots_inside


def _matches(roots, expected, tol=1e-8):
    if len(roots) != len(expected):
        return False
    left = list(roots)
    for w in expected:
        best = min(left, key=lambda z: abs(z - w))
        if abs(best - w) > tol:
            return False
        left.remove(best)
    return True


def test_complete_graph_roots_are_integers():
    p = chromatic_polynomial(generate_graph("complete", n=4))
    rs = polynomial_roots(p)
    assert _matches(rs.roots, [0, 1, 2, 3])
    assert rs.max_modulus == 3.0
    assert rs.roots == (0, 1, 2, 3)


def test_five_cycle_roots():
    p = chromatic_polynomial(generate_graph("cycle", n=5))
    rs = polynomial_roots(p)
    assert _matches(rs.roots, [0, 1, 2, 1 + 1j, 1 - 1j])


def test_conjugate_symmetry():
    p = chromatic_polynomial(generate_graph("cycle", n=7))
    rs = polynomial_roots(p)
    nonreal = [z for z in rs.roots if abs(z.imag) > 1e-9]
    assert nonreal
    for z in nonreal:
        assert any(abs(z.conjugate() - w) < 1e-9 for w in rs.roots)


def test_zero_constant_roots_deflated():
    p = X**3 - X**2  # x^2 (x - 1)
    rs = polynomial_roots(p)
    assert _matches(rs.roots, [0, 0, 1])


def test_high_multiplicity_residuals():
    # (q-1)^11 q: a float root finder scatters the cluster around 1 like
    # eps^(1/11); exact deflation of the integer root removes it.
    p = chromatic_polynomial(generate_graph("star", leaves=11))
    rs = polynomial_roots(p)
    assert rs.roots == (0,) + (1,) * 11
    assert rs.max_modulus == 1.0


@pytest.mark.parametrize(
    "graph",
    [generate_graph("path", n=12), Graph(5, [(0, 1), (1, 2), (3, 4)])],  # P12, P3 and K2
)
def test_integer_largest_root_is_exact(graph):
    assert polynomial_roots(chromatic_polynomial(graph)).max_modulus == 1.0


def test_double_root_at_two():
    # A diamond (K4 minus an edge) and a 4-cycle sharing a vertex:
    # q (q-1)^2 (q-2)^2 (q^2 - 3q + 3), whose other roots have modulus 3^(1/2).
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
    p = chromatic_polynomial(g)
    assert p == X * (X - 1) ** 2 * (X - 2) ** 2 * (X**2 - 3 * X + 3)
    rs = polynomial_roots(p)
    assert rs.max_modulus == pytest.approx(2.0, rel=1e-9)
    assert rs.max_modulus >= 2.0


@pytest.mark.parametrize("n", range(2, 8))
def test_roots_inside_complete_graph(n):
    p = chromatic_polynomial(generate_graph("complete", n=n))
    assert not roots_inside(p, n - 1)
    assert roots_inside(p, math.nextafter(n - 1, math.inf))
    assert roots_inside(p, Fraction(n - 1) + Fraction(1, 10**30))


_radius = st.one_of(
    st.fractions(min_value=0, max_value=64, max_denominator=10**6),
    st.floats(min_value=1e-3, max_value=64.0),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=14).filter(lambda c: c[-1] != 0), _radius)
def test_roots_inside_agrees_with_the_gcd_reduced_transform(coefficients, radius):
    expected = reference_roots_inside(tuple(coefficients), radius)
    assert roots_inside(IntPolynomial(coefficients), radius) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=12), st.floats(0.5, 2.0))
def test_roots_inside_agrees_near_the_largest_root(integer_roots, scale):
    # integer roots put the radius near the boundary, where verdicts flip
    p = IntPolynomial([1])
    for r in integer_roots:
        p = p * (X - r)
    radius = scale * max(abs(r) for r in integer_roots)
    assert roots_inside(p, radius) == reference_roots_inside(p.coefficients, radius)


def test_schur_cohn_division_checks_its_remainder():
    assert roots._exact_quotient([6, -9, 0], 3) == [2, -3, 0]
    with pytest.raises(ArithmeticError, match="not divisible"):
        roots._exact_quotient([6, 7], 3)


def _max_modulus_of(factor: IntPolynomial) -> float:
    c, b, a = (factor.coefficients + (0,))[:3]
    if a == 0:  # b q + c
        return abs(c / b)
    disc = b * b - 4 * a * c
    if disc < 0:
        return math.sqrt(c / a)
    return (abs(b) + math.sqrt(disc)) / (2 * abs(a))


def _within(factor: IntPolynomial, m: Fraction) -> bool:
    """Exactly: every root of a linear or quadratic factor has modulus <= m."""
    c, b, a = (factor.coefficients + (0,))[:3]
    if a == 0:
        return abs(Fraction(c, b)) <= m
    if b * b - 4 * a * c < 0:
        return Fraction(c, a) <= m * m
    # real roots lie in [-m, m]: the upward parabola is >= 0 at both ends
    # and its vertex lies between them
    return factor(m) >= 0 and factor(-m) >= 0 and abs(Fraction(b, 2 * a)) <= m


_linear = st.tuples(st.integers(1, 4), st.integers(-9, 9)).map(
    lambda t: IntPolynomial([t[1], t[0]])
)
_quadratic = st.tuples(
    st.integers(1, 4), st.integers(-9, 9), st.integers(-9, 9).filter(bool)
).map(lambda t: IntPolynomial([t[2], t[1], t[0]]))


# Each example has a root where |p'| is large, so that no float z makes
# |p(z)| / max|a_k| small there; max_modulus is certified all the same.
@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_linear, _quadratic), min_size=1, max_size=6))
@example([X, X, X**2 + 1, X**2 + 1, X**2 + X + 1, X**2 - 9 * X + 1])
@example([X, X, X**2 + 1, X**2 + 1, X**2 + 1, X**2 + 9 * X - 2])
@example([X] * 12 + [X**2 + 4 * X - 2])
def test_max_modulus_bounds_every_root(factors):
    p = IntPolynomial([1])
    for f in factors:
        p = p * f
    m = polynomial_roots(p).max_modulus
    assert all(_within(f, Fraction(m)) for f in factors)
    assert roots_inside(p, math.nextafter(m, math.inf))
    true = max(_max_modulus_of(f) for f in factors)
    assert m == pytest.approx(true, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize(
    "coefficients",
    [
        [5, 2 * 10**200, 1],
        [7, 3 * 10**150, 10**160, 2],
        [1, 0, 0, 10**250, 3],
        # the largest modulus, about 1e308, fits a float, but Fujiwara's
        # bound 2e308 does not
        [1, 10**308, 1],
    ],
)
def test_max_modulus_is_certified_where_the_float_step_overflows(coefficients):
    # The Aberth estimate is not finite here; the disk tests bracket the
    # modulus in exact rationals from a power-of-two Fujiwara bound instead.
    p = IntPolynomial(coefficients)
    m = polynomial_roots(p).max_modulus
    assert roots_inside(p, m)
    assert not roots_inside(p, m * (1 - 4e-10))


def test_max_modulus_is_certified_where_the_aberth_step_overflows():
    # Sample 137 of degree-1..8 polynomials with coefficients below 10^250:
    # |p(z)| overflows in the iteration, whose estimate is then not finite.
    rng = random.Random(7)
    for _ in range(138):
        coefficients = [
            rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 250))
            for _ in range(rng.randint(2, 9))
        ]
    assert [len(str(abs(c))) for c in coefficients] == [247, 71, 212, 47, 56]
    p = IntPolynomial(coefficients)
    rs = polynomial_roots(p)
    assert len(rs.roots) == 4
    assert roots_inside(p, rs.max_modulus)
    assert not roots_inside(p, rs.max_modulus * (1 - 4e-10))


def test_max_modulus_below_the_float_range_is_certified():
    # The root -10^-400 rounds to -0.0. Bisecting a float bracket then
    # stalls at (0.0, 5e-324], whose midpoint rounds back to 0.0; the
    # exact bracket narrows and its upper end rounds up to 5e-324.
    p = IntPolynomial([1, 10**400])
    m = polynomial_roots(p).max_modulus
    assert m == 5e-324
    assert roots_inside(p, m)


def _record_disk_tests(monkeypatch):
    """The radii of the disk tests that ``roots`` runs from now on."""
    radii = []

    def recorded(q, radius):
        radii.append(Fraction(radius))
        return roots_inside(q, radius)

    monkeypatch.setattr(roots, "roots_inside", recorded)
    return radii


@pytest.mark.parametrize(
    "p",
    [
        chromatic_polynomial(generate_graph("cycle", n=12)),
        chromatic_polynomial(generate_graph("petersen")),
        X**2 + 4,  # the bracket's ends straddle the power of two 2
    ],
)
def test_seed_bracket_is_tested_at_short_dyadic_radii(monkeypatch, p):
    # The Aberth estimate's bracket meets the tolerance as it stands, so
    # the certificate is its two ends' disk tests alone.
    radii = _record_disk_tests(monkeypatch)
    m = polynomial_roots(p).max_modulus
    assert len(radii) == 2
    for radius in radii:
        d = radius.denominator
        assert d & (d - 1) == 0 and d.bit_length() - 1 <= 40
    assert roots_inside(p, m)
    assert not roots_inside(p, m * (1 - 4e-10))


@pytest.mark.parametrize("offset", [5e-9, -5e-9])
def test_a_seed_off_by_a_few_widths_steps_geometrically(monkeypatch, offset):
    # The seed bracket for q^2 - 2, built as from an Aberth estimate
    # 5e-9 relative off sqrt(2), lies wholly above or wholly below the
    # root; steps of 16 widths reach past it in a few disk tests.
    p = X**2 - 2
    seed = math.sqrt(2.0) * (1.0 + offset)
    lo, exp = math.frexp(seed * (1.0 - 1e-10))
    hi, _ = math.frexp(seed * (1.0 + 1e-10))
    lo, hi, exp = math.floor(lo * 2**36), math.ceil(hi * 2**36), exp - 36
    tests = _record_disk_tests(monkeypatch)
    m = roots._certified_radius(p, lo, hi, exp)
    assert len(tests) <= 12
    assert roots_inside(p, m)
    assert m <= math.sqrt(2.0) * (1.0 + 4e-10)


def test_a_seed_just_above_the_modulus_costs_few_disk_tests(monkeypatch):
    # The chromatic polynomial of random-regular(18, 3, seed 1). Its
    # Aberth estimate lies 1.003e-10 relative above the largest modulus,
    # so the seed bracket's lower end already holds every root.
    p = IntPolynomial(
        [0, -199500, 1198890, -3502226, 6668120, -9315422, 10152271, -8934354, 6472950,
         -3898192, 1956549, -815872, 280195, -78056, 17222, -2899, 350, -27, 1]
    )
    tests = _record_disk_tests(monkeypatch)
    assert polynomial_roots(p).max_modulus == 2.4466106127365492
    assert len(tests) <= 8


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        polynomial_roots(IntPolynomial([0]))
    rs = polynomial_roots(IntPolynomial([7]))
    assert rs.roots == ()
    assert rs.max_modulus == 0.0


def test_petersen_largest_root():
    p = chromatic_polynomial(generate_graph("petersen"))
    rs = polynomial_roots(p)
    assert 2.6 < rs.max_modulus < 2.7
    top = max(rs.roots, key=abs)
    assert math.isclose(abs(top), rs.max_modulus)


def _fresh_interpreter_loads(code: str) -> str:
    src = Path(chromabound.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return out.stdout.strip()


def test_import_does_not_load_mpmath():
    code = "import sys, chromabound; print('mpmath' in sys.modules)"
    assert _fresh_interpreter_loads(code) == "False"


def _loaded_after_import_and_cli_commands(module: str) -> str:
    code = f"""
import contextlib, io, sys
import chromabound, chromabound.cli
for argv in (["verify", "--family", "petersen"], ["bounds", "--family", "petersen"],
             ["series", "--family", "petersen"], ["table"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert chromabound.cli.main(argv) == 0, argv
print({module!r} in sys.modules)
"""
    return _fresh_interpreter_loads(code)


def test_import_and_cli_commands_do_not_load_numpy():
    assert _loaded_after_import_and_cli_commands("numpy") == "False"


def test_import_and_cli_commands_do_not_load_openssl():
    # graph_id hashes with the built-in _sha1; hashlib would map OpenSSL
    pytest.importorskip("_sha1")
    assert _loaded_after_import_and_cli_commands("_hashlib") == "False"


def _strip_root(coeffs: list[int], k: int) -> tuple[list[int], int]:
    """Divide (q - k) out of coeffs (ascending) while it divides exactly."""
    mult = 0
    while len(coeffs) > 1:
        quotient, r = [], 0
        for c in reversed(coeffs):
            r = r * k + c
            quotient.append(r)
        if quotient.pop():
            break
        coeffs, mult = quotient[::-1], mult + 1
    return coeffs, mult


def _mpmath_roots(p: IntPolynomial) -> list[complex]:
    """All roots by mpmath's Durand-Kerner iteration. The roots at 0, 1
    and 2, often multiple, are divided out exactly first: on a multiple
    root the iteration converges only linearly."""
    rest, roots = list(p.coefficients), []
    for k in (0, 1, 2):
        rest, mult = _strip_root(rest, k)
        roots += [complex(k)] * mult
    if len(rest) > 1:
        roots += [complex(z) for z in mpmath.polyroots(rest[::-1], maxsteps=800, extraprec=600)]
    return roots


def test_roots_match_mpmath_on_the_criterion_9_polynomials():
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [g for _, g in named_corpus()]
    graphs.append(generate_graph("petersen"))
    graphs += [generate_graph("random-regular", n=12, degree=3, seed=s) for s in (1, 2)]
    polys = {chromatic_polynomial(g) for g in graphs}
    assert len(polys) > 300
    for p in polys:
        mine = list(polynomial_roots(p).roots)
        reference = _mpmath_roots(p)
        assert len(mine) == len(reference) == p.degree
        for w in reference:
            z = min(mine, key=lambda z: abs(z - w))
            assert abs(z - w) <= 1e-8 * abs(w), (p, w, z)
            mine.remove(z)


_integer_factors = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 4)), min_size=1, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(_integer_factors, _quadratic)
def test_integer_roots_come_back_exactly(factors, quadratic):
    p = quadratic
    for k, m in factors:
        p = p * IntPolynomial([-k, 1]) ** m
    roots = polynomial_roots(p).roots
    exact = [z.real for z in roots if z == round(z.real)]
    for k in {k for k, _ in factors}:
        assert exact.count(k) >= sum(m for j, m in factors if j == k), (k, roots)


def test_integer_root_past_the_trial_limit_is_exact():
    rs = polynomial_roots((X - 10**6) * (X**2 + 1))
    assert rs.max_modulus == 1e6
    assert complex(10**6) in rs.roots


def test_trial_division_does_not_scan_to_the_root_bound():
    t0 = time.perf_counter()
    rs = polynomial_roots(X - 10**30)
    assert time.perf_counter() - t0 < 0.5
    assert rs.max_modulus == pytest.approx(1e30, rel=1e-9)
