import copy
import pickle
from fractions import Fraction

import pytest

from chromabound import IntPolynomial


def test_arithmetic_with_integers_and_polynomials():
    p = IntPolynomial([1, 2])  # 1 + 2q
    assert p * 3 == 3 * p == IntPolynomial([3, 6])
    assert p * 0 == IntPolynomial([])
    assert p * p == IntPolynomial([1, 4, 4])
    assert p + 1 == 1 + p == IntPolynomial([2, 2])
    assert 1 - p == IntPolynomial([0, -2])
    assert p**3 == p * p * p


@pytest.mark.parametrize("other", [2.5, Fraction(1, 2), "q", None])
def test_non_integer_operands_raise_type_error(other):
    p = IntPolynomial([1, 2])
    for op in (
        lambda: p * other,
        lambda: other * p,
        lambda: p + other,
        lambda: other + p,
        lambda: p - other,
        lambda: other - p,
    ):
        with pytest.raises(TypeError):
            op()


def test_polynomial_pickles_and_copies():
    p = IntPolynomial([-6, 11, -6, 1])
    for back in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert back == p and hash(back) == hash(p)
        assert back.coefficients == p.coefficients
