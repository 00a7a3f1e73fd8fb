"""Exact integer-coefficient polynomials in one variable.

Chromatic polynomials and the neighborhood generating polynomials Z, Z~
both live here: a thin immutable wrapper around a coefficient tuple in
ascending powers, with exact arithmetic and evaluation at int, Fraction,
float, complex, or mpmath arguments via Horner's rule.
"""

from __future__ import annotations

from typing import Iterable


def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    ``coefficients[k]`` is the coefficient of the k-th power. The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coeffs = _strip(coefficients)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    def __reduce__(self):
        return (IntPolynomial, (self.coefficients,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)})"

    @staticmethod
    def _coerce(value) -> "IntPolynomial | None":
        if isinstance(value, IntPolynomial):
            return value
        if isinstance(value, int):
            return IntPolynomial([value])
        return None

    def __add__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = list(self.coefficients) + [0] * max(0, len(other.coefficients) - len(self.coefficients))
        for i, c in enumerate(other.coefficients):
            out[i] -= c
        return IntPolynomial(out)

    def __rsub__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coefficients])

    def __mul__(self, other) -> "IntPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; exact when x is int or Fraction."""
        acc = 0 * x  # zero of the argument's type
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


X = IntPolynomial([0, 1])
