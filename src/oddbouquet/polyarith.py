"""Exact univariate integer polynomial arithmetic.

A polynomial in t is a tuple of arbitrary-precision integer coefficients,
index i holding the coefficient of t^i, with trailing zeros trimmed.  The
zero polynomial is the empty tuple and its degree is None (not -1), so that
coefficient reversal can never silently shift by one.

Everything here is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable

from .record import Record, _set


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPoly(Record):
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        _set(self, "coeffs", _trim(coeffs))

    @staticmethod
    def of(*coeffs: int) -> "IntPoly":
        return IntPoly(coeffs)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPoly(out)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:  # square only for a bit still to come
                base = base * base
        return ONE if result is None else result


ZERO = IntPoly(())
ONE = IntPoly((1,))
T = IntPoly((0, 1))
ONE_MINUS_T = IntPoly((1, -1))


def q_int(j: int) -> IntPoly:
    """The truncated geometric sum 1 + t + ... + t^j (so q_int(0) = 1)."""
    if j < 0:
        raise ValueError("q_int needs j >= 0")
    return IntPoly((1,) * (j + 1))


def reverse(p: IntPoly, s: int) -> IntPoly:
    """Coefficient reversal t^s * p(1/t): output coefficient i is input coefficient s - i.

    s must bound the degree of p, otherwise the high coefficients would be lost.
    """
    deg = p.degree
    if deg is not None and s < deg:
        raise ValueError("reversal bound too small")
    if s < 0:
        raise ValueError("reversal bound too small")
    return IntPoly(p.coeff(s - i) for i in range(s + 1))


def exact_div_one_minus_t(p: IntPoly) -> IntPoly:
    """Exact quotient p / (1 - t); requires p(1) = 0.

    The quotient coefficients are the partial sums of p's coefficients.
    """
    if p.evaluate(1) != 0:
        raise ValueError("not divisible by (1-t)")
    out = []
    acc = 0
    for c in p.coeffs:
        acc += c
        out.append(acc)
    return IntPoly(out)
