"""Exact univariate integer polynomials as a value type, with no arithmetic.

A polynomial in t is a tuple of arbitrary-precision integer coefficients,
index i holding the coefficient of t^i, with trailing zeros trimmed.  The
zero polynomial is the empty tuple and its degree is None (not -1), so that
coefficient reversal can never silently shift by one.  The routes compute
on coefficient lists and return an IntPoly; it only stores, compares and
reads them.
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
