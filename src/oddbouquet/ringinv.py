"""Numerical invariants of the edge ring of a bouquet of odd cycles.

The h-polynomial comes in two forms that must agree:

* closed form: prod_j (1 + ... + t^j)^(r_j)  -  t * prod_j (1 + ... + t^(j-1))^(r_j),
  taken one cycle at a time: cycle i multiplies the products by
  1 + ... + t^(k_i) and 1 + ... + t^(k_i - 1), each a running window sum,
* recursion over bouquets: shrink one non-triangle cycle by two edges, with
  h(bouquet) = t * h(shrunk) + h(cycle dropped), down to the base cases of a
  single cycle (h = 1) and of all triangles (h = (1+t)^n - t, binomials):
  one loop over the longer cycles keeps a row of h's, one per count of
  triangles, and grows each cycle by shift-and-add steps; no call recurses.

On top of h sit the Cohen-Macaulay type (n - 1 for n >= 2), the asymmetry
aggregate e~ obtained from the reversed-minus-original h-vector divided by
(1 - t), and the Gorenstein / almost Gorenstein classification: Gorenstein
means symmetric h, almost Gorenstein means type - 1 = e~.  All of it runs on
coefficient lists, and h is returned as a tuple of ints with no trailing
zero, index i holding h_i; there is no polynomial type, so no shared
polynomial kernel can make the two forms agree.

This module only computes.  Whether a classification matches the paper's
characterization is decided in one place, ``certify.bouquet_report``.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from math import comb, prod

from .composition import OddCycleComposition
from .record import Record, _set


def _times_q(p: list[int], m: int) -> list[int]:
    """p * (1 + ... + t^m): coefficient i is the sum of p over the window i - m .. i,
    a difference of two prefix sums."""
    sums = list(accumulate(p + [0] * m))
    return [a - b for a, b in zip(sums, [0] * (m + 1) + sums)]


def h_closed_form(c: OddCycleComposition) -> tuple[int, ...]:
    """Closed-form h-vector from the half-lengths."""
    first, second = [1], [1]
    for ki in c.k:
        first, second = _times_q(first, ki), _times_q(second, ki - 1)
    for i, b in enumerate(second, start=1):
        first[i] -= b
    # a single cycle leaves 1 and then zeros, which the slice trims
    return tuple(first[:max(i + 1 for i, hi in enumerate(first) if hi)])


def h_recursive(c: OddCycleComposition) -> tuple[int, ...]:
    """h-vector by the two-edge shrinking recursion, a loop over the longer
    cycles g_1 .. g_m from last to first: rows[j] holds the h of r1 + j
    triangles and the cycles after g_i, and g_i grows from a triangle."""
    r1 = c.k.count(1)
    longer = [ki for ki in c.k if ki > 1]
    # all triangles: (1 + t)^n - t, or 1 for a single one
    rows = [[comb(n, i) - (i == 1) for i in range(n + 1)] if n != 1 else [1]
            for n in range(r1, r1 + len(longer) + 1)]
    for i in reversed(range(len(longer))):
        for j in range(i + 1):
            h = rows[j + 1]  # g_i as a triangle
            if r1 + j or i + 1 < len(longer):  # else g_i is alone, and h = 1 at any length
                for _ in range(longer[i] - 1):  # h <- t * h + h(g_i dropped)
                    h = [a + b for a, b in zip_longest([0, *h], rows[j], fillvalue=0)]
            rows[j] = h
        rows.pop()
    return tuple(rows[0])


def multiplicity(c: OddCycleComposition) -> int:
    """h(1) = prod(k_i + 1) - prod(k_i); also the number of top facets."""
    return prod(ki + 1 for ki in c.k) - prod(c.k)


def cm_type(c: OddCycleComposition) -> int:
    """Cohen-Macaulay type: n - 1 for n >= 2; a single cycle gives a
    polynomial ring, whose type is 1."""
    return c.n - 1 if c.n >= 2 else 1


def e_tilde_from_h(h: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """e~ and the h' sequence from an h-vector with no trailing zero.

    h' is (reversed h - h) / (1 - t), returned padded to s + 1 entries;
    e~ is its coefficient sum.  Requires a genuine h-polynomial: constant
    term 1 and nonzero value at t = 1.
    """
    if h[:1] != (1,) or not sum(h):
        raise ValueError("not an h-polynomial")
    # dividing by 1 - t takes partial sums: s + 1 of them, the last h(1) - h(1) = 0
    h_prime = tuple(accumulate(a - b for a, b in zip(reversed(h), h)))
    return sum(h_prime), h_prime


def e_tilde_closed(c: OddCycleComposition) -> int:
    """(n - 2) * prod_j j^(r_j); stated only for n >= 3."""
    if c.n < 3:
        raise ValueError("closed form stated only for n >= 3")
    return (c.n - 2) * prod(j ** rj for j, rj in enumerate(c.r, start=1))


class GorensteinReport(Record):
    """Classification bundle for one bouquet."""

    __slots__ = ("h", "s", "cm_type", "e_tilde", "h_prime", "is_gorenstein",
                 "is_almost_gorenstein")

    def __init__(
        self,
        h: tuple[int, ...],
        s: int,
        cm_type: int,
        e_tilde: int,
        h_prime: tuple[int, ...],
        is_gorenstein: bool,
        is_almost_gorenstein: bool,
    ) -> None:
        _set(self, "h", h)
        _set(self, "s", s)
        _set(self, "cm_type", cm_type)
        _set(self, "e_tilde", e_tilde)
        _set(self, "h_prime", h_prime)
        _set(self, "is_gorenstein", is_gorenstein)
        _set(self, "is_almost_gorenstein", is_almost_gorenstein)


def classify(c: OddCycleComposition) -> GorensteinReport:
    """Full classification of the edge ring of a bouquet.

    e~ is computed from the h-vector, and the flags follow from their
    definitions alone; comparing them with the characterization (and e~
    with its closed form) is left to ``certify.bouquet_report``.
    """
    h = h_closed_form(c)
    e_tilde, h_prime = e_tilde_from_h(h)
    typ = cm_type(c)
    return GorensteinReport(
        h=h,
        s=len(h) - 1,
        cm_type=typ,
        e_tilde=e_tilde,
        h_prime=h_prime,
        is_gorenstein=h == h[::-1],
        is_almost_gorenstein=typ - 1 == e_tilde,
    )
