"""Numerical invariants of the edge ring of a bouquet of odd cycles.

The h-polynomial comes in two forms that must agree:

* closed form: prod_j (1 + ... + t^j)^(r_j)  -  t * prod_j (1 + ... + t^(j-1))^(r_j),
* recursion over bouquets: shrink one non-triangle cycle by two edges, with
  h(bouquet) = t * h(shrunk) + h(cycle dropped), down to the base cases of a
  single cycle (h = 1) and of all triangles (h = (1+t)^n - t).

On top of h sit the Cohen-Macaulay type (n - 1 for n >= 2), the asymmetry
aggregate e~ obtained from the reversed-minus-original h-vector divided by
(1 - t), and the Gorenstein / almost Gorenstein classification: Gorenstein
means symmetric h, almost Gorenstein means type - 1 = e~.

This module only computes.  Whether a classification matches the paper's
characterization is decided in one place, ``certify.bouquet_report``.
"""

from __future__ import annotations

from math import prod

from .composition import OddCycleComposition
from .polyarith import IntPoly, ONE, T, exact_div_one_minus_t, q_int, reverse
from .record import Record, _set


def h_closed_form(c: OddCycleComposition) -> IntPoly:
    """Closed-form h-polynomial from the cycle counts."""
    first = ONE
    second = ONE
    for j, rj in enumerate(c.r, start=1):
        if rj:
            first = first * q_int(j) ** rj
            second = second * q_int(j - 1) ** rj
    return first - T * second


def h_recursive(c: OddCycleComposition) -> IntPoly:
    """h-polynomial by the two-edge shrinking recursion, memoised on k
    multisets for the length of the call only."""
    return _h_rec(tuple(sorted(c.k, reverse=True)), {})


def _h_rec(ks: tuple[int, ...], memo: dict[tuple[int, ...], IntPoly]) -> IntPoly:
    """Walk the chain of shrunk tuples down to a memoised or base case, then
    climb it back; only the dropped-cycle terms recurse, n levels deep at most."""
    chain = []
    while ks not in memo and len(ks) > 1 and ks[0] > 1:
        chain.append(ks)
        ks = tuple(sorted((ks[0] - 1,) + ks[1:], reverse=True))
    h = memo.get(ks)
    if h is None:
        h = memo[ks] = ONE if len(ks) == 1 else (ONE + T) ** len(ks) - T  # one cycle, all triangles
    for link in reversed(chain):
        h = memo[link] = T * h + _h_rec(link[1:], memo)
    return h


def multiplicity(c: OddCycleComposition) -> int:
    """h(1) = prod(k_i + 1) - prod(k_i); also the number of top facets."""
    return prod(ki + 1 for ki in c.k) - prod(c.k)


def cm_type(c: OddCycleComposition) -> int:
    """Cohen-Macaulay type: n - 1 for n >= 2; a single cycle gives a
    polynomial ring, whose type is 1."""
    return c.n - 1 if c.n >= 2 else 1


def e_tilde_from_h(h: IntPoly) -> tuple[int, tuple[int, ...]]:
    """e~ and the h' sequence from an h-polynomial.

    h' is (reversed h - h) / (1 - t), returned padded to s + 1 entries;
    e~ is its coefficient sum.  Requires a genuine h-polynomial: constant
    term 1 and nonzero value at t = 1.
    """
    if h.coeff(0) != 1 or h.evaluate(1) == 0:
        raise ValueError("not an h-polynomial")
    s = h.degree
    assert s is not None
    diff = reverse(h, s) - h
    h_prime = exact_div_one_minus_t(diff)
    padded = tuple(h_prime.coeff(i) for i in range(s + 1))
    return sum(padded), padded


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
        h: IntPoly,
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
    s = h.degree
    assert s is not None
    e_tilde, h_prime = e_tilde_from_h(h)
    typ = cm_type(c)
    return GorensteinReport(
        h=h,
        s=s,
        cm_type=typ,
        e_tilde=e_tilde,
        h_prime=h_prime,
        is_gorenstein=reverse(h, s) == h,
        is_almost_gorenstein=typ - 1 == e_tilde,
    )
