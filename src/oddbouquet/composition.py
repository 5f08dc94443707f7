"""Bouquets of odd cycles glued at a single hub vertex.

A bouquet is its half-length sequence k = (k_1, ..., k_n): cycle i has
length 2*k_i + 1.  Its cycle counts r = (r_1, ..., r_m), r_j cycles of
length 2j+1 with m = max(k), are derived from k, and build_from_r expands
given counts into k.  Throughout, n is the number of cycles and N = sum(k),
so the bouquet has 2N+1 vertices and 2N+n edges.

Edges carry labels x_{i,j}: within cycle i, x_{i,1} and x_{i,2k_i+1} touch
the hub and x_{i,j} joins the (j-1)-th and j-th outer vertices.  All modules
share one flat 0-based index over the labels, ordered by cycle and then by
position; flat index 0 is x_{1,1}, the largest variable of the monomial
order used for the toric ideal.  A squarefree set of edges (a cycle part, a
monomial's support, a facet) is an int bitmask over that index: bit v is set
iff flat index v is in the set.

Per-bouquet structure (r, cycle parts, the graph, whatever per_bouquet wraps)
is computed once per instance and kept in its __dict__, which equality,
hashing, repr and pickling ignore; equal instances share none of it.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property, wraps
from operator import index

from .record import Record, _set


class OddCycleComposition(Record):
    """A bouquet, given by its half-lengths k; immutable and freely shareable.

    The cycle counts r are derived from k on first use."""

    __slots__ = ("k", "__dict__")

    def __init__(self, k: Iterable[int]) -> None:
        k = tuple(map(index, k))  # TypeError on a non-integer half-length
        if not k or min(k) < 1:
            raise ValueError("invalid cycle length")
        _set(self, "k", k)

    @cached_property
    def r(self) -> tuple[int, ...]:
        """r[j-1] = the number of cycles of length 2j+1, for j = 1..max(k)."""
        counts = [0] * max(self.k)
        for v in self.k:
            counts[v - 1] += 1
        return tuple(counts)

    @property
    def n(self) -> int:
        return len(self.k)

    @cached_property
    def N(self) -> int:
        return sum(self.k)

    @property
    def edge_count(self) -> int:
        return 2 * self.N + self.n

    @property
    def vertex_count(self) -> int:
        return 2 * self.N + 1

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        # _offsets[i-1] = flat index of x_{i,1}
        out = []
        acc = 0
        for ki in self.k:
            out.append(acc)
            acc += 2 * ki + 1
        return tuple(out)

    @cached_property
    def _parts(self) -> tuple[CycleParts, ...]:
        # in cycle i's own positions, the odd part is bits 0, 2, ..., 2k and
        # the even part bits 1, 3, ..., 2k - 1
        out = []
        for off, ki in zip(self._offsets, self.k):
            odd = ((1 << 2 * ki + 2) - 1) // 3
            out.append(CycleParts(odd=odd << off, even=odd >> 2 << off + 1))
        return tuple(out)

    def flat_index(self, i: int, j: int) -> int:
        """Flat position of label x_{i,j} (both 1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError("cycle index out of range")
        if not 1 <= j <= 2 * self.k[i - 1] + 1:
            raise IndexError("edge position out of range")
        return self._offsets[i - 1] + (j - 1)

    @cached_property
    def edge_labels(self) -> tuple[tuple[int, int], ...]:
        """All labels (i, j) in flat order."""
        return tuple(
            (i, j) for i in range(1, self.n + 1) for j in range(1, 2 * self.k[i - 1] + 2)
        )

    def edge_name(self, flat: int) -> str:
        i, j = self.edge_labels[flat]
        return f"x{i},{j}"


def per_bouquet(fn):
    """fn(c) computed once per composition instance and kept in its __dict__."""
    key = f"{fn.__module__}.{fn.__qualname__}"  # a dotted name is no attribute

    @wraps(fn)
    def get(c: OddCycleComposition):
        try:
            return c.__dict__[key]
        except KeyError:
            return c.__dict__.setdefault(key, fn(c))

    return get


def bits(mask: int) -> list[int]:
    """The flat indices in a bitmask, ascending: the lowest set bit, cleared in turn."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_from_r(r) -> OddCycleComposition:
    """Bouquet with r[j-1] cycles of length 2j+1; cycles ordered by descending length."""
    r = list(map(index, r))
    if any(v < 0 for v in r):
        raise ValueError("negative cycle count")
    while r and r[-1] == 0:
        r.pop()
    if not r:
        raise ValueError("empty composition")
    k = []
    for j in range(len(r), 0, -1):
        k.extend([j] * r[j - 1])
    return OddCycleComposition(k)


def build_from_k(k) -> OddCycleComposition:
    """Bouquet whose i-th cycle has length 2*k[i-1] + 1, in the given order."""
    return OddCycleComposition(k)


class CycleParts(Record):
    """Bitmasks of one cycle's edges in odd and even label positions."""

    __slots__ = ("odd", "even")

    def __init__(self, odd: int, even: int) -> None:
        _set(self, "odd", odd)
        _set(self, "even", even)


def cycle_parts(c: OddCycleComposition, i: int) -> CycleParts:
    """Split cycle i's edges by label parity: odd positions (the k_i + 1 edges
    x_{i,1}, x_{i,3}, ...) versus even positions (the k_i edges x_{i,2}, ...)."""
    if not 1 <= i <= c.n:
        raise IndexError("cycle index out of range")
    return c._parts[i - 1]


class LabeledGraph(Record):
    """Concrete bouquet graph: vertex 0 is the hub, the outer vertices of
    cycle i are numbered consecutively, and edges sit in flat label order."""

    __slots__ = ("n_vertices", "endpoints")

    def __init__(self, n_vertices: int, endpoints: tuple[tuple[int, int], ...]) -> None:
        _set(self, "n_vertices", n_vertices)
        _set(self, "endpoints", endpoints)


@per_bouquet
def labeled_graph(c: OddCycleComposition) -> LabeledGraph:
    """The bouquet graph with the shared edge indexing, built once per bouquet."""
    endpoints = []
    base = 1
    for ki in c.k:
        # each cycle walks hub, its outer vertices base..base + 2*ki - 1, hub
        walk = [0, *range(base, base + 2 * ki), 0]
        endpoints += zip(walk, walk[1:])
        base += 2 * ki
    return LabeledGraph(n_vertices=c.vertex_count, endpoints=tuple(endpoints))
