"""Bouquets of odd cycles glued at a single hub vertex.

A bouquet is described either by cycle counts r = (r_1, ..., r_m), meaning
r_j cycles of length 2j+1, or by the half-length sequence k = (k_1, ..., k_n)
where cycle i has length 2*k_i + 1.  Throughout, n is the number of cycles
and N = sum(k) so the bouquet has 2N+1 vertices and 2N+n edges.

Edges carry labels x_{i,j}: within cycle i, x_{i,1} and x_{i,2k_i+1} touch
the hub and x_{i,j} joins the (j-1)-th and j-th outer vertices.  All modules
share one flat 0-based index over the labels, ordered by cycle and then by
position; flat index 0 is x_{1,1}, the largest variable of the monomial
order used for the toric ideal.  A squarefree set of edges (a cycle part, a
monomial's support, a facet) is an int bitmask over that index: bit v is set
iff flat index v is in the set.
"""

from __future__ import annotations

from functools import cached_property

from .record import Record, _set


class OddCycleComposition(Record):
    """Validated bouquet parameters; immutable and freely shareable."""

    __slots__ = ("r", "k", "__dict__")

    def __init__(self, r: tuple[int, ...], k: tuple[int, ...]) -> None:
        if not k or any(v < 1 for v in k):
            raise ValueError("invalid cycle length")
        if not r or r[-1] == 0 or any(v < 0 for v in r):
            raise ValueError("empty composition")
        counts = [0] * len(r)
        for v in k:
            if v > len(r):
                raise ValueError("cycle length exceeds declared maximum")
            counts[v - 1] += 1
        if tuple(counts) != r:
            raise ValueError("cycle counts do not match cycle lengths")
        _set(self, "r", r)
        _set(self, "k", k)

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


def bits(mask: int) -> list[int]:
    """The flat indices in a bitmask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def build_from_r(r) -> OddCycleComposition:
    """Bouquet with r[j-1] cycles of length 2j+1; cycles ordered by descending length."""
    r = list(r)
    while r and r[-1] == 0:
        r.pop()
    if not r:
        raise ValueError("empty composition")
    if any(v < 0 for v in r):
        raise ValueError("empty composition")
    k = []
    for j in range(len(r), 0, -1):
        k.extend([j] * r[j - 1])
    return OddCycleComposition(r=tuple(r), k=tuple(k))


def build_from_k(k) -> OddCycleComposition:
    """Bouquet whose i-th cycle has length 2*k[i-1] + 1, in the given order."""
    k = tuple(k)
    if not k or any(v < 1 for v in k):
        raise ValueError("invalid cycle length")
    m = max(k)
    r = [0] * m
    for v in k:
        r[v - 1] += 1
    return OddCycleComposition(r=tuple(r), k=k)


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
    ki = c.k[i - 1]
    odd = sum(1 << c.flat_index(i, j) for j in range(1, 2 * ki + 2, 2))
    even = sum(1 << c.flat_index(i, j) for j in range(2, 2 * ki + 1, 2))
    return CycleParts(odd=odd, even=even)


class LabeledGraph(Record):
    """Concrete bouquet graph: vertex 0 is the hub, the outer vertices of
    cycle i are numbered consecutively, and edges sit in flat label order."""

    __slots__ = ("n_vertices", "labels", "endpoints")

    def __init__(
        self,
        n_vertices: int,
        labels: tuple[tuple[int, int], ...],
        endpoints: tuple[tuple[int, int], ...],
    ) -> None:
        _set(self, "n_vertices", n_vertices)
        _set(self, "labels", labels)
        _set(self, "endpoints", endpoints)


def labeled_graph(c: OddCycleComposition) -> LabeledGraph:
    """Build the bouquet graph with the shared edge indexing."""
    endpoints = []
    base = 1
    for i in range(1, c.n + 1):
        ki = c.k[i - 1]
        # outer vertex u_i^(j) is base + j - 1, for 1 <= j <= 2*ki
        for j in range(1, 2 * ki + 2):
            if j == 1:
                endpoints.append((0, base))
            elif j == 2 * ki + 1:
                endpoints.append((0, base + 2 * ki - 1))
            else:
                endpoints.append((base + j - 2, base + j - 1))
        base += 2 * ki
    return LabeledGraph(
        n_vertices=c.vertex_count,
        labels=c.edge_labels,
        endpoints=tuple(endpoints),
    )
