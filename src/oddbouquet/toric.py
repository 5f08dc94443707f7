"""Toric ideal of a bouquet of odd cycles, with independent verification oracles.

For cycles i < j the ideal has one generator: the binomial whose plus part
multiplies the odd-position edges of cycle i with the even-position edges of
cycle j, and whose minus part swaps the roles.  Under the graded lex order
that makes x_{1,1} the largest variable, the plus parts generate the initial
ideal.  Supports are int bitmasks over the flat edge index (see composition).

Three cross-checks, deliberately independent of one another and of the
closed-form facet enumeration, certify that claim at desk scale:

* S-pair reduction of every generator pair down to zero, on monomials
  packed into ints, with the basis packed once per list,
* membership of every generator in the kernel of the edge map (each edge
  variable goes to the sum of its endpoint vertices),
* equality of two Hilbert series, one counting monomials outside the
  monomial ideal by a pruned recursion memoised on bitmask supports, the
  other counting distinct vertex exponent vectors in the edge subring by
  one multiset-ordered breadth-first pass over vectors packed into ints.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from functools import cache, cached_property
from itertools import combinations

from .composition import LabeledGraph, OddCycleComposition, bits, cycle_parts, labeled_graph
from .record import Record, _set


class Monomial(Record):
    """Sparse monomial over flat edge-variable indices; exponents all >= 1."""

    __slots__ = ("exps", "__dict__")

    def __init__(self, exps: tuple[tuple[int, int], ...]) -> None:
        _set(self, "exps", exps)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exps == other.exps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exps,))

    @staticmethod
    def from_map(m: Mapping[int, int]) -> "Monomial":
        items = []
        for idx, e in sorted(m.items()):
            if e < 0:
                raise ValueError("negative exponent")
            if e > 0:
                items.append((idx, e))
        return Monomial(tuple(items))

    @staticmethod
    def squarefree(indices: Iterable[int]) -> "Monomial":
        return Monomial(tuple((i, 1) for i in sorted(set(indices))))

    @cached_property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @cached_property
    def support(self) -> int:
        """The variables that occur, as a bitmask."""
        return sum(1 << i for i, _ in self.exps)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        out = dict(self.exps)
        for i, e in other.exps:
            out[i] = out.get(i, 0) + e
        return Monomial.from_map(out)

    def divides(self, other: "Monomial") -> bool:
        it = dict(other.exps)
        return all(it.get(i, 0) >= e for i, e in self.exps)

    def lcm(self, other: "Monomial") -> "Monomial":
        out = dict(self.exps)
        for i, e in other.exps:
            out[i] = max(out.get(i, 0), e)
        return Monomial.from_map(out)

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        out = dict(self.exps)
        for i, e in other.exps:
            have = out.get(i, 0)
            if have < e:
                raise ValueError("quotient is not a monomial")
            out[i] = have - e
        return Monomial.from_map(out)

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"x[{i}]" if e == 1 else f"x[{i}]^{e}" for i, e in self.exps)


MONOMIAL_ONE = Monomial(())


class Binomial(Record):
    """Difference of two distinct monomials, plus part minus minus part."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Monomial, minus: Monomial) -> None:
        if plus == minus:
            raise ValueError("binomial parts must differ")
        _set(self, "plus", plus)
        _set(self, "minus", minus)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.plus, self.minus) == (other.plus, other.minus)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.plus, self.minus))


def grlex_cmp(a: Monomial, b: Monomial) -> int:
    """Graded lex comparison: -1, 0 or 1 as a <, =, > b.

    Total degree decides first.  Ties break at the smallest flat index where
    the exponents differ; the larger exponent there wins, so the variable at
    flat index 0 is the largest one.
    """
    if a.degree != b.degree:
        return -1 if a.degree < b.degree else 1
    ia, ib = 0, 0
    ea, eb = a.exps, b.exps
    while ia < len(ea) and ib < len(eb):
        idx_a, exp_a = ea[ia]
        idx_b, exp_b = eb[ib]
        if idx_a == idx_b:
            if exp_a != exp_b:
                return 1 if exp_a > exp_b else -1
            ia += 1
            ib += 1
        elif idx_a < idx_b:
            return 1  # a has a positive exponent at a smaller index
        else:
            return -1
    if ia < len(ea):
        return 1
    if ib < len(eb):
        return -1
    return 0


def generators(c: OddCycleComposition) -> list[Binomial]:
    """One binomial per cycle pair i < j, in lexicographic pair order."""
    parts = [cycle_parts(c, i) for i in range(1, c.n + 1)]
    out = []
    for i, j in combinations(range(c.n), 2):
        plus = Monomial.squarefree(bits(parts[i].odd | parts[j].even))
        minus = Monomial.squarefree(bits(parts[i].even | parts[j].odd))
        out.append(Binomial(plus=plus, minus=minus))
    return out


def initial_monomials(c: OddCycleComposition) -> list[Monomial]:
    """Generators of the initial ideal: the plus parts, in the same order."""
    return [g.plus for g in generators(c)]


def leading_monomial(b: Binomial) -> Monomial:
    """The graded-lex larger of the two parts."""
    return b.plus if grlex_cmp(b.plus, b.minus) > 0 else b.minus


def _packer(deg: int, nvars: int):
    """pack(m) into one int for degree <= deg in nvars variables, and a guard mask.

    Degree on top, then exponents with x_0 most significant: int order is
    grlex and + multiplies.  Each exponent field has a guard bit; a divides
    b iff b - a sets none.
    """
    w = deg.bit_length() + 1
    top, shifts = w * nvars, [w * (nvars - 1 - i) for i in range(nvars)]

    def pack(m: Monomial) -> int:
        return (m.degree << top) + sum(e << shifts[i] for i, e in m.exps)

    return pack, sum(1 << w * j + w - 1 for j in range(nvars))


def _bounds(binomials: Iterable[Binomial]) -> tuple[int, int]:
    """Largest degree of a part, and 1 + the largest variable index in one."""
    parts = [m for b in binomials for m in (b.plus, b.minus)]
    return (max((m.degree for m in parts), default=0),
            max((i + 1 for m in parts for i, _ in m.exps), default=0))


_DIVISION_MEMO: list = [(), -1, 0, None, 0, []]  # basis, degree, variables, pack, guard, divisors


def s_pair_reduces_to_zero(
    f: Binomial,
    g: Binomial,
    basis: list[Binomial],
    max_steps: int = 10_000,
) -> bool:
    """Divide the S-polynomial of f and g by the basis; True iff remainder is 0.

    Division always rewrites the current leading term.  Each rewrite strictly
    decreases it in the monomial order, so the loop terminates; the step cap
    turns any violation of that into a diagnosable RuntimeError instead of a
    hang, distinct from a mere nonzero remainder.

    Monomials are packed ints (see _packer) with fields sized for twice the
    largest degree in the basis, f and g: no term exceeds deg lcm(LT f, LT g).
    """
    deg, nvars = _bounds((f, g))
    memo = _DIVISION_MEMO  # reused while basis holds the same objects in the same order
    if not (memo[1] >= deg and memo[2] >= nvars and len(memo[0]) == len(basis)
            and all(a is b for a, b in zip(memo[0], basis))):
        deg, nvars = _bounds((f, g, *basis))
        pack, guard = _packer(2 * deg, nvars)
        pairs = [(pack(b.plus), pack(b.minus)) for b in basis]
        memo[:] = [tuple(basis), deg, nvars, pack, guard, [(max(p), min(p)) for p in pairs]]
    pack, guard, divisors = memo[3:]
    lcm = pack(leading_monomial(f).lcm(leading_monomial(g)))
    packed = [(pack(b.plus), pack(b.minus)) for b in (f, g)]
    tf, tg = (lcm - max(p) + min(p) for p in packed)  # each tail times lcm / its lead
    work = {} if tf == tg else {tf: -1, tg: 1}  # lcm/LT f * f - lcm/LT g * g, leads scaled to 1
    remainder = False
    steps = 0
    while work:
        lead = max(work)
        c = work.pop(lead)
        for lm, tail in divisors:
            if not (lead - lm) & guard:
                steps += 1
                if steps > max_steps:
                    raise RuntimeError("reduction did not terminate")
                key = lead - lm + tail
                total = work.pop(key, 0) + c
                if total:
                    work[key] = total
                break
        else:
            remainder = True
    return not remainder


def vertex_exponent_vector(m: Monomial, g: LabeledGraph) -> tuple[int, ...]:
    """Image of an edge monomial under the edge map, as exponents per vertex."""
    vec = [0] * g.n_vertices
    for idx, e in m.exps:
        a, b = g.endpoints[idx]
        vec[a] += e
        vec[b] += e
    return tuple(vec)


def kernel_check(b: Binomial, g: LabeledGraph) -> bool:
    """True iff both parts of b have the same image under the edge map."""
    return vertex_exponent_vector(b.plus, g) == vertex_exponent_vector(b.minus, g)


def _standard_counts(c: OddCycleComposition, degrees: Sequence[int], monomials: list[Monomial]) -> list[int]:
    """Numbers of monomials of each of the degrees divisible by none of the squarefree monomials.

    Pruned recursion over the variables, memoised for all the degrees on
    (variable, degree left, what each live support lacks as a bitmask); once
    no support can complete, stars and bars count the rest.
    """
    if not degrees or min(degrees) < 0:
        raise ValueError("degree must be nonnegative")
    nvars = c.edge_count

    @cache
    def count(idx: int, rem: int, alive: tuple[int, ...]) -> int:
        if rem == 0:
            return 1
        if idx == nvars:
            return 0
        if not alive:
            return math.comb(nvars - idx + rem - 1, rem)
        bit = 1 << idx
        total = count(idx + 1, rem, tuple(s for s in alive if not s & bit))
        if bit in alive:
            return total  # variable idx completes a monomial
        pos = tuple(s & ~bit for s in alive)
        return total + sum(count(idx + 1, rem - e, pos) for e in range(1, rem + 1))

    alive = tuple(m.support for m in monomials)
    return [0 if 0 in alive else count(0, j, alive) for j in degrees]


def standard_monomial_series(c: OddCycleComposition, d: int, monomials: list[Monomial]) -> list[int]:
    """Numbers of degree-0..d monomials divisible by none of the squarefree monomials."""
    return _standard_counts(c, range(d + 1), monomials)


def standard_monomial_count(c: OddCycleComposition, d: int) -> int:
    """Number of degree-d monomials divisible by no initial-ideal generator."""
    return _standard_counts(c, [d], initial_monomials(c))[0]


def edge_subring_hilbert_series(c: OddCycleComposition, d: int) -> list[int]:
    """Dimensions of the degree-0..d pieces of the edge subring, in one pass.

    Level t maps each degree-t vertex exponent vector v to m(v), the least
    largest edge index of an edge multiset with image v.  Edge j is added
    only where m(v) <= j: no vector is missed, as dropping the largest edge
    e of a multiset leaves an image with m <= e.  Edges run last to first,
    so the least j reaching a vector is its m.  Vectors are packed into
    ints, w = bit_length(max(d, 1)) bits per vertex, so sums never carry.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    g = labeled_graph(c)
    w = max(d, 1).bit_length()
    edges = [(1 << w * a) + (1 << w * b) for a, b in g.endpoints]
    level = {0: 0}
    series = [1]
    for _ in range(d):
        by_m = [[] for _ in edges]
        for v, m in level.items():
            by_m[m].append(v)
        order, ends = [], []
        for bucket in by_m:
            order += bucket
            ends.append(len(order))
        level = {}
        for j in range(len(edges) - 1, -1, -1):
            level.update(dict.fromkeys([v + edges[j] for v in order[:ends[j]]], j))
        series.append(len(level))
    return series


def edge_subring_hilbert(c: OddCycleComposition, d: int) -> int:
    """Dimension of the degree-d piece of the edge subring."""
    return edge_subring_hilbert_series(c, d)[d]
