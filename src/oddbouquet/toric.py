"""Toric ideal of a bouquet of odd cycles, with independent verification oracles.

For cycles i < j the ideal has one generator: the binomial whose plus part
multiplies the odd-position edges of cycle i with the even-position edges of
cycle j, and whose minus part swaps the roles.  Under the graded lex order
that makes x_{1,1} the largest variable, the plus parts generate the initial
ideal.

Three cross-checks, deliberately independent of one another and of the
closed-form facet enumeration, certify that claim at desk scale:

* S-pair reduction of every generator pair down to zero,
* membership of every generator in the kernel of the edge map (each edge
  variable goes to the sum of its endpoint vertices),
* equality of two Hilbert counters, one counting monomials outside the
  monomial ideal by a pruned recursion, the other counting distinct vertex
  exponent vectors in the edge subring by a breadth-first search over
  vectors packed into ints, degree by degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import combinations
from typing import Iterable, Mapping

from .composition import LabeledGraph, OddCycleComposition, cycle_parts, labeled_graph


@dataclass(frozen=True)
class Monomial:
    """Sparse monomial over flat edge-variable indices; exponents all >= 1."""

    exps: tuple[tuple[int, int], ...]

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
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.exps)

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


@dataclass(frozen=True)
class Binomial:
    """Difference of two distinct monomials, plus part minus minus part."""

    plus: Monomial
    minus: Monomial

    def __post_init__(self) -> None:
        if self.plus == self.minus:
            raise ValueError("binomial parts must differ")


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


_GRLEX_KEY = cmp_to_key(grlex_cmp)


def generators(c: OddCycleComposition) -> list[Binomial]:
    """One binomial per cycle pair i < j, in lexicographic pair order."""
    parts = [cycle_parts(c, i) for i in range(1, c.n + 1)]
    out = []
    for i, j in combinations(range(c.n), 2):
        plus = Monomial.squarefree(parts[i].odd | parts[j].even)
        minus = Monomial.squarefree(parts[i].even | parts[j].odd)
        out.append(Binomial(plus=plus, minus=minus))
    return out


def initial_monomials(c: OddCycleComposition) -> list[Monomial]:
    """Generators of the initial ideal: the plus parts, in the same order."""
    return [g.plus for g in generators(c)]


def leading_monomial(b: Binomial) -> Monomial:
    """The graded-lex larger of the two parts."""
    return b.plus if grlex_cmp(b.plus, b.minus) > 0 else b.minus


def _as_poly(b: Binomial) -> dict[Monomial, int]:
    return {b.plus: 1, b.minus: -1}


def _s_polynomial(f: Binomial, g: Binomial) -> dict[Monomial, int]:
    fp, gp = _as_poly(f), _as_poly(g)
    lf, lg = leading_monomial(f), leading_monomial(g)
    lcm = lf.lcm(lg)
    uf, ug = lcm.quotient(lf), lcm.quotient(lg)
    out: dict[Monomial, int] = {}
    # leading coefficients are +-1, so dividing by them is multiplying by them
    for m, cm in fp.items():
        key = m.mul(uf)
        out[key] = out.get(key, 0) + cm * fp[lf]
    for m, cm in gp.items():
        key = m.mul(ug)
        out[key] = out.get(key, 0) - cm * gp[lg]
    return {m: cv for m, cv in out.items() if cv}


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
    """
    prepared = [(leading_monomial(h), _as_poly(h)) for h in basis]
    work = _s_polynomial(f, g)
    remainder: dict[Monomial, int] = {}
    steps = 0
    while work:
        lead = max(work, key=_GRLEX_KEY)
        c = work[lead]
        for lm, hp in prepared:
            if lm.divides(lead):
                steps += 1
                if steps > max_steps:
                    raise RuntimeError("reduction did not terminate")
                u = lead.quotient(lm)
                factor = c * hp[lm]  # == c / leading coefficient, both signs +-1
                for m, cm in hp.items():
                    key = m.mul(u)
                    nv = work.get(key, 0) - factor * cm
                    if nv:
                        work[key] = nv
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[lead] = c
            del work[lead]
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


def standard_monomial_count(c: OddCycleComposition, d: int) -> int:
    """Number of degree-d monomials divisible by no initial-ideal generator.

    Pruned recursion over the flat variables: a branch dies the moment some
    generator's support is fully present, and once no generator can still
    complete, the remaining freedom is counted by stars and bars.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    nvars = c.edge_count
    supports = tuple(m.support for m in initial_monomials(c))

    def count(idx: int, rem: int, alive: tuple[frozenset[int], ...]) -> int:
        if rem == 0:
            return 1
        if idx == nvars:
            return 0
        if not alive:
            return math.comb(nvars - idx + rem - 1, rem)
        total = count(idx + 1, rem, tuple(s for s in alive if idx not in s))
        pos_alive = []
        for s in alive:
            if idx in s:
                s2 = s - {idx}
                if not s2:
                    return total  # variable idx completes a generator
                pos_alive.append(s2)
            else:
                pos_alive.append(s)
        pos = tuple(pos_alive)
        for e in range(1, rem + 1):
            total += count(idx + 1, rem - e, pos)
        return total

    return count(0, d, supports)


def edge_subring_hilbert(c: OddCycleComposition, d: int) -> int:
    """Dimension of the degree-d piece of the edge subring.

    Breadth-first closure with deduplication: the level-d set collects every
    vertex exponent vector reachable as (level d-1 vector) + (edge image).
    Each vector is packed into one int with w = bit_length(max(d, 1)) bits
    per vertex; no coordinate exceeds d < 2^w, so sums never carry and the
    packing is injective.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    g = labeled_graph(c)
    w = max(d, 1).bit_length()
    edges = [(1 << w * a) + (1 << w * b) for a, b in g.endpoints]
    level = {0}
    for _ in range(d):
        level = {v + e for v in level for e in edges}
    return len(level)
