"""Toric ideal of a bouquet of odd cycles, with independent verification oracles.

For cycles i < j the ideal has one generator: the binomial whose plus part
multiplies the odd-position edges of cycle i with the even-position edges of
cycle j, and whose minus part swaps the roles.  Under the graded lex order
that makes x_{1,1} the largest variable, the plus parts generate the initial
ideal.  Supports are int bitmasks over the flat edge index (see composition).

Three cross-checks, deliberately independent of one another and of the
closed-form facet enumeration, certify that claim at desk scale:

* S-pair reduction of every generator pair down to zero, on monomials
  packed into ints: the basis is packed once per list, f and g are looked
  up in it by identity, the lcm of their leads is a field-wise max, the
  division walks the S-polynomial's two terms as two ints, and each
  term's first divisor is memoised on its exponents in the fields some
  lead uses, clipped at the largest exponent of a basis part,
* membership of every generator in the kernel of the edge map (each edge
  variable goes to the sum of its endpoint vertices),
* equality of two Hilbert series, one counting monomials outside the
  monomial ideal by a pruned recursion memoised on the bitmask supports
  that the degree left can still complete, the other counting distinct
  vertex exponent vectors in the edge subring branch by branch at the hub.
  Hub lemma: split at any vertex, a degree-t vector is fixed by its
  projections u_1..u_n onto the components of G - hub (the hub's exponent
  is 2t - sum |u_i|), and it exists iff t lies in the Minkowski sum of the
  sets D(u_i) of degrees at which each u_i occurs.  At a bouquet's hub each
  branch is a path from the hub back to the hub, so binomials count its u
  by D(u), O(d^2) of them per distinct cycle length with no vector listed,
  each D(u) an interval, and a DP over the branches combines the counts by
  shifting whole intervals.

A bouquet's generator supports and its validated branch split at the hub
are computed once per composition instance (see composition.per_bouquet).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import cache, cached_property
from itertools import combinations

from .composition import LabeledGraph, OddCycleComposition, bits, cycle_parts, labeled_graph, per_bouquet
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


@per_bouquet
def _pair_supports(c: OddCycleComposition) -> tuple[tuple[int, int], ...]:
    """Plus and minus supports of the generator of each cycle pair i < j."""
    parts = [cycle_parts(c, i) for i in range(1, c.n + 1)]
    return tuple((p.odd | q.even, p.even | q.odd) for p, q in combinations(parts, 2))


def generators(c: OddCycleComposition) -> list[Binomial]:
    """One binomial per cycle pair i < j, in lexicographic pair order."""
    return [Binomial(plus=Monomial.squarefree(bits(plus)), minus=Monomial.squarefree(bits(minus)))
            for plus, minus in _pair_supports(c)]


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


class _PackedBasis:
    """A basis packed once, with fields for twice the largest degree of it and
    of one f and g: no term of a reduction exceeds deg lcm(LT f, LT g).
    basis is a copy of the list it was packed from; members maps each
    element's id to its packed (lead, tail), and holding the copy keeps those
    ids from being reused.  first maps a term's key to its first divisor in
    basis order, or None when no lead divides it.

    The key is the term's exponents in the fields some lead uses, each
    clipped at cap, the largest exponent of a basis part: the bits of used,
    the guard bits of those fields, of term - t for t = 1..cap (clips holds
    guard - t * ones), summed, hold min(e, cap) times the guard bit in each
    used field.  A lead divides a term iff it divides the clipped term, as
    no lead exponent exceeds cap, and a field no lead uses cannot stop it;
    for squarefree parts the key is the support within the used fields."""

    __slots__ = ("basis", "deg", "nvars", "width", "pack", "guard", "ones", "low", "top_shift",
                 "field", "clips", "divisors", "used", "members", "first")

    def __init__(self, basis: Iterable[Binomial], deg: int, nvars: int) -> None:
        self.basis, self.deg, self.nvars, self.width = list(basis), deg, nvars, (2 * deg).bit_length() + 1
        w, top = self.width, self.width * nvars
        self.pack, self.guard = _packer(2 * deg, nvars)
        self.ones = sum(1 << w * j for j in range(nvars))
        self.low, self.top_shift, self.field = (1 << top) - 1, max(top - w, 0), (1 << w) - 1
        cap = max((e for b in self.basis for m in (b.plus, b.minus) for _, e in m.exps), default=1)
        self.clips = tuple(self.guard - t * self.ones for t in range(1, cap + 1))
        self.divisors = [self.lead_tail(b) for b in self.basis]
        self.used = 0
        for lm, _ in self.divisors:
            self.used |= (lm + self.clips[0]) & self.guard
        self.members = dict(zip(map(id, self.basis), self.divisors))
        self.first: dict[int, tuple[int, int] | None] = {}

    def lead_tail(self, b: Binomial) -> tuple[int, int]:
        p, m = self.pack(b.plus), self.pack(b.minus)
        return (p, m) if p > m else (m, p)

    def lcm(self, a: int, b: int) -> int:
        """lcm of packed monomials of degree <= deg.  A field's guard bit
        survives a - b iff a's exponent is at least b's, which selects the
        field-wise max mx; field nvars - 1 of mx * ones sums mx's exponents,
        and no field of that product carries."""
        a, b = a & self.low, b & self.low
        ge = (a + self.guard - b) & self.guard
        mask = (ge << 1) - (ge >> self.width - 1)
        mx = a & mask | b & ~mask
        return (mx * self.ones >> self.top_shift & self.field) << self.width * self.nvars | mx

    def first_divisor(self, term: int) -> tuple[int, int] | None:
        """The first (lead, tail) in basis order whose lead divides term."""
        guard = self.guard
        for lm_tail in self.divisors:
            if not (term - lm_tail[0]) & guard:
                return lm_tail
        return None


_PACKED = _PackedBasis((), 0, 0)
_UNSEEN = object()


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

    Monomials are packed ints (see _packer).  The basis is packed once and
    reused while the list compares equal to the packed copy; f and g are
    looked up in it by identity, packed only when not members, and the lcm
    of their leads is taken on the packed ints.  Each term's first divisor
    is looked up by its clipped, masked key (see _PackedBasis) and scanned
    for only on a miss.

    The S-polynomial of two binomials with unit coefficients is b - a, and
    a rewrite keeps the coefficient of the term it rewrites, so the walk
    holds two terms, a and b, that cancel when they meet.  A term that no
    lead divides goes to the remainder and becomes -1, below every packed
    monomial, and the other term goes on alone.
    """
    global _PACKED
    pb = _PACKED
    if basis.__class__ is not list:
        basis = list(basis)
    fits = pb.basis == basis
    if fits and not (id(f) in pb.members and id(g) in pb.members):
        deg, nvars = _bounds((f, g))
        fits = deg <= pb.deg and nvars <= pb.nvars
    if not fits:
        pb = _PACKED = _PackedBasis(basis, *_bounds((f, g, *basis)))
    lf, tf = pb.members.get(id(f)) or pb.lead_tail(f)
    lg, tg = pb.members.get(id(g)) or pb.lead_tail(g)
    lcm = pb.lcm(lf, lg)
    a, b = lcm - lf + tf, lcm - lg + tg  # each tail times lcm / its lead
    if a < b:
        a, b = b, a
    used, clip, deeper = pb.used, pb.clips[0], pb.clips[1:]
    first, remainder, steps = pb.first, False, 0
    while a > b:  # a is the lead; the walk ends when the terms cancel or both are -1
        key = (a + clip) & used
        for deep in deeper:
            key += (a + deep) & used
        hit = first.get(key, _UNSEEN)
        if hit is _UNSEEN:
            hit = first[key] = pb.first_divisor(a)
        if hit is None:
            remainder = True
            a, b = b, -1
            continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError("reduction did not terminate")
        a += hit[1] - hit[0]
        if a < b:
            a, b = b, a
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


def _standard_counts(c: OddCycleComposition, degrees: Sequence[int], supports: Iterable[int]) -> list[int]:
    """Numbers of monomials of each of the degrees divisible by none of the
    squarefree monomials with the given supports.

    Pruned recursion over the variables, memoised for all the degrees on
    (variable, degree left, what each live support lacks as a bitmask).  A
    support that lacks more variables than the degree left can no longer
    complete, so it leaves the key at once; once none is left, stars and
    bars count the rest.
    """
    if not degrees or min(degrees) < 0:
        raise ValueError("degree must be nonnegative")
    nvars = c.edge_count

    def fits(alive: Iterable[int], rem: int) -> tuple[int, ...]:
        return tuple(s for s in alive if s.bit_count() <= rem)

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
        pos = [s & ~bit for s in alive]
        return total + sum(count(idx + 1, r, fits(pos, r)) for r in range(rem))

    alive = tuple(supports)
    return [0 if 0 in alive else count(0, j, fits(alive, j)) for j in degrees]


def standard_monomial_series(c: OddCycleComposition, d: int, monomials: list[Monomial]) -> list[int]:
    """Numbers of degree-0..d monomials divisible by none of the squarefree monomials."""
    return _standard_counts(c, range(d + 1), [m.support for m in monomials])


def standard_monomial_count(c: OddCycleComposition, d: int) -> int:
    """Number of degree-d monomials divisible by no initial-ideal generator."""
    return _standard_counts(c, [d], [plus for plus, _ in _pair_supports(c)])[0]


def _path_tally(L: int, d: int) -> dict[tuple[int, int], int]:
    """For each run (t, m), the number of vectors u on the inner vertices of
    a hub-to-hub path with L >= 2 edges whose degrees of occurrence up to d
    are the interval [t, t + m].

    With edge multiplicities a_1..a_L, u_i = a_i + a_{i+1}, so a_1 fixes a
    given u: the odd-position a's rise with it and the even ones fall.  Take
    the canonical a, with odd positions of minimum 0, its sum t and the
    minimum m of its even positions.  For L = 2k + 1 each step up in a_1
    adds 1 to the sum, so D(u) = [t, t + m], cut at d, and C(s + 2k, 2k) -
    C(s + k - 1, 2k) of the u with sum t have m >= m0, s = t - k*m0.  For
    L = 2k, D(u) = {t}, for C(t + L - 1, L - 1) - C(t + k - 1, L - 1) u's.
    """
    k = L // 2

    def comb(n: int, r: int) -> int:
        return math.comb(n, r) if n >= 0 else 0

    if L % 2 == 0:
        return {(t, 0): comb(t + L - 1, L - 1) - comb(t + k - 1, L - 1) for t in range(d + 1)}
    tally = {}
    for t in range(d + 1):
        at_least = [comb(s + 2 * k, 2 * k) - comb(s + k - 1, 2 * k) for s in range(t, t - k * (d - t + 1), -k)]
        for m, (n, above) in enumerate(zip(at_least, at_least[1:] + [0])):
            if n > above:
                tally[t, m] = n - above
    return tally


def _minkowski(states: dict[int, int], runs: dict[tuple[int, int], int], d: int) -> dict[int, int]:
    """One branch step of the hub DP: each counted set S of reachable
    degrees and each counted run (t, m) give the union of S << t' over t'
    in [t, t + m], truncated at d, counted by the product of the two counts.
    Per S, spread[m] = S | S << 1 | ... | S << m serves every run."""
    full, out = (1 << d + 1) - 1, {}
    widest = max((m for _, m in runs), default=0)
    for s, n in states.items():
        spread = [s]
        for _ in range(widest):
            spread.append(spread[-1] | spread[-1] << 1)
        for (t, m), k in runs.items():
            reach = spread[m] << t & full
            out[reach] = out.get(reach, 0) + n * k
    return out


def _hub_branches(g: LabeledGraph, hub: int | None = None) -> tuple[int, ...]:
    """Edge counts of the branches of g at the vertex hub, by default the
    vertex of largest degree (lowest index on ties).

    The branches are the components of g - hub, and each edge joins the
    branch of its non-hub endpoint.  Each branch must be a path from the hub
    back to the hub, else ValueError.
    """
    degree = Counter(v for e in g.endpoints for v in e)
    if hub is None:
        hub = max(range(g.n_vertices), key=degree.__getitem__)
    parent = list(range(g.n_vertices))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in g.endpoints:
        if hub != a and hub != b:
            parent[root(a)] = root(b)
    branches: dict[int, list[tuple[int, int]]] = {}
    for a, b in g.endpoints:
        branches.setdefault(root(b if a == hub else a), []).append((a, b))
    for ends in branches.values():
        inner = {v for e in ends for v in e} - {hub}
        if (len(ends) != len(inner) + 1 or sum(hub in e for e in ends) != 2
                or any(degree[v] != 2 for v in inner)):
            raise ValueError(f"branch {ends} is not a path from the hub back to the hub")
    return tuple(map(len, branches.values()))


def _hub_counts(lengths: Iterable[int], d: int) -> list[int]:
    """Dimensions of the degree-0..d pieces of the edge ring of hub paths
    with the given edge counts glued at the hub.

    Each path gives the tally of its degree runs D(u) = [t, t + m]; a DP
    over the paths maps each set of degrees a tuple (u_1, ...) can reach,
    truncated at d, to the number of such tuples, and HF(t) sums the sets
    that hold t (see edge_subring_hilbert_series).
    """
    states, tallies = {1: 1}, {}
    for L in lengths:
        if L not in tallies:  # equal cycles of a bouquet share one tally
            tallies[L] = _path_tally(L, d)
        states = _minkowski(states, tallies[L], d)
    return [sum(n for s, n in states.items() if s >> t & 1) for t in range(d + 1)]


def _hub_series(g: LabeledGraph, d: int, hub: int | None = None) -> list[int]:
    """Dimensions of the degree-0..d pieces of K[g], split at the vertex hub
    (see _hub_branches and _hub_counts)."""
    return _hub_counts(_hub_branches(g, hub), d)


@per_bouquet
def _bouquet_branches(c: OddCycleComposition) -> tuple[int, ...]:
    """The validated branch edge counts of the bouquet graph at its hub."""
    return _hub_branches(labeled_graph(c))


def edge_subring_hilbert_series(c: OddCycleComposition, d: int) -> list[int]:
    """Dimensions of the degree-0..d pieces of the edge subring.

    Counted branch by branch at the hub, the vertex of largest degree
    (lowest index on ties).  Hub lemma: a degree-t vertex exponent vector
    is fixed by its projections u_1..u_n onto the components of G - hub,
    since the hub's exponent is 2t - sum |u_i|; and it exists iff t lies in
    the Minkowski sum D(u_1) + ... + D(u_n), where D(u) is the set of
    degrees at which u is the image of an edge multiset of its branch.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return _hub_counts(_bouquet_branches(c), d)


def edge_subring_hilbert(c: OddCycleComposition, d: int) -> int:
    """Dimension of the degree-d piece of the edge subring."""
    return edge_subring_hilbert_series(c, d)[d]
