"""Toric ideal of a bouquet of odd cycles, with independent verification oracles.

For cycles i < j the ideal has one generator: the binomial whose plus part
multiplies the odd-position edges of cycle i with the even-position edges of
cycle j, and whose minus part swaps the roles.  Under the graded lex order
that makes x_{1,1} the largest variable, the plus parts generate the initial
ideal.  Every part is squarefree, and a Monomial is the int bitmask of its
variables over the flat edge index (see composition).

Three cross-checks, deliberately independent of one another and of the
closed-form facet enumeration, certify that claim at desk scale:

* Buchberger's test on every generator pair: a pair whose leading
  monomials share no variable is settled by Buchberger's first criterion,
  and every other S-pair must reduce to zero by division on monomials
  packed into ints, at most MAX_STEPS steps per pair, the list packed once
  while every pair is a pair of its members (see s_pair_reduces_to_zero
  and _PackedBasis),
* membership of every generator in the kernel of the edge map (each edge
  variable goes to the sum of its endpoint vertices),
* equality of two Hilbert series, each summed from one-dimensional
  tallies: the monomials outside the initial ideal, from the face numbers
  of its Stanley-Reisner complex (see _standard_counts), and the distinct
  vertex exponent vectors of the edge subring, branch by branch at the hub
  (see edge_subring_hilbert_series for the hub lemma).

The hub count works out to the paper's formula.  _path_ends gives a hub
path with L edges the series (1 - t^j)/(1 - t)^L = [j]/(1 - t)^(L - 1),
where [j] = 1 + t + ... + t^(j - 1), with j = ceil(L/2) at its runs' low
ends and j = floor(L/2) at their high ends.  A cycle with L = 2k + 1 edges
so has [k + 1]/(1 - t)^(2k) and [k]/(1 - t)^(2k), and _run_counts, which
counts the run tuples whose low ends sum to at most t less those whose
high ends sum to less than t, yields

    HS(K[G]) = (prod_i [k_i + 1] - t * prod_i [k_i]) / (1 - t)^(2N + 1),

the closed-form h over (1 - t)^V.

A bouquet's generator supports and its validated branch split at the hub
are computed once per composition instance (see composition.per_bouquet).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import accumulate, chain, combinations
from operator import or_

from .composition import LabeledGraph, OddCycleComposition, bits, cycle_parts, labeled_graph, per_bouquet
from .record import Record, _set


class Monomial(Record):
    """Squarefree monomial over flat edge-variable indices: the bitmask of its variables."""

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        if mask < 0:
            raise ValueError("negative variable mask")
        _set(self, "mask", mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """(variable, exponent) pairs, variables ascending, each exponent 1."""
        return tuple((i, 1) for i in bits(self.mask))


class Binomial(Record):
    """Difference of two distinct monomials, plus part minus minus part."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Monomial, minus: Monomial) -> None:
        if plus == minus:
            raise ValueError("binomial parts must differ")
        _set(self, "plus", plus)
        _set(self, "minus", minus)


def grlex_cmp(a: Monomial, b: Monomial) -> int:
    """Graded lex comparison: -1, 0 or 1 as a <, =, > b.

    Total degree decides first.  Ties break at the smallest flat index in
    one monomial only, and the one holding it wins, so the variable at flat
    index 0 is the largest one.
    """
    if a.degree != b.degree:
        return -1 if a.degree < b.degree else 1
    diff = a.mask ^ b.mask
    if not diff:
        return 0
    return 1 if a.mask & diff & -diff else -1


@per_bouquet
def _pair_supports(c: OddCycleComposition) -> tuple[tuple[int, int], ...]:
    """Plus and minus supports of the generator of each cycle pair i < j.

    The plus supports generate the initial ideal; everything that needs
    them reads them here."""
    parts = [cycle_parts(c, i) for i in range(1, c.n + 1)]
    return tuple((p.odd | q.even, p.even | q.odd) for p, q in combinations(parts, 2))


def generators(c: OddCycleComposition) -> list[Binomial]:
    """One binomial per cycle pair i < j, in lexicographic pair order."""
    return [Binomial(plus=Monomial(plus), minus=Monomial(minus)) for plus, minus in _pair_supports(c)]


def leading_monomial(b: Binomial) -> Monomial:
    """The graded-lex larger of the two parts."""
    return b.plus if grlex_cmp(b.plus, b.minus) > 0 else b.minus


def _bounds(binomials: Iterable[Binomial]) -> tuple[int, int]:
    """Largest degree of a part, and 1 + the largest variable index in one."""
    parts = [m for b in binomials for m in (b.plus, b.minus)]
    return (max((m.degree for m in parts), default=0),
            max((m.mask.bit_length() for m in parts), default=0))


class _PackedBasis:
    """A basis packed once, with fields for twice the largest degree of it and
    of one f and g: no term of a reduction exceeds deg lcm(LT f, LT g).
    pack puts a monomial in one int: the degree on top, then one width-bit
    exponent field per variable with x_0 most significant, so int order is
    grlex and + multiplies; fields[i] is exponent 1 in x_i's field, and pack
    adds one per variable.  A field holds any exponent up to 2 deg, so every
    monomial of degree <= 2 deg that sums of packed ones make fits, squares
    included.  guard is the top bit of each exponent field: a divides b iff
    b - a sets none of them, and term + nonzero sets the guard bit of each
    variable in term.  basis is a copy of the list it was packed from;
    members maps each element's id to its packed (lead, tail), and holding
    the copy keeps those ids from being reused.  A basis is packed again,
    not widened, for a pair whose f or g is not a member.

    A term's absent variables are the guard bits that term + nonzero
    (guard - ones) leaves clear.  Leads are squarefree, so a lead divides a
    term iff none of its variables, as guard bits, is absent.

    runs splits the leads, in basis order, into maximal runs of consecutive
    leads that share a variable: (the run's common variables as guard bits,
    [(lead's variables as guard bits, (lead, tail)), ...]).  A run with an
    absent common variable holds no divisor of the term, so a miss skips
    it whole.  In a bouquet basis the pairs (i, j) of each cycle
    i < n make one run, whose leads share the odd part of cycle i."""

    __slots__ = ("basis", "width", "top", "guard", "nonzero", "low", "members", "runs", "fields")

    def __init__(self, basis: Iterable[Binomial], deg: int, nvars: int) -> None:
        self.basis, self.width = list(basis), (2 * deg).bit_length() + 1
        w = self.width
        self.top = w * nvars
        self.fields = [1 << self.top - w * (i + 1) for i in range(nvars)]
        ones = sum(self.fields)
        self.guard = ones << w - 1
        self.nonzero = self.guard - ones
        self.low = (1 << self.top) - 1
        divisors = [self.lead_tail(b) for b in self.basis]
        self.members = dict(zip(map(id, self.basis), divisors))
        self.runs: list[tuple[int, list[tuple[int, tuple[int, int]]]]] = []
        for lm_tail in divisors:
            vs = (lm_tail[0] + self.nonzero) & self.guard
            if self.runs and self.runs[-1][0] & vs:
                common, leads = self.runs[-1]
                self.runs[-1] = common & vs, leads
                leads.append((vs, lm_tail))
            else:
                self.runs.append((vs, [(vs, lm_tail)]))

    def pack(self, m: Monomial) -> int:
        mask, fields = m.mask, self.fields
        out = mask.bit_count() << self.top
        while mask:
            low = mask & -mask
            out += fields[low.bit_length() - 1]
            mask ^= low
        return out

    def lead_tail(self, b: Binomial) -> tuple[int, int]:
        p, m = self.pack(b.plus), self.pack(b.minus)
        return (p, m) if p > m else (m, p)

    def start_terms(self, lf: int, tf: int, lg: int, tg: int) -> tuple[int, int]:
        """tf * lcm / lf and tg * lcm / lg, lcm = lcm(lf, lg), for squarefree
        leads: lcm / lf is the variables of lg that lf lacks, one exponent
        bit each, and its degree is their number."""
        low, top = self.low, self.top
        xg, xf = lg & ~lf & low, lf & ~lg & low
        return tf + xg + (xg.bit_count() << top), tg + xf + (xf.bit_count() << top)

    def first_divisor(self, absent: int) -> tuple[int, int] | None:
        """The first (lead, tail) in basis order whose lead divides the terms
        with these absent variables: the runs with no absent common variable
        are scanned, in order."""
        for common, leads in self.runs:
            if not common & absent:
                for vs, lm_tail in leads:
                    if not vs & absent:
                        return lm_tail
        return None


_PACKED = _PackedBasis((), 0, 0)
MAX_STEPS = 10_000  # division steps per S-pair before RuntimeError


def s_pair_reduces_to_zero(f: Binomial, g: Binomial, basis: list[Binomial]) -> bool:
    """True iff the S-polynomial of f and g is settled by Buchberger's first
    criterion or divides by the basis to remainder 0.

    The criterion settles the pair when f and g are both elements of the
    basis (by identity or by value) and their leading monomials share no
    variable: then S(f, g) = tail(g) f - tail(f) g is a standard
    representation (Buchberger, EUROSAM 1979; Cox, Little and O'Shea,
    Ideals, Varieties, and Algorithms, ch. 2, "Improvements on Buchberger's
    Algorithm").  A settled pair takes no division step, so it returns True
    even were MAX_STEPS 0; every other pair is divided.  A basis is a
    Groebner basis iff every S-pair whose leads share a variable divides to
    remainder 0, so the conjunction over all pairs of a basis is the same
    with or without the criterion.  Only a single pair's answer can differ:
    a coprime pair of a basis that is not a Groebner basis may leave a
    nonzero remainder, and the criterion answers True for it.

    Division always rewrites the current leading term.  Each rewrite strictly
    decreases it in the monomial order, so the loop terminates; the step cap
    MAX_STEPS, read on each call, turns any violation of that into a
    diagnosable RuntimeError instead of a hang, distinct from a mere nonzero
    remainder.

    Monomials are packed ints (see _PackedBasis).  While f and g, by
    identity, are members of a packed copy equal to the list, nothing is
    set up.  Else the list is packed again, with fields wide enough for f
    and g too, and a non-member f or g is packed on its own (only the
    criterion also looks it up in the list by value).
    Start terms come from the packed leads' bits, and each term's first
    divisor from its absent variables, the guard bits its fields leave
    clear, and the runs of leads (_PackedBasis.start_terms, first_divisor).
    The parts are squarefree, but a rewrite can square a variable of a
    term, and the packed ints hold any exponent up to the lcm's degree.

    The S-polynomial of two binomials with unit coefficients is b - a, and
    a rewrite keeps the coefficient of the term it rewrites, so the walk
    holds two terms, a and b, that cancel when they meet.  A term that no
    lead divides goes to the remainder and becomes -1, below every packed
    monomial, and the other term goes on alone.
    """
    global _PACKED
    pb = _PACKED
    mf, mg = pb.members.get(id(f)), pb.members.get(id(g))
    if mf is None or mg is None or pb.basis != basis:
        pb = _PACKED = _PackedBasis(basis, *_bounds((f, g, *basis)))
        mf, mg = pb.members.get(id(f)), pb.members.get(id(g))
    lf, tf = mf or pb.lead_tail(f)
    lg, tg = mg or pb.lead_tail(g)
    if not lf & lg & pb.low and (mf or f in basis) and (mg or g in basis):
        return True  # coprime leads: Buchberger's first criterion
    a, b = pb.start_terms(lf, tf, lg, tg)
    if a < b:
        a, b = b, a
    guard, nonzero, first_divisor, remainder, steps = pb.guard, pb.nonzero, pb.first_divisor, False, 0
    while a > b:  # a is the lead; the walk ends when the terms cancel or both are -1
        hit = first_divisor(~(a + nonzero) & guard)
        if hit is None:
            remainder = True
            a, b = b, -1
            continue
        steps += 1
        if steps > MAX_STEPS:
            raise RuntimeError("reduction did not terminate")
        a += hit[1] - hit[0]
        if a < b:
            a, b = b, a
    return not remainder


def vertex_exponent_vector(m: Monomial, g: LabeledGraph) -> tuple[int, ...]:
    """Image of an edge monomial under the edge map, as exponents per vertex."""
    vec = [0] * g.n_vertices
    for idx in bits(m.mask):
        a, b = g.endpoints[idx]
        vec[a] += 1
        vec[b] += 1
    return tuple(vec)


def kernel_check(b: Binomial, g: LabeledGraph) -> bool:
    """True iff both parts of b have the same image under the edge map."""
    return vertex_exponent_vector(b.plus, g) == vertex_exponent_vector(b.minus, g)


def _standard_counts(c: OddCycleComposition, degrees: Sequence[int], supports: Iterable[int]) -> list[int]:
    """Numbers of monomials of each of the degrees divisible by none of the
    squarefree monomials with the given supports.

    Those monomials are the standard monomials of the squarefree ideal P
    the supports generate, and a monomial is one iff its support is a face
    of the complex Delta(P) of the sets that hold no support.  A size-i face
    is the exact support of C(t - 1, i - 1) monomials of degree t >= 1, so
    HF(t) = sum_i f_i C(t - 1, i - 1), where f_i counts the size-i faces
    (Stanley-Reisner).  f_0..f_D, D = min(max degree, nvars), come from an
    include/exclude recursion that branches only at the next live variable,
    the lowest in some live support, memoised on (that variable, what each
    live support lacks as a bitmask).  A node counts the faces it can still
    grow up to the size left, size = D - the variables included, as one
    vector packed into an int, a w-bit field per size; a support that lacks
    more variables than that lies in no face counted and leaves the key,
    and a node met again with at most its size left reads a prefix of its
    vector.  The m free variables skipped on the way are one binomial power
    (1 + x)^m.  A support past the nvars variables never completes and is
    dropped, so it makes no variable live.
    """
    if not degrees or min(degrees) < 0:
        raise ValueError("degree must be nonnegative")
    nvars = c.edge_count
    top, w = min(max(degrees), nvars), nvars + 1  # no face count reaches 2^w
    memo: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}

    def faces(idx: int, size: int, alive: tuple[int, ...]) -> int:
        live = reduce(or_, alive, 0)
        nxt = (live & -live).bit_length() - 1 if live else nvars
        full = (1 << w * (size + 1)) - 1
        run = pow(1 + (1 << w), nxt - idx, full + 1)  # the faces of the free variables idx..nxt - 1
        if not live:
            return run
        known, out = memo.get((nxt, alive), (-1, 0))
        if known < size:
            bit = 1 << nxt
            out = faces(nxt + 1, size, tuple(s for s in alive if not s & bit))
            if size and bit not in alive:  # else variable nxt completes a support
                out += faces(nxt + 1, size - 1, tuple(s & ~bit for s in alive if s & bit or s.bit_count() < size)) << w
            memo[nxt, alive] = size, out
        return run * (out & full) & full

    alive = tuple(s for s in supports if s.bit_count() <= top and not s >> nvars)
    packed = 0 if 0 in alive else faces(0, top, alive)
    f = [packed >> w * i & (1 << w) - 1 for i in range(top + 1)]
    return [sum(fi * math.comb(t - 1, i - 1) for i, fi in enumerate(f) if i) if t else f[0] for t in degrees]


def standard_monomial_series(c: OddCycleComposition, d: int) -> list[int]:
    """Numbers of degree-0..d monomials divisible by no initial-ideal generator."""
    return _standard_counts(c, range(d + 1), [plus for plus, _ in _pair_supports(c)])


def standard_monomial_count(c: OddCycleComposition, d: int) -> int:
    """Number of degree-d monomials divisible by no initial-ideal generator."""
    return _standard_counts(c, [d], [plus for plus, _ in _pair_supports(c)])[0]


def _path_ends(L: int, d: int) -> tuple[list[int], list[int]]:
    """For t = 0..d, the numbers of vectors u on the inner vertices of a
    hub-to-hub path with L >= 2 edges whose run D(u) of degrees of
    occurrence starts at t, and whose run ends at t.

    With edge multiplicities a_1..a_L, u_i = a_i + a_{i+1}, so a_1 fixes a
    given u: one step up in it raises the odd-position a's and lowers the
    even ones, which adds 1 to the sum for odd L and 0 for even L.  So D(u)
    is an interval from the sum of the a with some odd-position a_i = 0 to
    the sum of the a with some even-position a_i = 0, and of the
    C(t + L - 1, L - 1) a of sum t, all but C(t + L - 1 - j, L - 1) have a
    zero among j given positions.
    """
    low, high = ([math.comb(t + L - 1, L - 1) - math.comb(t + L - 1 - j, L - 1) for t in range(d + 1)]
                 for j in (L - L // 2, L // 2))
    return low, high


def _hub_branches(g: LabeledGraph) -> tuple[int, ...]:
    """Edge counts of the branches of g at its hub, the vertex of largest
    degree, lowest index on ties (vertex 0 of a bouquet graph).

    Each branch must be a path from the hub back to the hub, else
    ValueError: a walk from each hub edge not yet walked goes on through
    vertices of degree 2 until it is back at the hub, it must take at least
    two edges, and the walks must take every edge.
    """
    incident: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for i, (a, b) in enumerate(g.endpoints):
        incident[a].append(i)
        incident[b].append(i)
    hub = max(range(g.n_vertices), key=lambda v: len(incident[v]))
    lengths, walked = [], set()
    for first in incident[hub]:
        if first in walked:
            continue
        path, v = [first], sum(g.endpoints[first]) - hub  # v: the edge's other end
        while v != hub and len(incident[v]) == 2:
            i, j = incident[v]
            path.append(j if i == path[-1] else i)
            v = sum(g.endpoints[path[-1]]) - v
        walked.update(path)
        if v != hub or len(path) < 2:
            raise ValueError(f"branch {[g.endpoints[i] for i in path]} is not a path from the hub back to the hub")
        lengths.append(len(path))
    if len(walked) < len(g.endpoints):
        rest = [e for i, e in enumerate(g.endpoints) if i not in walked]
        raise ValueError(f"branch {rest} is not a path from the hub back to the hub")
    return tuple(lengths)


def _run_counts(ends: Sequence[tuple[Sequence[int], Sequence[int]]], d: int) -> list[int]:
    """HF(0..d) of the tuples that take one run from each branch, given for
    each branch the numbers of its runs with each low end and with each
    high end, 0..d.  A tuple is counted in degree t iff t lies in the sum
    [X, Y] of its runs, X the sum of the low ends and Y of the high ends.
    As X <= Y, HF(t) = #{X <= t} - #{Y < t}, and each side is one
    convolution of the branches' ends, truncated at d: a product of ints
    with one w-bit field per degree, where 2^w exceeds the number of
    tuples, so no field carries."""
    w = max(math.prod(sum(lo) for lo, _ in ends), 1).bit_length()
    full, field = (1 << w * (d + 1)) - 1, (1 << w) - 1
    low = high = 1
    for lo, hi in ends:
        low = low * sum(n << w * t for t, n in enumerate(lo)) & full
        high = high * sum(n << w * t for t, n in enumerate(hi)) & full
    at_most = accumulate(low >> w * t & field for t in range(d + 1))
    below = accumulate(high >> w * t & field for t in range(d))
    return [x - y for x, y in zip(at_most, chain([0], below))]


def _hub_counts(lengths: Sequence[int], d: int) -> list[int]:
    """Dimensions of the degree-0..d pieces of the edge ring of hub paths
    with the given edge counts glued at the hub: each path's run ends (see
    _path_ends), equal lengths sharing them, counted by _run_counts."""
    ends = {L: _path_ends(L, d) for L in set(lengths)}
    return _run_counts([ends[L] for L in lengths], d)


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
