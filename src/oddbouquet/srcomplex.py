"""Simplicial complex attached to the initial ideal of a bouquet.

The complex lives on the flat edge-variable indices; its faces are the
squarefree monomials outside the initial ideal.  Faces and facets are int
bitmasks over that index, bit v set iff edge v is in.  Facets come in two ways:

* a closed-form enumeration: for a pivot cycle j the facet keeps cycle j
  whole, drops exactly one odd-position edge from every earlier cycle and
  exactly one even-position edge from every later cycle;
* the complements of the minimal transversals of the generators' supports,
  found by an MMCS search: the oracle up to ORACLE_CAP = 18 edges.

The h-vector comes from the order in which the closed form emits the
facets: that order is checked to be a shelling on every call, and h_i
counts the facets whose restriction has i elements.  That check packs the
earlier facets into one int, E + 1 bits per facet with a guard bit on top:
F * ones & ~packed holds F minus each earlier facet, and adding all ones
below the guards leaves the guard of an empty field clear.  The f-vector
by subset enumeration and the f-to-h transform (the Hilbert series
numerator of the face ring over (1-t)^d) are kept as the independent
reference for that route; the Hilbert function read off h ties h to the
ring's two Hilbert counters.  A structural decomposition check for
growing one cycle by two edges completes the module.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import or_

from .composition import OddCycleComposition, bits, build_from_k, cycle_parts
from .record import Record, _set


# The largest ground set facets_brute_force searches.  The search is bounded by its
# output ((2^7): 35 edges, 2,059 facets, ~7 ms), but perfbench pins the name and the cap
# (its traced layers, brutefacets' skip rule): raising it is a declared benchmark change.
ORACLE_CAP = 18


class SimplicialComplex(Record):
    """Ground set 0..ground_size-1 plus a tuple of inclusion-maximal facets as bitmasks."""

    __slots__ = ("ground_size", "facets")

    def __init__(self, ground_size: int, facets: tuple[int, ...]) -> None:
        # a negative mask has infinitely many bits, so the shift catches it too
        if any(f >> ground_size for f in facets):
            raise ValueError("facet element outside ground set")
        # facets of one size contain each other only if equal, so a duplicate
        # check covers them; proper containment needs facets of two sizes
        mixed = len({f.bit_count() for f in facets}) > 1
        if len(set(facets)) != len(facets) or (
            mixed and any(a != b and a & ~b == 0 for a in facets for b in facets)
        ):
            raise ValueError("facet contained in another facet")
        _set(self, "ground_size", ground_size)
        _set(self, "facets", facets)


class FVector(Record):
    """counts[c] is the number of faces of cardinality c (so counts[0] = 1)."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        _set(self, "counts", counts)

    @property
    def max_cardinality(self) -> int:
        return len(self.counts) - 1


def _drops(part: int) -> list[int]:
    """part minus one edge, for each of its edges, the last edge dropped first."""
    drops, rest = [], part
    while rest:
        low = rest & -rest
        drops.append(part ^ low)
        rest ^= low
    drops.reverse()
    return drops


def facets_closed_form(c: OddCycleComposition) -> SimplicialComplex:
    """All facets, one family per pivot cycle j = 1..n.

    The family for pivot j consists of the unions

        zeta_1 .. zeta_{j-1}  +  even parts of cycles 1..j
        + odd parts of cycles j..n  +  omega_{j+1} .. omega_n,

    where zeta_i runs over the odd part of cycle i minus one edge and
    omega_i over the even part of cycle i minus one edge (empty for a
    triangle).  Facets are emitted pivot by pivot, dropped edges last to
    first, which is a shelling (see shelling_h_vector).  The zeta choices
    are a prefix product that grows by one cycle per pivot, whose drop
    list is built once for all the prefixes it extends; the omega choices
    are suffix products built once from cycle n back, so each facet is
    two ORs.  Two families that share a facet raise ValueError, from the
    SimplicialComplex constructor.
    """
    parts = [cycle_parts(c, i) for i in range(1, c.n + 1)]
    suffixes = [[0]]  # suffixes[-1 - j]: the omega choices of pivot j + 1
    for part in reversed(parts[1:]):
        suffixes.append([d | s for d in _drops(part.even) for s in suffixes[-1]])
    prefixes, evens, odds = [0], 0, reduce(or_, [p.odd for p in parts])
    facets: list[int] = []
    for j, (part, tails) in enumerate(zip(parts, reversed(suffixes))):
        if j:
            drops = _drops(parts[j - 1].odd)
            prefixes = [p | d for p in prefixes for d in drops]
            odds ^= parts[j - 1].odd
        evens |= part.even
        fixed = evens | odds
        facets += [p | s | fixed for p in prefixes for s in tails]
    return SimplicialComplex(ground_size=c.edge_count, facets=tuple(facets))


def facets_brute_force(supports: list[int], ground_size: int) -> SimplicialComplex:
    """Maximal subsets of the ground set containing none of the supports.

    A subset avoids the supports iff what it leaves out meets each one, so
    the facets are the complements of the minimal transversals, found once
    each by MMCS (Murakami and Uno, Discrete Appl. Math. 2014) on bitmasks.
    The search carries the chosen vertices, the candidates, the uncovered
    supports and each chosen vertex's critical supports (met by no other),
    branches on an uncovered support with the fewest candidates, gives each
    tried vertex back to its later siblings and prunes once a chosen vertex
    has no critical support.  A support past the ground set lies in no
    subset of it and is dropped; the empty support has no candidates, so
    no facets.  Small ground sets only, hence ORACLE_CAP.
    """
    if ground_size > ORACLE_CAP:
        raise ValueError("instance too large for oracle")
    ground = (1 << ground_size) - 1
    edges = [s for s in supports if not s & ~ground]
    hits = [0] * ground_size  # hits[v]: the indices of the supports through v
    for i, s in enumerate(edges):
        for v in bits(s):
            hits[v] |= 1 << i
    facet_masks: list[int] = []

    def search(chosen: int, crits: list[int], cand: int, uncov: int) -> None:
        if not uncov:
            facet_masks.append(ground & ~chosen)
            return
        branch = min((edges[i] & cand for i in bits(uncov)), key=int.bit_count)
        cand &= ~branch
        while branch:
            low = branch & -branch
            hit = hits[low.bit_length() - 1]
            kept = [crit & ~hit for crit in crits]
            if all(kept):
                search(chosen | low, kept + [hit & uncov], cand, uncov & ~hit)
            cand |= low
            branch ^= low

    search(0, [], ground, (1 << len(edges)) - 1)
    return SimplicialComplex(ground_size=ground_size, facets=tuple(facet_masks))


def shelling_h_vector(masks: list[int]) -> tuple[int, ...]:
    """h-vector of a pure complex from a shelling order of its facets.

    masks are the facets F_1..F_m as bitmasks, in shelling order.  For each
    F_j the restriction U_j is the union of the one-element differences
    F_j - G over the earlier facets G.  The order is a shelling iff every
    earlier G satisfies (F_j - G) & U_j != 0, i.e. F_j & G lies in some
    codimension-one face F_j & G' with G' earlier; then h_i = #{j : |U_j| = i},
    returned as a tuple with no trailing zero.  With the earlier facets
    packed, F_j costs O(log j) big-int operations.  Facets of different
    sizes, repeated facets and orders that are not a shelling raise
    ValueError.
    """
    if len({m.bit_count() for m in masks}) > 1:
        raise ValueError("facets of different sizes: complex is not pure")
    e = reduce(or_, masks, 0).bit_length()
    w, low = e + 1, (1 << e) - 1
    packed = ones = 0  # facet j's field is at w * j
    counts = [0] * w
    for j, f in enumerate(masks):
        guard = ones << e
        fill = guard - ones
        diffs = f * ones & ~packed
        # with no field empty, v & (v - 1) is 0 just in the one-bit fields
        multi = (diffs & diffs - ones) + fill & guard
        singles, span = diffs & ~(multi - (multi >> e)), j
        while span > 1:  # fold the fields in halves: their OR lands in the lowest
            span = span + 1 >> 1
            singles |= singles >> w * span
        restriction = singles & low
        # an empty field meets nothing, so one test covers both faults
        if (diffs & restriction * ones) + fill & guard != guard:
            raise ValueError("repeated facet" if diffs + fill & guard != guard
                             else f"facet order is not a shelling at facet {j + 1}")
        counts[restriction.bit_count()] += 1
        packed, ones = packed | f << w * j, ones | 1 << w * j
    return tuple(counts[:max((i + 1 for i, hi in enumerate(counts) if hi), default=0)])


def h_by_complex(c: OddCycleComposition) -> tuple[int, ...]:
    """h-vector of the initial complex from the closed-form shelling."""
    return shelling_h_vector(facets_closed_form(c).facets)


def hilbert_from_h(h: tuple[int, ...], dim: int, d: int) -> int:
    """Degree-d Hilbert function of a ring with Hilbert series h(t) / (1-t)^dim.

    The coefficient of t^d in h(t) / (1-t)^dim is
    sum_i h_i * C(d - i + dim - 1, dim - 1) over i <= min(d, deg h): terms
    with i > d vanish, and so do those with i > deg h, where h_i = 0.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return sum(hi * comb(d - i + dim - 1, dim - 1) for i, hi in enumerate(h[:d + 1]))


def f_vector(cx: SimplicialComplex) -> FVector:
    """Count faces of each cardinality by enumerating facet subsets, deduplicated.

    Exponential in the facet size; the reference that the shelling route is
    tested against, not a route of its own.
    """
    seen: set[int] = set()
    for mask in cx.facets:
        sub = mask
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    top = max((f.bit_count() for f in seen), default=0)
    counts = [0] * (top + 1)
    for f in seen:
        counts[f.bit_count()] += 1
    return FVector(counts=tuple(counts))


def h_from_f(fv: FVector, d: int) -> tuple[int, ...]:
    """Hilbert series numerator over (1-t)^d: sum of counts[i] * t^i * (1-t)^(d-i).

    Its t^k coefficient is h_k = sum_i f_i * (-1)^(k-i) * C(d-i, k-i); the
    h-vector comes back as a tuple with no trailing zero.
    """
    if d < fv.max_cardinality:
        raise ValueError("dimension mismatch")
    h = [sum((-1) ** (k - i) * fi * comb(d - i, k - i) for i, fi in enumerate(fv.counts[:k + 1]))
         for k in range(d + 1)]
    return tuple(h[:max((i + 1 for i, hi in enumerate(h) if hi), default=0)])


class DecompositionReport(Record):
    """Outcome of the two-edge extension decomposition check."""

    __slots__ = ("union_ok", "intersection_ok")

    def __init__(self, union_ok: bool, intersection_ok: bool) -> None:
        _set(self, "union_ok", union_ok)
        _set(self, "intersection_ok", intersection_ok)

    @property
    def ok(self) -> bool:
        return self.union_ok and self.intersection_ok


def _intersection_ok(cone: set[int], join: set[int], x: int) -> bool:
    """True iff the sets a - {x} have one size and are the maximal a & b (a in cone, b in join).

    Sets are bitmasks and x is an element.  With x in no b, each a & b lies
    in a - {x}; sets a - {x} of one size form an antichain, so they are the
    maximal ones iff each is an a & b, that is iff each e = a - {x} lies in
    some b.  In a bouquet's families the b that holds e is e plus one
    element, so e plus each element of the ground set is looked up in join
    first, and join is scanned for a superset of e only when none hits.
    """
    xbit = 1 << x
    expected = {a & ~xbit for a in cone}
    singles = [1 << v for v in bits(reduce(or_, cone | join, 0))]
    return (not reduce(or_, join, 0) & xbit and len({e.bit_count() for e in expected}) == 1
            and all(not join.isdisjoint(map(e.__or__, singles)) or any(not e & ~b for b in join)
                    for e in expected))


def verify_decomposition(c: OddCycleComposition, cx: SimplicialComplex) -> DecompositionReport:
    """Check that growing cycle 1 by two edges splits the complex cx of the
    bouquet c, its closed-form complex, as expected.

    Write the bouquet as an extension of the bouquet with cycle 1 two edges
    shorter.  Its complex must be the union of two families:

    * cone family: facets of the shorter bouquet joined with the two new
      edges x = x_{1,2k_1+1} and y = x_{1,2k_1};
    * join family: facets of the bouquet with cycle 1 deleted, joined with
      all of cycle 1 except x.

    The intersection of the two families (as complexes) must be exactly the
    shorter bouquet's facets coned with y alone.
    """
    k = c.k
    if k[0] < 2:
        raise ValueError("cycle 1 not extendable; choose an ordering with k1 >= 2")
    n = c.n
    k1 = k[0]
    x = c.flat_index(1, 2 * k1 + 1)
    y = c.flat_index(1, 2 * k1)

    target = set(cx.facets)

    # the shorter cycle 1 ends just below y, and every later edge moves up by two
    shorter = build_from_k((k1 - 1,) + k[1:])
    low = (1 << y) - 1
    cone_family = {
        (f & low) | (f & ~low) << 2 | 1 << x | 1 << y
        for f in facets_closed_form(shorter).facets
    }

    cycle1 = cycle_parts(c, 1)
    rest_of_cycle1 = (cycle1.odd & ~(1 << x)) | cycle1.even
    if n >= 2:
        dropped = build_from_k(k[1:])
        shift = c.flat_index(2, 1)
        join_family = {f << shift | rest_of_cycle1 for f in facets_closed_form(dropped).facets}
        # both families consist of full-size facets, so demand exact equality
        union_ok = (cone_family | join_family) == target
    else:
        # no remaining cycles: the join facet is cycle 1 minus x, inside the cone facet
        join_family = {rest_of_cycle1}
        union_ok = cone_family == target and any(rest_of_cycle1 & ~g == 0 for g in cone_family)

    return DecompositionReport(union_ok, _intersection_ok(cone_family, join_family, x))
