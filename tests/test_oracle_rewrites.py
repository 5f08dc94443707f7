"""Rewritten oracles and certificates against the straightforward code they replaced.

facets_brute_force lists the complements of the supports' minimal
transversals by an MMCS search, the edge subring Hilbert series is
counted branch by branch at the hub (binomial counts of each hub path's
degree runs, then one convolution of the runs' low ends and one of their
high ends),
s_pair_reduces_to_zero settles a pair of basis elements whose leads share
no variable by Buchberger's first criterion and divides every other pair,
on packed-int monomials, by a basis packed once per list, finding each
term's first divisor through runs of leads that share a variable,
standard_monomial_series sums the face numbers of the Stanley-Reisner
complex, counted by a recursion over bitmask supports that branches only
at live variables, h_from_f sums
binomials, the shelling check tests a set against a family packed into
one int, a field per facet, the decomposition's intersection check looks
each set plus one element up in a set of facets, and sweep_compositions
builds the descending k-tuples in the order verify prints them.
The references here are the plain versions: a scan over all 2^E subsets
and the include/exclude search that decides every edge on every path and
tests the supports with any(...) at every node,
breadth-first searches over whole-graph exponent tuples and over whole
levels of whole-graph packed ints, the hub split of any graph at any
vertex with each branch's vectors listed and a DP over degree masks,
division on dicts of exponent tuples in graded lex order and the first
divisor by a scan of the basis in order (a pair the criterion settles must
be True at zero steps, and its S-polynomial, as -f with g, is divided by
both; Buchberger's verdict over all pairs of a basis must be the dicts'), the
unmemoised recursion over frozenset supports, the f-to-h transform by
polynomial powers, the decomposition check by maximal pairwise
intersections, and the per-pair loops that the packed checks replaced:
_pairwise_shelling_h_vector lists every difference F_j - G,
_pairwise_intersection_ok makes one subset test per (a - {x}, b) pair,
and _sorted_sweep lists every k-prefix and sorts the list.
The two kernels the Hilbert series were summed by before are kept as
references too: the DP over sets of reachable degrees that shifts whole
runs (_minkowski), and the recursion memoised on (variable, degree left,
live supports).  Apart from the two facet searches and the
degree memo, which take the bitmask supports, the references hold
squarefree sets as frozensets and meet the bitmask results only at the
comparison.  The h closed form, the recursion and e~ run on coefficient
lists and are checked against the same steps in the reference polynomial
arithmetic below, on coefficient tuples, since the package has none; the
closed-form facets, built from prefix and suffix products of one-edge
drops, against one reduce over a product tuple per facet.
"""

import math
import random
import sys
import types
from functools import cache, reduce
from itertools import accumulate, combinations, permutations, product, zip_longest
from operator import or_
from unittest.mock import patch

import pytest

from oddbouquet import srcomplex, toric
from oddbouquet.certify import sweep_compositions, verify_composition
from oddbouquet.cli import SweepRange
from oddbouquet.composition import CycleParts, LabeledGraph, bits, build_from_k, cycle_parts, labeled_graph
from oddbouquet.ringinv import GorensteinReport, classify, cm_type, e_tilde_from_h, h_closed_form, h_recursive
from oddbouquet.srcomplex import (
    DecompositionReport,
    FVector,
    facets_brute_force,
    h_from_f,
    verify_decomposition,
)
from oddbouquet.toric import (
    Binomial,
    Monomial,
    _PackedBasis,
    _hub_branches,
    _hub_counts,
    _path_ends,
    _run_counts,
    _standard_counts,
    edge_subring_hilbert,
    edge_subring_hilbert_series,
    generators,
    grlex_cmp,
    s_pair_reduces_to_zero,
    standard_monomial_count,
    standard_monomial_series,
    vertex_exponent_vector,
)

# every cycle order of every bouquet with at most 14 edges
ORDERS = sorted({
    order
    for c in sweep_compositions(7, 7)
    if c.edge_count <= 14
    for order in permutations(c.k)
})


# The reference polynomial arithmetic takes coefficient tuples, index i
# holding the coefficient of t^i, and returns them with trailing zeros trimmed.


def _trimmed(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_mul(a, b):
    """Schoolbook product."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _trimmed(out)


def poly_add(a, b):
    return _trimmed(x + y for x, y in zip_longest(a, b, fillvalue=0))


def poly_sub(a, b):
    return _trimmed(x - y for x, y in zip_longest(a, b, fillvalue=0))


def poly_reverse(a, s):
    """t^s * a(1/t): coefficient i is a's coefficient s - i; s must bound deg a."""
    if s < 0 or s < len(_trimmed(a)) - 1:
        raise ValueError("reversal bound too small")
    return _trimmed(a[s - i] if s - i < len(a) else 0 for i in range(s + 1))


def poly_div_one_minus_t(a):
    """a / (1 - t), the partial sums of a's coefficients; a(1) must be 0."""
    if sum(a):
        raise ValueError("not divisible by (1-t)")
    return _trimmed(accumulate(a))


MONOMIAL_ONE = Monomial(0)

# The reference arithmetic takes monomials of any exponents as exponent
# tuples ((variable, exponent), ...), variables ascending, exponents >= 1,
# as a Monomial's exps gives them for a squarefree one.


def _exponent_tuple(exps):
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def monomial_mul(a, b):
    out = dict(a)
    for i, e in b:
        out[i] = out.get(i, 0) + e
    return _exponent_tuple(out)


def monomial_divides(a, b):
    """True iff a divides b."""
    it = dict(b)
    return all(it.get(i, 0) >= e for i, e in a)


def monomial_lcm(a, b):
    out = dict(a)
    for i, e in b:
        out[i] = max(out.get(i, 0), e)
    return _exponent_tuple(out)


def monomial_quotient(a, b):
    """a / b; b must divide a."""
    out = dict(a)
    for i, e in b:
        have = out.get(i, 0)
        if have < e:
            raise ValueError("quotient is not a monomial")
        out[i] = have - e
    return _exponent_tuple(out)


def grlex_key(m):
    """Sort key of an exponent tuple in graded lex order, x0 largest: after
    the degree, the first pair that differs decides, and there the smaller
    variable or, for the same variable, the larger exponent wins."""
    return sum(e for _, e in m), tuple((-i, e) for i, e in m)


def _squarefree(indices):
    return Monomial(sum(1 << v for v in set(indices)))


def _plus_supports(c):
    """The initial ideal's supports, from the generators' plus parts."""
    return [g.plus.mask for g in generators(c)]


def _members(mask):
    """The frozenset of the bit positions set in mask."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _facet_sets(cx):
    """The facets of a complex as a set of frozensets."""
    return {_members(f) for f in cx.facets}


def _scan_facets(supports, ground_size):
    """All subsets as bitmasks; faces contain no support, facets extend to none."""
    faces = {mask for mask in range(1 << ground_size)
             if all(mask & s != s for s in supports)}
    return {
        frozenset(v for v in range(ground_size) if mask >> v & 1)
        for mask in faces
        if not any(not mask >> v & 1 and mask | 1 << v in faces for v in range(ground_size))
    }


def _tuple_hilbert(c, d):
    """Breadth-first closure over vertex exponent tuples."""
    g = labeled_graph(c)
    edge_vecs = [vertex_exponent_vector(Monomial(1 << i), g) for i in range(c.edge_count)]
    level = {(0,) * g.n_vertices}
    for _ in range(d):
        level = {tuple(v + e for v, e in zip(vec, evec)) for vec in level for evec in edge_vecs}
    return len(level)


def _full_level_series(endpoints, d):
    """Breadth-first closure over whole-graph vectors packed into ints that
    adds every edge to every vector."""
    w = max(d, 1).bit_length()
    edges = [(1 << w * a) + (1 << w * b) for a, b in endpoints]
    level, series = {0}, [1]
    for _ in range(d):
        level = {v + e for v in level for e in edges}
        series.append(len(level))
    return series


def _plain_facet_search(supports, ground_size):
    """The include/exclude search that tests the supports through v with
    any(...) at every node and the blocked vertices at every leaf."""
    if 0 in supports:
        return ()
    through = [[s for s in supports if s >> v & 1] for v in range(ground_size)]
    facets = []

    def search(v, inside, outside):
        if v == ground_size:
            if all(any(s & ~inside == 1 << u for s in through[u])
                   for u in range(ground_size) if outside >> u & 1):
                facets.append(inside)
            return
        bit = 1 << v
        grown = inside | bit
        if not any(s & ~grown == 0 for s in through[v]):
            search(v + 1, grown, outside)
        if any(s & outside == 0 for s in through[v]):
            search(v + 1, inside, outside | bit)

    search(0, 0, 0)
    return tuple(facets)


def _random_supports(rng, ground_size):
    """A few supports on up to two vertices past the ground set, some of one
    element, now and then the empty one of the monomial 1."""
    pool, supports = range(ground_size + 2), []
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.03:
            supports.append(0)
        else:
            size = rng.choice((1, 1, 2, 2, 3, 4))
            supports.append(_squarefree(rng.sample(pool, min(size, len(pool)))).mask)
    return supports


def test_orders_cover_the_small_bouquets():
    assert len(ORDERS) == 36
    assert max(build_from_k(order).edge_count for order in ORDERS) == 14


def test_facet_search_matches_scan_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        supports = _plus_supports(c)
        brute = facets_brute_force(supports, c.edge_count)
        assert len(brute.facets) == len(_facet_sets(brute)), order
        assert _facet_sets(brute) == _scan_facets(supports, c.edge_count), order


@pytest.mark.parametrize("monomials, ground_size", [
    ([], 0),
    ([], 4),
    ([_squarefree([2])], 4),
    ([_squarefree([0])], 1),
    ([MONOMIAL_ONE], 0),
    ([MONOMIAL_ONE], 3),
    ([_squarefree([0, 1]), MONOMIAL_ONE], 3),
    ([_squarefree([0, 1]), _squarefree([1, 2]), _squarefree([0, 2])], 3),
    # the leaf {2} (0 and 1 excluded) is a face but not maximal
    ([_squarefree([0, 1]), _squarefree([1, 2])], 3),
    ([_squarefree([0, 5])], 3),  # a support reaching past the ground set
])
def test_facet_search_matches_scan_by_hand(monomials, ground_size):
    supports = [m.mask for m in monomials]
    brute = facets_brute_force(supports, ground_size)
    assert len(brute.facets) == len(_facet_sets(brute))
    assert _facet_sets(brute) == _scan_facets(supports, ground_size)


def _brute_facets(supports, ground_size):
    return facets_brute_force(supports, ground_size).facets


def _calls(name, fn, *args):
    """fn(*args) and the number of calls it makes to functions named name."""
    calls = 0

    def tally(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == name

    sys.setprofile(tally)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _traced(search, supports, ground_size):
    """The facet tuple search returns and the number of calls it makes to
    its nested function named search, one per node of its search tree."""
    return _calls("search", search, supports, ground_size)


def _same_facets(supports, ground_size):
    """The search's node count, after checking that its facets have no
    duplicates and, sorted, equal the plain search's."""
    facets, nodes = _traced(_brute_facets, supports, ground_size)
    assert len(set(facets)) == len(facets), (supports, ground_size)
    assert sorted(facets) == sorted(_plain_facet_search(supports, ground_size)), (supports, ground_size)
    return nodes


def test_facet_search_matches_plain_search_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        _same_facets(_plus_supports(c), c.edge_count)


def test_facet_search_matches_plain_search_on_the_sweep():
    # 602 facets: the plain search decides all E edges on every path, while
    # MMCS chooses only the n - 1 edges that a facet leaves out
    searchable = [c for c in sweep_compositions(5, 8) if c.edge_count <= srcomplex.ORACLE_CAP]
    assert len(searchable) == 44
    assert sum(len(_brute_facets(_plus_supports(c), c.edge_count)) for c in searchable) == 602
    assert sum(_same_facets(_plus_supports(c), c.edge_count) for c in searchable) == 856
    assert sum(_traced(_plain_facet_search, _plus_supports(c), c.edge_count)[1] for c in searchable) == 7119


def test_facet_search_matches_plain_search_on_random_families():
    rng = random.Random(14)
    for _ in range(2000):
        ground_size = rng.randint(0, 10)
        _same_facets(_random_supports(rng, ground_size), ground_size)


@pytest.mark.parametrize("supports, ground_size, facets", [
    # a support past the ground set lies in no subset of it: dropped
    ([0b1001], 3, [0b111]),
    ([0b0011, 0b1100], 3, [0b101, 0b110]),
    # a duplicate changes nothing, though both copies are critical to one vertex
    ([0b011, 0b011], 3, [0b101, 0b110]),
    ([0b011, 0b110, 0b011, 0b110], 3, [0b010, 0b101]),
    # a singleton leaves its vertex out of every facet, and a support
    # through it is met already
    ([0b001, 0b100], 3, [0b010]),
    ([0b001, 0b011], 3, [0b110]),
    ([0b010, 0b011, 0b110], 3, [0b101]),
    # the empty support of the monomial 1 lies in every set: no facets
    ([0], 3, []),
    ([0b100, 0], 2, []),
    # no supports: the ground set is the one facet
    ([], 4, [0b1111]),
    ([0b10000], 4, [0b1111]),
])
def test_facet_search_edge_cases(supports, ground_size, facets):
    assert sorted(_brute_facets(supports, ground_size)) == facets
    assert {_members(f) for f in facets} == _scan_facets(supports, ground_size)


def test_facet_search_empty_ground_and_constant_monomial():
    # the empty set is the one facet on no vertices, unless the monomial 1
    # (empty support) excludes every set, the empty one too
    assert facets_brute_force([], 0).facets == (0,)
    assert facets_brute_force([0], 0).facets == ()
    assert facets_brute_force([0, 0b10], 2).facets == ()


def test_packed_hilbert_matches_tuples_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        for d in (0, 1, 3, 4):
            assert edge_subring_hilbert(c, d) == _tuple_hilbert(c, d), (order, d)


@pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1), (1, 2)])
def test_packed_hilbert_matches_tuples_across_bit_widths(k):
    # w = bit_length(max(d, 1)) is 1, 1, 2, 3, 3, 4 at these degrees
    c = build_from_k(k)
    for d in (0, 1, 3, 4, 7, 8):
        assert edge_subring_hilbert(c, d) == _tuple_hilbert(c, d), (k, d)


def _series(c, d):
    return _full_level_series(labeled_graph(c).endpoints, d)


def test_hilbert_series_matches_full_levels_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        series = edge_subring_hilbert_series(c, 6)
        assert series == _series(c, 6), order
        assert [edge_subring_hilbert(c, d) for d in range(4)] == series[:4], order


@pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1), (1, 2)])
def test_hilbert_series_matches_full_levels_across_bit_widths(k):
    c = build_from_k(k)
    for d in range(9):
        assert edge_subring_hilbert_series(c, d) == _series(c, d), (k, d)


def test_hub_split_matches_full_levels_every_order_of_the_sweep():
    # reordering the cycles gives an isomorphic graph, so one reference serves all orders
    for c in sweep_compositions(5, 8):
        expected = _series(c, 4)
        for order in set(permutations(c.k)):
            for d in range(5):
                assert edge_subring_hilbert_series(build_from_k(order), d) == expected[:d + 1], (order, d)


@pytest.mark.parametrize("k", [(3, 2, 1), (2, 2, 2), (2, 2, 2, 1), (1, 1, 1, 1)])
def test_hub_split_matches_full_levels_to_degree_seven(k):
    c = build_from_k(k)
    expected = _series(c, 7)
    for d in range(8):
        assert edge_subring_hilbert_series(c, d) == expected[:d + 1], d


def _graph(n_vertices, endpoints):
    return LabeledGraph(n_vertices, tuple(endpoints))


def _random_graphs(count, seed=0):
    """Simple graphs on at most 8 vertices, with edges kept at a random density."""
    rng = random.Random(seed)
    for _ in range(count):
        nv, keep = rng.randint(1, 8), rng.random()
        yield _graph(nv, [e for e in combinations(range(nv), 2) if rng.random() < keep]), rng.randint(0, 5)


SHAPED_GRAPHS = [
    _graph(5, []),  # edgeless
    _graph(8, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (7, 4), (4, 6)]),  # disconnected, isolated 3
    _graph(4, list(combinations(range(4), 2))),  # K4: no cut vertex
    _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),  # a pentagon with a chord
    _graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (4, 5), (5, 6)]),  # a bow tie with a tail
]


def _mask_tally(edges, d):
    """For each degree mask D, the number of vectors u whose degree-0..d
    occurrences as sums of the packed edge vectors are the degrees in D,
    found by listing every vector.

    Level t maps each degree-t vector v to m(v), the least largest edge
    index of an edge multiset with image v.  Edge j is added only where
    m(v) <= j: no vector is missed, as dropping the largest edge e of a
    multiset leaves an image with m <= e.  Edges run last to first, so the
    least j reaching a vector is its m.
    """
    level, seen = {0: 0}, {0: 1}
    for t in range(1, d + 1):
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
        again = level.keys() & seen.keys()
        seen.update(dict.fromkeys(level.keys() - again, 1 << t))
        for v in again:
            seen[v] |= 1 << t
    tally = {}
    for mask in seen.values():
        tally[mask] = tally.get(mask, 0) + 1
    return tally


def _mask_minkowski(states, tally, d):
    """One branch step of the hub DP on degree masks: each counted set S and
    each counted mask M give the union of S << t over t in M, cut at d."""
    full, out = (1 << d + 1) - 1, {}
    shifts = [(bits(mask), k) for mask, k in tally.items()]
    for s, n in states.items():
        for ts, k in shifts:
            reach = 0
            for t in ts:
                reach |= s << t
            reach &= full
            out[reach] = out.get(reach, 0) + n * k
    return out


def _run_masks(runs):
    """A tally of runs (t, m) as a tally of the degree masks [t, t + m]."""
    return {(1 << m + 1) - 1 << t: k for (t, m), k in runs.items()}


def _path_tally(L, d):
    """For each run (t, m), the number of vectors u on the inner vertices of
    a hub-to-hub path with L >= 2 edges whose degrees of occurrence up to d
    are the interval [t, t + m]: the binomial tally the run DP was fed.

    Take the a with odd positions of minimum 0, its sum t and the minimum m
    of its even positions.  For L = 2k + 1, D(u) = [t, t + m], cut at d, and
    C(s + 2k, 2k) - C(s + k - 1, 2k) of the u with sum t have m >= m0,
    s = t - k*m0.  For L = 2k, D(u) = {t}, for C(t + L - 1, L - 1) -
    C(t + k - 1, L - 1) u's.
    """
    k = L // 2

    def comb(n, r):
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


def _run_ends(runs, d):
    """A tally of runs (t, m), t + m <= d, as its counts of low and high ends."""
    lo, hi = [0] * (d + 1), [0] * (d + 1)
    for (t, m), n in runs.items():
        lo[t] += n
        hi[t + m] += n
    return lo, hi


def _minkowski(states, runs, d):
    """One branch step of the run DP the hub counts were first summed by:
    each counted set S of reachable degrees and each counted run (t, m) give
    the union of S << t' over t' in [t, t + m], truncated at d, counted by
    the product of the two counts.  Per S, spread[m] = S | S << 1 | ... |
    S << m serves every run."""
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


def _minkowski_run_counts(tallies, d):
    """The run DP: each set of degrees a tuple of runs reaches, truncated at
    d, mapped to its number of tuples; HF(t) sums the sets that hold t."""
    states = {1: 1}
    for runs in tallies:
        states = _minkowski(states, runs, d)
    return [sum(n for s, n in states.items() if s >> t & 1) for t in range(d + 1)]


def _minkowski_hub_counts(lengths, d):
    return _minkowski_run_counts([_path_tally(L, d) for L in lengths], d)


def _listing_hub_series(g, d, hub):
    """The hub split of any graph at any vertex: each component of g - hub,
    with the edges that join it to the hub, gives the listed tally of its
    degree masks (hub coordinate dropped), and the DP combines them.
    Coordinates are packed w = bit_length(max(d, 1)) bits per branch vertex,
    so sums never carry."""
    parent = list(range(g.n_vertices))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in g.endpoints:
        if hub not in (a, b):
            parent[root(a)] = root(b)
    branches = {}
    for a, b in g.endpoints:
        branches.setdefault(root(b if a == hub else a), []).append((a, b))
    w, states = max(d, 1).bit_length(), {1: 1}
    for ends in branches.values():
        slot = {v: w * i for i, v in enumerate(sorted({v for e in ends for v in e} - {hub}))}
        edges = [sum(1 << slot[v] for v in e if v != hub) for e in ends]
        states = _mask_minkowski(states, _mask_tally(edges, d), d)
    return [sum(n for s, n in states.items() if s >> t & 1) for t in range(d + 1)]


def _path_edges(length, d):
    """The edges of a hub-to-hub path with the given number of edges, packed
    as _listing_hub_series packs them, hub coordinate dropped."""
    w = max(d, 1).bit_length()
    return [sum(1 << w * (v - 1) for v in (j, j + 1) if 0 < v < length) for j in range(length)]


def test_path_tally_matches_the_listing():
    for length in range(2, 16):
        for d in range(9):
            expected = _mask_tally(_path_edges(length, d), d)
            assert _run_masks(_path_tally(length, d)) == expected, (length, d)


def test_path_ends_match_the_listing():
    # listed to degree d + 1, every run that ends at d or below shows its end
    for length in range(2, 16):
        for d in range(8):
            lo, hi = [0] * (d + 1), [0] * (d + 1)
            for mask, n in _mask_tally(_path_edges(length, d + 1), d + 1).items():
                low, high = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
                if low <= d:
                    lo[low] += n
                if high <= d:
                    hi[high] += n
            assert _path_ends(length, d) == (lo, hi), (length, d)


def test_hub_split_matches_full_levels_on_graphs_at_every_vertex():
    for g, d in [*((g, 5) for g in SHAPED_GRAPHS), *_random_graphs(300)]:
        expected = _full_level_series(g.endpoints, d)
        for hub in range(g.n_vertices):
            assert _listing_hub_series(g, d, hub) == expected, (g.endpoints, d, hub)


def _glued_cycles(lengths, rng):
    """Cycles of the given lengths (2 is a double edge) glued at one vertex,
    with the vertex labels, the edge order and each edge's ends shuffled.
    The glue vertex has the largest degree, or all vertices have degree 2."""
    endpoints, nv = [], 1
    for length in lengths:
        ring = [0, *range(nv, nv + length - 1), 0]
        endpoints += list(zip(ring, ring[1:]))
        nv += length - 1
    label = rng.sample(range(nv), nv)
    endpoints = [(label[a], label[b])[::rng.choice((1, -1))] for a, b in endpoints]
    rng.shuffle(endpoints)
    return _graph(nv, endpoints)


def test_hub_split_of_glued_cycles_matches_full_levels():
    rng = random.Random(1)
    for _ in range(200):
        lengths = [rng.randint(2, 7) for _ in range(rng.randint(1, 4))]
        while sum(lengths) - len(lengths) > 11:
            lengths.pop()
        g = _glued_cycles(lengths, rng)
        d = rng.randint(0, 5)
        assert _hub_counts(_hub_branches(g), d) == _full_level_series(g.endpoints, d), (g.endpoints, d)


@pytest.mark.parametrize("endpoints", [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],  # a pentagon with a chord
    [(0, 1), (1, 2), (2, 0), (2, 3)],  # a triangle with a pendant edge
    [(0, 1), (1, 2), (2, 0), (0, 3)],  # a pendant edge at the hub
    [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (2, 4)],  # two triangles joined off the hub
    [(0, 1), (1, 2), (2, 0), (0, 0)],  # a loop at the hub
    [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],  # a triangle apart from the hub
])
def test_hub_split_rejects_a_branch_that_is_not_a_hub_path(endpoints):
    g = _graph(1 + max(v for e in endpoints for v in e), endpoints)
    with pytest.raises(ValueError, match="not a path from the hub back to the hub"):
        _hub_branches(g)


def test_edgeless_graph_has_only_the_constants():
    for d in range(6):
        assert _hub_counts(_hub_branches(_graph(3, [])), d) == [1] + [0] * d


def test_minkowski_step_shifts_truncates_and_multiplies():
    # {0, 1} + [1, 2] = {1, 2, 3}, cut to {1, 2} at d = 2; {0, 1} + [0, 0] = {0, 1}
    assert _minkowski({0b11: 2}, {(1, 1): 3, (0, 0): 5}, 2) == {0b110: 6, 0b11: 10}
    # two reachable-degree sets that meet one run in the same set add up
    assert _minkowski({0b1: 1, 0b11: 4}, {(0, 1): 1}, 1) == {0b11: 5}


def test_minkowski_runs_match_masks_on_random_interval_tallies():
    rng = random.Random(13)
    for _ in range(500):
        d = rng.randint(0, 9)
        full = (1 << d + 1) - 1
        states = {rng.randint(1, full): rng.randint(1, 9) for _ in range(rng.randint(1, 6))}
        runs = {}
        for _ in range(rng.randint(0, 6)):
            t = rng.randint(0, d)
            runs[t, rng.randint(0, d - t)] = rng.randint(1, 9)
        expected = _mask_minkowski(states, _run_masks(runs), d)
        assert _minkowski(states, runs, d) == expected, (states, runs, d)


def test_run_ends_count_the_runs_by_hand():
    # runs [0, 1] (twice) and [1, 1], then [0, 0] and [1, 2], at d = 3:
    # sums [0, 1] x2, [1, 3] x2, [1, 1] and [2, 3]
    ends = [([2, 1, 0, 0], [0, 3, 0, 0]), ([1, 1, 0, 0], [1, 0, 1, 0])]
    assert ends == [_run_ends({(0, 1): 2, (1, 0): 1}, 3), _run_ends({(0, 0): 1, (1, 1): 1}, 3)]
    assert _run_counts(ends, 3) == [2, 5, 3, 3]
    assert _run_counts([], 2) == [1, 0, 0]
    assert _run_counts([([0, 0, 0], [0, 0, 0])], 2) == [0, 0, 0]


def test_run_ends_match_the_run_dp_on_every_order_of_the_sweep():
    for c in sweep_compositions(5, 8):
        V = c.vertex_count
        for order in set(permutations(c.k)):
            lengths = _hub_branches(labeled_graph(build_from_k(order)))
            assert sorted(lengths) == sorted(2 * k + 1 for k in order), order
            expected = _minkowski_hub_counts(lengths, V)
            for d in range(V + 1):
                assert _hub_counts(lengths, d) == expected[:d + 1], (order, d)


def test_run_ends_match_the_run_dp_on_random_path_lengths():
    # even lengths (double edges at the hub for 2), and no branch at all
    rng = random.Random(21)
    for _ in range(150):
        lengths = [rng.randint(2, 9) for _ in range(rng.randint(0, 5))]
        top = min(1 + sum(L - 1 for L in lengths), 20)  # V, at most 20
        expected = _minkowski_hub_counts(lengths, top)
        for d in range(top + 1):
            assert _hub_counts(lengths, d) == expected[:d + 1], (lengths, d)


# ------------------------------------------------------------------ toric certificates

def _as_poly(b):
    return {b.plus.exps: 1, b.minus.exps: -1}


def _lead(poly):
    return max(poly, key=grlex_key)


def _s_polynomial(f, g):
    fp, gp = _as_poly(f), _as_poly(g)
    lf, lg = _lead(fp), _lead(gp)
    lcm = monomial_lcm(lf, lg)
    uf, ug = monomial_quotient(lcm, lf), monomial_quotient(lcm, lg)
    out = {}
    # leading coefficients are +-1, so dividing by them is multiplying by them
    for m, cm in fp.items():
        key = monomial_mul(m, uf)
        out[key] = out.get(key, 0) + cm * fp[lf]
    for m, cm in gp.items():
        key = monomial_mul(m, ug)
        out[key] = out.get(key, 0) - cm * gp[lg]
    return {m: cv for m, cv in out.items() if cv}


def dict_s_pair_reduces_to_zero(f, g, basis, max_steps=10_000, leads=None):
    """Division on dicts keyed by exponent tuples; the lead is the grlex_key
    maximum.  Each lead the walk meets is appended to leads if given."""
    prepared = [(_lead(hp), hp) for hp in map(_as_poly, basis)]
    work = _s_polynomial(f, g)
    remainder = {}
    steps = 0
    while work:
        lead = _lead(work)
        if leads is not None:
            leads.append(lead)
        c = work[lead]
        for lm, hp in prepared:
            if monomial_divides(lm, lead):
                steps += 1
                if steps > max_steps:
                    raise RuntimeError("reduction did not terminate")
                u = monomial_quotient(lead, lm)
                factor = c * hp[lm]  # == c / leading coefficient, both signs +-1
                for m, cm in hp.items():
                    key = monomial_mul(m, u)
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


def _frozenset_standard_count(c, d, monomials=None):
    """The unmemoised recursion over frozenset supports."""
    nvars = c.edge_count
    if monomials is None:
        monomials = [g.plus for g in generators(c)]
    supports = tuple(frozenset(i for i, _ in m.exps) for m in monomials)
    if frozenset() in supports:
        return 0  # the monomial 1 divides every monomial

    def count(idx, rem, alive):
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


def _degree_memo_counts(nvars, degrees, supports):
    """The recursion over the variables that the standard counts were first
    summed by, memoised for all the degrees on (variable, degree left, what
    each live support lacks as a bitmask); a support that lacks more
    variables than the degree left leaves the key, and once none is left,
    stars and bars count the rest."""

    def fits(alive, rem):
        return tuple(s for s in alive if s.bit_count() <= rem)

    @cache
    def count(idx, rem, alive):
        if rem == 0:
            return 1
        if idx == nvars:
            return 0
        if not alive:
            return math.comb(nvars - idx + rem - 1, rem)
        bit = 1 << idx
        total = count(idx + 1, rem, tuple(s for s in alive if not s & bit))
        if bit in alive:
            return total
        pos = [s & ~bit for s in alive]
        return total + sum(count(idx + 1, r, fits(pos, r)) for r in range(rem))

    alive = tuple(supports)
    return [0 if 0 in alive else count(0, j, fits(alive, j)) for j in degrees]


def _steps(fn, f, g, basis):
    """fn's result and the smallest max_steps at which it does not raise."""
    hi = 1
    while True:
        try:
            fn(f, g, basis, max_steps=hi)
            break
        except RuntimeError:
            hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            fn(f, g, basis, max_steps=mid)
            hi = mid
        except RuntimeError:
            lo = mid + 1
    return fn(f, g, basis, max_steps=lo), lo


def _settled(f, g, basis):
    """True iff Buchberger's first criterion settles the pair: f and g are
    in the basis, by value, and their leading monomials share no variable."""
    lf, lg = _lead(_as_poly(f)), _lead(_as_poly(g))
    return f in basis and g in basis and not {i for i, _ in lf} & {i for i, _ in lg}


def _negated(b):
    """-b: the same lead and tail, so the same S-polynomials, but no member
    of a basis that holds b and not -b."""
    return Binomial(b.minus, b.plus)


def _capped(f, g, basis, cap):
    """s_pair_reduces_to_zero with its step cap toric.MAX_STEPS set to cap."""
    with patch.object(toric, "MAX_STEPS", cap):
        return s_pair_reduces_to_zero(f, g, basis)


def assert_same_division(f, g, basis):
    """For a pair the criterion settles: True with a step cap of 0, returned
    as (True, 0), and the division of the same S-polynomial, as -f with g,
    checked as below unless -f is in the basis too.  For every other pair:
    the same result and the same step count, and raising at one step fewer,
    for both."""
    if _settled(f, g, basis):
        assert _capped(f, g, basis, 0) is True
        if _negated(f) not in basis:
            assert_same_division(_negated(f), g, basis)
        return True, 0
    result, steps = _steps(dict_s_pair_reduces_to_zero, f, g, basis)
    assert _capped(f, g, basis, steps) is result
    if steps:
        with pytest.raises(RuntimeError, match="reduction did not terminate"):
            _capped(f, g, basis, steps - 1)
    return result, steps


# every cycle order of every bouquet with at most 16 edges and two or more cycles
PAIR_ORDERS = sorted({
    order
    for c in sweep_compositions(8, 8)
    if c.edge_count <= 16 and c.n >= 2
    for order in permutations(c.k)
})


def test_pair_orders_cover_the_bouquets():
    assert len(PAIR_ORDERS) == 57
    assert max(build_from_k(order).edge_count for order in PAIR_ORDERS) == 16


def test_packed_division_matches_dicts_every_pair_every_order():
    total_steps = settled = 0
    for order in PAIR_ORDERS:
        basis = generators(build_from_k(order))
        for f, g in product(basis, repeat=2):
            result, steps = assert_same_division(f, g, basis)
            assert result, (order, f, g)
            total_steps += steps
            settled += _settled(f, g, basis)
    assert total_steps > 0  # some pairs need division, not just the product criterion
    assert settled > 0


def test_packed_division_matches_dicts_incomplete_bases():
    nonzero = settled = 0
    for order in PAIR_ORDERS:
        gens = generators(build_from_k(order))
        for drop in range(len(gens)):
            basis = gens[:drop] + gens[drop + 1:]
            for f, g in combinations(gens, 2):  # f or g may be the dropped generator
                result, _ = assert_same_division(f, g, basis)
                nonzero += not result
                settled += _settled(f, g, basis)
    assert nonzero > 0 and settled > 0


def test_packed_division_matches_dicts_on_the_worked_incomplete_basis():
    g01, g02, _ = generators(build_from_k([1, 1, 1]))
    assert assert_same_division(g01, g02, [g01, g02])[0] is False
    assert assert_same_division(g02, g01, [g02, g01])[0] is False


def _random_binomial(rng, nvars):
    while True:
        a, b = Monomial(rng.getrandbits(nvars)), Monomial(rng.getrandbits(nvars))
        if a != b:
            return Binomial(a, b)


def _meets_a_square(f, g, basis):
    """True iff the reference division of f and g meets a term with a squared variable."""
    leads = []
    dict_s_pair_reduces_to_zero(f, g, basis, leads=leads)
    return any(e > 1 for lead in leads for _, e in lead)


def test_packed_division_matches_dicts_on_random_binomials():
    # non-homogeneous parts, f and g mostly outside the basis
    rng = random.Random(4)
    nonzero = reducing = squares = settled = 0
    for _ in range(300):
        nvars = rng.randint(1, 6)
        basis = [_random_binomial(rng, nvars) for _ in range(rng.randint(0, 5))]
        pool = basis + [_random_binomial(rng, nvars + rng.randint(0, 2)) for _ in range(2)]
        f, g = rng.choice(pool), rng.choice(pool)
        result, steps = assert_same_division(f, g, basis)
        nonzero += not result
        reducing += steps > 0
        settled += _settled(f, g, basis)
        walked = not _settled(f, g, basis) or _negated(f) not in basis  # settled: -f with g walked
        squares += walked and _meets_a_square(f, g, basis)
    assert nonzero > 0 and reducing > 0 and squares > 0 and settled > 0


def test_packed_division_rewrites_a_squared_variable():
    # every part has degree 1, yet the walk meets x2^2: the S-polynomial is
    # x1 x2 - x0 x2, f takes x0 x2 to x2^2, h and g take x1 x2 to x1 x3 and
    # x2 x3, and h divides x2^2 to x2 x3 as well, where the terms cancel.
    # The leads x0 and x1 of f and g share no variable, so the criterion
    # settles the pair; -f, no member, walks the same S-polynomial.
    f, h, g = (Binomial(_squarefree([i]), _squarefree([j])) for i, j in ((0, 2), (2, 3), (1, 2)))
    assert assert_same_division(f, g, [f, h, g]) == (True, 0)
    assert assert_same_division(_negated(f), g, [f, h, g]) == (True, 4)
    leads = []
    dict_s_pair_reduces_to_zero(_negated(f), g, [f, h, g], leads=leads)
    assert leads == [((0, 1), (2, 1)), ((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 2),)]


def test_packed_division_holds_exponents_above_the_basis_degree():
    # every part has degree at most 3, but hs take x0, x1, x2 and x6 to x9,
    # so the S-polynomial term x0 x1 x2 x6 x7 x8 goes to x7 x8 x9^4, whose
    # exponent 4 only fields sized for twice the largest degree hold.  Its
    # key is new, and the divisibility scan finds x7 in it.  The other term,
    # x3 x4 x5 x8 x11 x12, has no divisor and goes to the remainder first.
    f = Binomial(_squarefree([0, 1, 2]), _squarefree([8, 11, 12]))
    g = Binomial(_squarefree([3, 4, 5]), _squarefree([6, 7, 8]))
    hs = [Binomial(_squarefree([i]), _squarefree([9])) for i in (0, 1, 2, 6)]
    hs.append(Binomial(_squarefree([7]), _squarefree([10])))
    assert assert_same_division(f, g, hs) == (False, 5)
    leads = []
    dict_s_pair_reduces_to_zero(f, g, hs, leads=leads)
    assert ((7, 1), (8, 1), (9, 4)) in leads


def test_division_memo_follows_a_list_mutated_in_place():
    g01, g02, g12 = generators(build_from_k([1, 1, 1]))
    basis = [g01, g02, g12]
    assert s_pair_reduces_to_zero(g01, g02, basis)
    basis.pop()
    assert not s_pair_reduces_to_zero(g01, g02, basis)
    basis.append(g12)
    assert s_pair_reduces_to_zero(g01, g02, basis)
    basis[2] = Binomial(g12.minus, g12.plus)  # same parts, other lead: a new object
    assert s_pair_reduces_to_zero(g01, g02, basis) is dict_s_pair_reduces_to_zero(g01, g02, basis)
    basis[:] = [g12, g02, g01]  # same objects, other order: the first divisor changes
    for f, g in product(basis, repeat=2):
        assert_same_division(f, g, basis)
    # a larger bouquet with the same list object: more variables, higher degrees
    basis[:] = generators(build_from_k([4, 3, 1]))
    for f, g in combinations(basis, 2):
        assert_same_division(f, g, basis)
    # f and g of higher degree than the basis it just packed
    big = generators(build_from_k([6, 5, 4]))
    assert_same_division(big[0], big[1], basis)
    assert_same_division(basis[0], basis[1], basis)


def test_division_repacks_members_of_a_smaller_basis():
    # f and g packed as members of a (1, 1, 1) basis, then divided by a
    # (4, 3, 1) basis with wider fields: a stale packed lead must not pass
    small = generators(build_from_k([1, 1, 1]))
    large = generators(build_from_k([4, 3, 1]))
    for f, g in product(small, repeat=2):
        assert s_pair_reduces_to_zero(f, g, small)
        assert_same_division(f, g, large)
        assert_same_division(f, large[-1], large)
        assert_same_division(f, g, large + small)
        assert_same_division(f, g, small)


def _copy(b):
    return Binomial(Monomial(b.plus.mask), Monomial(b.minus.mask))


def test_division_matches_dicts_on_copies_of_members():
    # value-equal binomials that are not the basis objects, as f and g and as the basis
    for order in [(1, 1, 1), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1)]:
        basis = generators(build_from_k(order))
        copies = [_copy(b) for b in basis]
        for f, g in product(range(len(basis)), repeat=2):
            assert assert_same_division(copies[f], copies[g], basis)[0], order
            assert assert_same_division(basis[f], copies[g], basis)[0], order
            assert assert_same_division(basis[f], basis[g], copies)[0], order
    g01, g02, _ = generators(build_from_k([1, 1, 1]))
    assert assert_same_division(_copy(g01), _copy(g02), [g01, g02])[0] is False


def _all_pairs(fn, basis):
    """Buchberger's verdict: fn is True on every pair of distinct positions."""
    return all(fn(f, g, basis) for f, g in combinations(basis, 2))


def test_all_pairs_verdict_matches_dicts_every_order():
    for order in PAIR_ORDERS:
        basis = generators(build_from_k(order))
        assert _all_pairs(s_pair_reduces_to_zero, basis) is _all_pairs(dict_s_pair_reduces_to_zero, basis) is True


def test_all_pairs_verdict_matches_dicts_with_a_generator_dropped():
    # every basis with one generator dropped, and with its elements copied:
    # a copy of a member gets the member's answer, pair by pair, also where
    # the criterion answers True and division leaves a nonzero remainder
    failing = changed = 0
    for order in PAIR_ORDERS:
        gens = generators(build_from_k(order))
        for drop in range(len(gens)):
            basis = gens[:drop] + gens[drop + 1:]
            verdict = _all_pairs(s_pair_reduces_to_zero, basis)
            assert verdict is _all_pairs(dict_s_pair_reduces_to_zero, basis), (order, drop)
            failing += not verdict
            for f, g in combinations(basis, 2):
                answer = s_pair_reduces_to_zero(f, g, basis)
                assert s_pair_reduces_to_zero(_copy(f), _copy(g), basis) is answer
                assert s_pair_reduces_to_zero(f, g, [*map(_copy, basis)]) is answer
                changed += answer and not dict_s_pair_reduces_to_zero(f, g, basis)
    assert failing > 0 and changed > 0


def test_criterion_settles_a_pair_that_division_leaves_nonzero():
    # (1, 1, 1, 1) without the generator of cycles 2 and 3 is no Groebner
    # basis.  The leads of the generators of cycles 1, 2 and of cycles 3, 4
    # lie on disjoint cycles, so their S-polynomial has a standard
    # representation, but division by this basis leaves a nonzero remainder
    gens = generators(build_from_k([1, 1, 1, 1]))
    basis = gens[:3] + gens[4:]
    f, g = gens[0], gens[5]
    assert _settled(f, g, basis) and _steps(dict_s_pair_reduces_to_zero, f, g, basis) == (False, 2)
    assert _capped(f, g, basis, 0) is True
    assert _capped(g, f, basis, 0) is True
    assert _capped(_copy(f), _copy(g), [*map(_copy, basis)], 0) is True
    assert assert_same_division(_negated(f), g, basis) == (False, 2)
    assert assert_same_division(f, g, basis[:-1]) == (False, 2)  # g is no member there
    assert not _all_pairs(s_pair_reduces_to_zero, basis)


def _absent(pb, m):
    """The absent variables of the monomial m in the packed basis pb, as guard bits."""
    return ~(pb.pack(m) + pb.nonzero) & pb.guard


def test_division_matches_dicts_on_a_wide_basis():
    # 28 generators on 18 edges: one packed basis serves all 378 pairs,
    # through -f with g for the pairs the criterion settles
    gens = generators(build_from_k((2, 2, 1, 1, 1, 1, 1, 1)))
    assert len(gens) == 28
    for f, g in combinations(gens, 2):
        assert assert_same_division(f, g, gens)[0]
    # with one generator dropped, some terms have no divisor: the dropped
    # lead is one, and some S-pairs leave a nonzero remainder
    basis = gens[1:]
    nonzero = sum(not assert_same_division(f, g, basis)[0] for f, g in combinations(gens, 2))
    assert nonzero > 0
    pb = toric._PACKED
    assert pb.basis == basis and pb.first_divisor(_absent(pb, gens[0].plus)) is None


def test_division_key_ignores_fields_no_lead_uses():
    # x4 is in no lead, so the absent variables of x0 x1 and x0 x1 x4 differ
    # in x4 alone, which blocks no divisor: h1 is found for both.  Each
    # S-polynomial is t - q with q what h1 turns t into.
    h1 = Binomial(_squarefree([0, 1]), _squarefree([5, 6]))
    h2 = Binomial(_squarefree([2]), _squarefree([5]))
    basis = [h1, h2]
    top = _squarefree(range(7, 14))  # the lead of every f and g below
    pairs = [(Binomial(_squarefree([0, 1]), top), Binomial(_squarefree([5, 6]), top)),
             (Binomial(_squarefree([0, 1, 4]), top), Binomial(_squarefree([4, 5, 6]), top))]
    for f, g in pairs:
        assert assert_same_division(f, g, basis) == (True, 1)
        assert assert_same_division(g, f, basis) == (True, 1)
        pb = toric._PACKED  # the packing of basis for this pair of non-members
        absent = [_absent(pb, a.plus) for a, _ in pairs]
        leads = reduce(or_, (vs for _, run in pb.runs for vs, _ in run))
        assert absent[0] & leads == absent[1] & leads and absent[0] ^ absent[1] == pb.fields[4] << pb.width - 1
        assert [pb.first_divisor(key) for key in absent] == [pb.lead_tail(h1)] * 2
        terms = [pb.pack(a.plus) for a, _ in pairs]
        assert (terms[0] + pb.nonzero) & pb.guard != (terms[1] + pb.nonzero) & pb.guard


def test_division_packs_a_value_equal_copy_of_the_basis_once(monkeypatch):
    # a rebuilt generator list equals the packed one by value but is made of
    # other objects: it is packed once, on its first pair, and every later
    # pair is a pair of members, so no f or g is packed on its own
    c = build_from_k((2, 2, 1, 1, 1, 1, 1, 1))
    gens = generators(c)
    assert s_pair_reduces_to_zero(gens[0], gens[1], gens)
    packings = []
    packed = _PackedBasis

    def counted(basis, *bounds):
        packings.append(basis)
        return packed(basis, *bounds)

    monkeypatch.setattr(toric, "_PackedBasis", counted)
    fresh = generators(build_from_k(c.k))
    assert fresh == gens and not any(f is g for f, g in zip(fresh, gens))
    pairs = list(combinations(fresh, 2))
    assert s_pair_reduces_to_zero(*pairs[0], fresh) is dict_s_pair_reduces_to_zero(*pairs[0], fresh)
    assert len(packings) <= 1
    pb = toric._PACKED
    assert all(a is b for a, b in zip(pb.basis, fresh)) and pb.basis is not fresh
    calls = []
    pack = _PackedBasis.pack
    monkeypatch.setattr(_PackedBasis, "pack", lambda self, m: calls.append(m) or pack(self, m))
    for f, g in pairs:
        assert s_pair_reduces_to_zero(f, g, fresh) is dict_s_pair_reduces_to_zero(f, g, fresh)
    assert len(packings) <= 1 and calls == [] and toric._PACKED is pb


def test_verify_packs_each_bouquet_once(monkeypatch):
    # every S-pair of the buchberger column is a pair of members of the
    # bouquet's generator list, so over the default sweep the list of each
    # bouquet with n >= 3 (35 of 59; n <= 2 gives no pair) is packed once,
    # and lead_tail runs once per generator (190), never for an f or g
    packings, lead_tails = [], []

    class Counted(_PackedBasis):
        __slots__ = ()

        def __init__(self, basis, *bounds):
            packings.append(basis)
            super().__init__(basis, *bounds)

        def lead_tail(self, b):
            lead_tails.append(b)
            return super().lead_tail(b)

    monkeypatch.setattr(toric, "_PackedBasis", Counted)
    bouquets = list(sweep_compositions(5, 8))
    assert len(bouquets) == 59
    for c in bouquets:
        assert verify_composition(c, SweepRange(5, 8))["buchberger"] == "ok"
    assert len(packings) == sum(c.n >= 3 for c in bouquets) == 35
    assert len(lead_tails) == sum(math.comb(c.n, 2) for c in bouquets if c.n >= 3) == 190


def test_division_sends_one_term_to_the_remainder_and_reduces_the_other():
    # the S-polynomial is x0 x3 - x1 x2: no lead divides x0 x3, which goes
    # to the remainder, and x1 x2 goes on alone, to x2 x4 by h1 and x4 x5
    # by h2, where no lead divides it either.  With one step fewer allowed,
    # the cap is reached after the remainder is nonzero.
    h1 = Binomial(_squarefree([1]), _squarefree([4]))
    h2 = Binomial(_squarefree([2]), _squarefree([5]))
    top = _squarefree(range(6, 13))
    f, g = Binomial(_squarefree([0, 3]), top), Binomial(_squarefree([1, 2]), top)
    assert assert_same_division(f, g, [h1, h2]) == (False, 2)
    assert assert_same_division(g, f, [h1, h2]) == (False, 2)
    assert assert_same_division(f, g, [h2, h1]) == (False, 2)


def _packed_leads(leads, nvars=8):
    """A basis packed over nvars variables whose leads have the given masks,
    each with its own tail: the constant for a lead's first occurrence, and
    x_{nvars - 1} or the constant once more for a repeat, so that repeated
    leads are told apart by their tails."""
    seen, basis = set(), []
    for lead in leads:
        tail = 1 << nvars - 1 if lead in seen and lead != 1 << nvars - 1 else 0
        seen.add(lead)
        basis.append(Binomial(Monomial(lead), Monomial(tail)))
    return _PackedBasis(basis, nvars, nvars)


def _assert_runs_match_a_scan(pb, nvars=8):
    for mask in range(1 << nvars):
        want = next((pb.lead_tail(b) for b in pb.basis if b.plus.mask & ~mask == 0), None)
        assert pb.first_divisor(_absent(pb, Monomial(mask))) == want, (pb.basis, mask)


def test_run_lookup_matches_a_basis_order_scan():
    # x0 x1, x2 x3 and x0 x4 are runs of one: x0 x4 shares x0 with the lead
    # two back only.  x5 x6, x0 x6, x5 x6, x5 x6 make one run on x6, the
    # repeats of x5 x6 with another tail, after another lead and then next
    # to each other.  x7 stands alone.
    leads = [0b11, 0b1100, 0b10001, 0b1100000, 0b1000001, 0b1100000, 0b1100000, 0b10000000]
    pb = _packed_leads(leads)
    assert [len(run) for _, run in pb.runs] == [1, 1, 1, 4, 1]
    _assert_runs_match_a_scan(pb)
    empty = _PackedBasis((), 8, 8)
    assert empty.runs == [] and empty.first_divisor(0) is None
    _assert_runs_match_a_scan(empty)
    # seeded random bases over 1..8 variables, with leads drawn from a few
    # of them so that long runs, broken runs and repeats all occur
    rng = random.Random(19)
    for _ in range(200):
        nvars = rng.randint(1, 8)
        pool = rng.sample(range(nvars), rng.randint(1, nvars))
        leads = [sum(1 << v for v in rng.sample(pool, rng.randint(1, min(3, len(pool)))))
                 for _ in range(rng.randint(0, 12))]
        pb = _packed_leads(leads, nvars)
        in_runs = [vs for _, run in pb.runs for vs, _ in run]
        assert in_runs == [(pb.lead_tail(b)[0] + pb.nonzero) & pb.guard for b in pb.basis]
        _assert_runs_match_a_scan(pb, nvars)


@pytest.mark.parametrize("k", [(1, 1), (1, 1, 1), (2, 1, 1, 3), (1,) * 7])
def test_bouquet_basis_splits_into_a_run_per_cycle(k):
    gens = generators(build_from_k(k))
    pb = _PackedBasis(gens, *toric._bounds(gens))
    n = len(k)
    assert [len(run) for _, run in pb.runs] == list(range(n - 1, 0, -1))


def _pack(m, width, nvars):
    """The exponent tuple m packed as _PackedBasis packs a monomial, with fields
    width bits wide: the degree on top, then x_0's exponent and so on."""
    return (sum(e for _, e in m) << width * nvars) + sum(e << width * (nvars - 1 - i) for i, e in m)


def _random_exponents(rng, nvars, max_exp):
    return _exponent_tuple({i: rng.randint(0, max_exp) for i in rng.sample(range(nvars), rng.randint(0, nvars))})


def test_packed_lcm_matches_monomial_lcm():
    # the start terms tail * lcm(LT f, LT g) / lead on every pair of
    # squarefree leads over nvars variables, each lead with a seeded random
    # squarefree tail; the fields are sized for degree nvars, the most a part
    # has, and a start term reaches 2 nvars, the most they hold
    rng = random.Random(11)
    for nvars in range(8):
        packed = _PackedBasis((), nvars, nvars)
        w = packed.width
        exps = [Monomial(mask).exps for mask in range(1 << nvars)]
        for lf, lg in product(range(1 << nvars), repeat=2):
            tf, tg = rng.randrange(1 << nvars), rng.randrange(1 << nvars)
            lcm = monomial_lcm(exps[lf], exps[lg])
            want = tuple(_pack(monomial_mul(exps[t], monomial_quotient(lcm, exps[lead])), w, nvars)
                         for lead, t in ((lf, tf), (lg, tg)))
            got = packed.start_terms(*(_pack(exps[m], w, nvars) for m in (lf, tf, lg, tg)))
            assert got == want, (nvars, lf, tf, lg, tg)
    for deg, nvars in product(range(7), range(8)):
        packed = _PackedBasis((), deg, nvars)
        w = packed.width
        for mask in range(1 << nvars):
            assert packed.pack(Monomial(mask)) == _pack(Monomial(mask).exps, w, nvars), (deg, nvars, mask)


def test_packed_order_divisibility_and_product_agree_with_monomials():
    rng = random.Random(7)
    for _ in range(2000):
        nvars = rng.randint(1, 7)
        max_exp = rng.choice([1, 2, 5])
        a, b = _random_exponents(rng, nvars, max_exp), _random_exponents(rng, nvars, max_exp)
        # fields for twice the larger degree hold the product's exponents
        packed = _PackedBasis((), max(sum(e for _, e in m) for m in (a, b)), nvars)
        w, guard = packed.width, packed.guard
        pa, pb = _pack(a, w, nvars), _pack(b, w, nvars)
        assert (pa > pb) - (pa < pb) == (grlex_key(a) > grlex_key(b)) - (grlex_key(a) < grlex_key(b)), (a, b)
        assert (not (pb - pa) & guard) == monomial_divides(a, b), (a, b)
        assert (not (pa - pb) & guard) == monomial_divides(b, a), (a, b)
        assert pa + pb == _pack(monomial_mul(a, b), w, nvars), (a, b)
        if max_exp == 1:
            ma, mb = (Monomial(sum(1 << i for i, _ in m)) for m in (a, b))
            assert (packed.pack(ma), packed.pack(mb)) == (pa, pb), (a, b)
            assert (pa > pb) - (pa < pb) == grlex_cmp(ma, mb), (a, b)


def test_memoised_standard_count_matches_frozensets_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        for d in range(6):
            assert standard_monomial_count(c, d) == _frozenset_standard_count(c, d), (order, d)


@pytest.mark.parametrize("k", [(1,), (4, 3), (2, 2, 1, 1, 1, 1), (3, 1, 1, 1, 1, 1, 1, 1, 1)])
def test_memoised_standard_count_matches_frozensets_deep_and_wide(k):
    c = build_from_k(k)
    for d in (0, 1, 2, 3, 7) if c.n < 6 else (0, 2, 3):
        assert standard_monomial_count(c, d) == _frozenset_standard_count(c, d), (k, d)


def test_standard_series_matches_counts_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        assert standard_monomial_series(c, 5) == [
            standard_monomial_count(c, d) for d in range(6)], order


@pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)])
def test_degree_pruned_count_matches_frozensets_to_degree_seven(k):
    c = build_from_k(k)
    for d in range(8):
        assert standard_monomial_count(c, d) == _frozenset_standard_count(c, d), (k, d)


def test_degree_pruned_series_matches_frozensets_on_random_families():
    # supports longer than the degree, of one element, and now and then empty
    rng = random.Random(16)
    for _ in range(60):
        c = build_from_k(rng.choice([(1,), (2,), (1, 1), (2, 1)]))
        nvars = c.edge_count
        sizes = [min(rng.choice((1, 1, 2, 3, 5, 8, 9)), nvars) for _ in range(rng.randint(0, 5))]
        monomials = [_squarefree(rng.sample(range(nvars), size)) for size in sizes]
        if rng.random() < 0.1:
            monomials.append(MONOMIAL_ONE)
        rng.shuffle(monomials)
        expected = [_frozenset_standard_count(c, d, monomials) for d in range(8)]
        assert _standard_counts(c, range(8), [m.mask for m in monomials]) == expected, (c.k, monomials)


def test_standard_counts_count_the_supports_they_are_given():
    # a proper subset of the generators, in reverse order, and the monomial 1
    c = build_from_k((2, 1, 1))
    inits = [g.plus for g in generators(c)][::-1][:2]
    assert _standard_counts(c, range(5), [m.mask for m in inits]) == [
        _frozenset_standard_count(c, d, inits) for d in range(5)]
    assert _standard_counts(c, range(4), [MONOMIAL_ONE.mask]) == [0, 0, 0, 0]
    with pytest.raises(ValueError, match="nonnegative"):
        _standard_counts(c, [-1], [m.mask for m in inits])
    with pytest.raises(ValueError, match="nonnegative"):
        standard_monomial_series(c, -1)


def test_face_counts_match_the_degree_memo_on_every_order_of_the_sweep():
    for c in sweep_compositions(5, 8):
        V = c.vertex_count
        for order in set(permutations(c.k)):
            supports = [plus for plus, _ in toric._pair_supports(build_from_k(order))]
            expected = _degree_memo_counts(c.edge_count, range(V + 1), supports)
            assert _standard_counts(c, range(V + 1), supports) == expected, order
            for d in range(V + 1):
                assert _standard_counts(c, [d], supports) == expected[d:d + 1], (order, d)


def test_face_counts_branch_only_at_live_variables():
    # the DP branches at the lowest variable of a live support and takes the
    # free variables before it as one binomial power: 424 calls of faces
    # over the 59 bouquets of the 5/8 sweep at d = 4, where a step through
    # every variable made 909
    sweep = sweep_compositions(5, 8)
    assert len(sweep) == 59
    assert sum(_calls("faces", standard_monomial_count, c, 4)[1] for c in sweep) == 424


@pytest.mark.parametrize("k, supports", [
    ((4,), [0b110000, 0b1100000]),  # free runs at the start and at the end
    ((4,), [0b11, 0b110000000]),  # a free run in the middle
    ((4,), [0b100000001, 0b100]),  # the first and last variables, and a one-element support
    ((2, 2), [0b100, 0b11 << 11]),  # a support past the ground set makes no variable live
    ((2, 2), [0b11000 | 1 << 10, 0b10100]),  # one reaching past it from inside the ground set
    ((2, 2), [1 << 12, 1 << 10]),  # only supports past it: every variable is free
    ((3, 1), [0b101, 0b1010, 0b10100000, 0b1000000]),  # live runs broken by free ones
])
def test_face_counts_with_free_runs_match_the_degree_memo(k, supports):
    c = build_from_k(k)
    nvars, V = c.edge_count, c.vertex_count
    expected = _degree_memo_counts(nvars, range(V + 1), supports)
    for d in range(V + 1):
        assert _standard_counts(c, range(d + 1), supports) == expected[:d + 1], d
        assert _standard_counts(c, [d], supports) == expected[d:d + 1], d


def test_face_counts_match_the_degree_memo_on_random_families():
    # one-element supports, supports longer than the degree, supports on two
    # variables past the ground set, the monomial 1 (support 0) and the
    # empty family; from trial 300 on, supports are drawn from a random
    # window of those variables, so that free runs lie before it, after it
    # or both
    rng = random.Random(22)
    for trial in range(500):
        c = build_from_k(rng.choice([(1,), (2,), (1, 1), (2, 1), (3, 1), (1, 1, 1)]))
        nvars, V = c.edge_count, c.vertex_count
        window = range(nvars + 2)
        if trial >= 300:
            lo = rng.randint(0, nvars - 1)
            window = range(lo, rng.randint(lo + 1, nvars + 2))
        sizes = [rng.choice((1, 1, 2, 3, 4, 6, 9)) for _ in range(rng.randint(0, 6) if trial else 0)]
        supports = [sum(1 << v for v in rng.sample(window, min(size, nvars, len(window)))) for size in sizes]
        if rng.random() < 0.05:
            supports.append(0)
        rng.shuffle(supports)
        expected = _degree_memo_counts(nvars, range(V + 1), supports)
        for d in range(V + 1):
            assert _standard_counts(c, range(d + 1), supports) == expected[:d + 1], (c.k, supports, d)


# ------------------------------------------------------------------ f-to-h and decomposition

# every bouquet with n <= 4 and N <= 8
SMALL = sweep_compositions(4, 8)


def f_from_h(h, d):
    """The face counts of a shellable complex with facets of size d: a facet whose
    restriction has r elements adds the C(d - r, i - r) faces of size i above it."""
    return FVector(tuple(sum(hr * math.comb(d - r, i - r) for r, hr in enumerate(h[:i + 1]))
                         for i in range(d + 1)))


def _power_h_from_f(fv, d):
    """Sum of counts[i] * t^i * (1-t)^(d-i) by polynomial powers."""
    acc = ()
    for i, fi in enumerate(fv.counts):
        if fi:
            acc = poly_add(acc, reduce(poly_mul, [(1, -1)] * (d - i), (0,) * i + (fi,)))
    return acc


def test_h_from_f_matches_polynomial_powers():
    for c in SMALL:
        fv = f_from_h(h_closed_form(c), c.vertex_count)
        for d in (c.vertex_count, c.vertex_count + 2):
            assert h_from_f(fv, d) == _power_h_from_f(fv, d), (c.k, d)
    rng = random.Random(3)
    for _ in range(200):
        fv = FVector(tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 6))))
        d = fv.max_cardinality + rng.randint(0, 3)
        assert h_from_f(fv, d) == _power_h_from_f(fv, d), (fv, d)


def _maximal(sets):
    return {s for s in sets if not any(s < t for t in sets)}


def _maximal_decomposition(c):
    """The decomposition check by maximal sets, through the same module names."""
    k, n = c.k, c.n
    x = c.flat_index(1, 2 * k[0] + 1)
    y = c.flat_index(1, 2 * k[0])
    target = _facet_sets(srcomplex.facets_closed_form(c))
    shorter = build_from_k((k[0] - 1,) + k[1:])
    relabel = [c.flat_index(i, j) for (i, j) in shorter.edge_labels]
    cone = {frozenset(relabel[v] for v in f) | {x, y}
            for f in _facet_sets(srcomplex.facets_closed_form(shorter))}
    dropped_facets = [frozenset()]
    if n >= 2:
        dropped = build_from_k(k[1:])
        relabel = [c.flat_index(i + 1, j) for (i, j) in dropped.edge_labels]
        dropped_facets = [frozenset(relabel[v] for v in f)
                          for f in _facet_sets(srcomplex.facets_closed_form(dropped))]
    parts = srcomplex.cycle_parts(c, 1)
    odd, even = _members(parts.odd), _members(parts.even)
    join = {f | (odd - {x}) | even for f in dropped_facets}
    union_ok = (_maximal(cone | join) if n == 1 else cone | join) == target
    pairwise = {a & b for a in cone for b in join}
    return DecompositionReport(union_ok, _maximal(pairwise) == {f - {x} for f in cone})


def test_decomposition_matches_maximal_sets():
    checked = [c for c in SMALL if c.k[0] >= 2]
    assert len(checked) == 48
    for c in checked:
        rep = verify_decomposition(c, srcomplex.facets_closed_form(c))
        assert rep.ok and rep == _maximal_decomposition(c), c.k


def _count_deciders(deciders, cone, join, x):
    """Count the sets e = a - {x} that _intersection_ok tests against join, by what decides each.

    "lookup": some b in join is e or e plus one element; "scan": only a b
    with two or more elements beyond e holds e; "none": no b holds e.
    """
    xbit = 1 << x
    expected = {a & ~xbit for a in cone}
    if any(b & xbit for b in join) or len({e.bit_count() for e in expected}) != 1:
        return
    for e in expected:
        extras = [(b & ~e).bit_count() for b in join if not e & ~b]
        deciders["lookup" if extras and min(extras) <= 1 else "scan" if extras else "none"] += 1


def test_intersection_subset_test_matches_maximal_sets_on_random_families():
    # for cone facets through x, the subset test holds iff the maximal
    # intersections are the cone facets minus x and those have one size
    rng = random.Random(5)
    x = 0
    agree, deciders = {True: 0, False: 0}, {"lookup": 0, "scan": 0, "none": 0}
    for _ in range(3000):
        size = rng.randint(1, 4)
        cone = {frozenset(rng.sample(range(1, 7), size - 1)) | {x}
                for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.3:
            cone.add(frozenset(rng.sample(range(1, 7), size)) | {x})
        join = {frozenset(rng.sample(range(1 - (rng.random() < 0.2), 7), rng.randint(0, 5)))
                for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.5:
            join.add(max(cone, key=sorted) - {x} | {6})
        expected = {a - {x} for a in cone}
        pairwise = {a & b for a in cone for b in join}
        reference = _maximal(pairwise) == expected and len({len(e) for e in expected}) == 1
        cone_masks, join_masks = {sum(1 << v for v in a) for a in cone}, {sum(1 << v for v in b) for b in join}
        result = srcomplex._intersection_ok(cone_masks, join_masks, x)
        assert result == reference, (cone, join)
        agree[result] += 1
        _count_deciders(deciders, cone_masks, join_masks, x)
    assert min(agree.values()) > 100
    assert min(deciders.values()) > 100, deciders


def _intersection_oks(c):
    """intersection_ok of verify_decomposition and of the maximal-set reference."""
    rep = verify_decomposition(c, srcomplex.facets_closed_form(c))
    return rep.intersection_ok, _maximal_decomposition(c).intersection_ok


def _patch_facets(monkeypatch, k, edit):
    """facets_closed_form with the facet tuple of bouquet k passed through edit."""
    original = srcomplex.facets_closed_form

    def patched(comp):
        cx = original(comp)
        if comp.k != k:
            return cx
        return types.SimpleNamespace(facets=edit(cx.facets))

    monkeypatch.setattr(srcomplex, "facets_closed_form", patched)


def _patch_join_facets(monkeypatch, c, extra):
    """Add extra to cycle 1's even part of c, hence to every join facet.

    The bouquet's own facets are computed before the patch.
    """
    own, original = srcomplex.facets_closed_form(c), srcomplex.facets_closed_form
    monkeypatch.setattr(srcomplex, "facets_closed_form",
                        lambda comp: own if comp is c else original(comp))

    def patched(comp, i):
        parts = cycle_parts(comp, i)
        return CycleParts(parts.odd, parts.even | 1 << extra) if comp is c and i == 1 else parts

    monkeypatch.setattr(srcomplex, "cycle_parts", patched)


@pytest.mark.parametrize("k", [(2,), (3, 1), (2, 2, 1)])
def test_decomposition_catches_x_in_a_join_facet(monkeypatch, k):
    c = build_from_k(k)
    _patch_join_facets(monkeypatch, c, c.flat_index(1, 2 * k[0] + 1))
    assert _intersection_oks(c) == (False, False)


@pytest.mark.parametrize("k", [(2,), (4,)])
def test_decomposition_catches_a_join_facet_outside_the_cone(monkeypatch, k):
    # one cycle: the join facet must lie inside the cone facet
    c = build_from_k(k)
    _patch_join_facets(monkeypatch, c, c.edge_count)
    assert not verify_decomposition(c, srcomplex.facets_closed_form(c)).union_ok
    assert not _maximal_decomposition(c).union_ok


@pytest.mark.parametrize("k", [(2, 1), (2, 1, 1), (3, 2, 1)])
def test_decomposition_catches_a_missing_intersection(monkeypatch, k):
    # with a join facet gone, some cone facet minus x is no intersection
    _patch_facets(monkeypatch, k[1:], lambda facets: facets[1:])
    assert _intersection_oks(build_from_k(k)) == (False, False)


@pytest.mark.parametrize("k", [(2,), (2, 1), (3, 1, 1)])
def test_decomposition_catches_expected_sets_of_two_sizes(monkeypatch, k):
    # a cone facet shrunk by one edge also gives a shrunk intersection, so
    # every expected set is still an intersection but one lies in another
    shorter = (k[0] - 1,) + k[1:]
    _patch_facets(monkeypatch, shorter,
                  lambda facets: facets + (facets[0] & facets[0] - 1,))
    assert _intersection_oks(build_from_k(k)) == (False, False)


# ------------------------------------------------------------------ shelling and intersection checks

def _pairwise_shelling_h_vector(masks):
    """The shelling check pair by pair: every difference F_j - G in a list."""
    if len({m.bit_count() for m in masks}) > 1:
        raise ValueError("facets of different sizes: complex is not pure")
    counts = []
    for j, f in enumerate(masks):
        diffs = [f & ~g for g in masks[:j]]
        restriction = 0
        for diff in diffs:
            if not diff:
                raise ValueError("repeated facet")
            if diff & (diff - 1) == 0:
                restriction |= diff
        if not all(diff & restriction for diff in diffs):
            raise ValueError(f"facet order is not a shelling at facet {j + 1}")
        size = restriction.bit_count()
        counts.extend([0] * (size + 1 - len(counts)))
        counts[size] += 1
    return tuple(counts)


def _pairwise_intersection_ok(cone, join, x):
    """The intersection check with one subset test per (a - {x}, b) pair."""
    xbit = 1 << x
    expected = {a & ~xbit for a in cone}
    return (not any(b & xbit for b in join) and len({e.bit_count() for e in expected}) == 1
            and all(any(not e & ~b for b in join) for e in expected))


def _outcome(masks):
    """The h of both shelling checks, or the message of the ValueError each raises."""
    outcomes = []
    for check in (srcomplex.shelling_h_vector, _pairwise_shelling_h_vector):
        try:
            outcomes.append(check(masks))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], masks
    return outcomes[0]


def _kind(outcome):
    return outcome.split(" at facet ")[0] if isinstance(outcome, str) else "shelling"


# every cycle order of every bouquet with n <= 5 and N <= 8
SWEEP_ORDERS = sorted({order for c in sweep_compositions(5, 8) for order in permutations(c.k)})


def test_packed_shelling_matches_pairs_every_order_of_the_sweep():
    assert len(SWEEP_ORDERS) == 218
    for order in SWEEP_ORDERS:
        c = build_from_k(order)
        assert _outcome(list(srcomplex.facets_closed_form(c).facets)) == h_closed_form(c), order


def _edits(rng, facets):
    """facets with two neighbours swapped, a facet repeated at the end, one dropped, all
    shuffled, and all reversed."""
    swapped, dropped, shuffled = list(facets), list(facets), list(facets)
    if len(facets) > 1:
        i = rng.randrange(len(facets) - 1)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    del dropped[rng.randrange(len(facets))]
    rng.shuffle(shuffled)
    return [swapped, [*facets, rng.choice(facets)], dropped, shuffled, facets[::-1]]


def test_packed_shelling_matches_pairs_on_edited_orders():
    rng = random.Random(24)
    kinds = {}
    for order in SWEEP_ORDERS:
        c = build_from_k(order)
        facets = srcomplex.facets_closed_form(c).facets
        for _ in range(3):
            edits = _edits(rng, facets)
            for masks in edits:
                kind = _kind(_outcome(masks))
                kinds[kind] = kinds.get(kind, 0) + 1
        # the closed-form order read backwards is a shelling too, with the same h
        assert _outcome(edits[-1]) == h_closed_form(c), order
    assert sorted(kinds) == ["facet order is not a shelling", "repeated facet", "shelling"]
    assert min(kinds.values()) > 300, kinds


def test_packed_shelling_matches_pairs_on_the_wide_sweep_reordered():
    # the 226 complexes of 6/12, where some span several hundred fields:
    # the closed-form order reversed is a shelling with the same h, and a
    # seeded shuffle gets the same answer or message from both checks
    rng = random.Random(34)
    bouquets = list(sweep_compositions(6, 12))
    assert len(bouquets) == 226
    kinds, widest = {}, 0
    for c in bouquets:
        facets = list(srcomplex.facets_closed_form(c).facets)
        widest = max(widest, len(facets))
        assert _outcome(facets[::-1]) == h_closed_form(c), c.k
        rng.shuffle(facets)
        kind = _kind(_outcome(facets))
        kinds[kind] = kinds.get(kind, 0) + 1
    assert sorted(kinds) == ["facet order is not a shelling", "shelling"] and widest == 665, kinds


def test_packed_shelling_matches_pairs_on_random_families():
    # random facets on at most 8 vertices, of one size or of several
    rng = random.Random(25)
    families = [[], [0], [0, 0], [0b1011], [0b11, 0b11], [0b1, 0b10, 0b100]]
    for _ in range(4000):
        ground = rng.randint(0, 8)
        size = rng.randint(0, ground)
        family = [sum(1 << v for v in rng.sample(range(ground), size)) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.2:
            family.insert(rng.randrange(len(family) + 1), rng.getrandbits(ground))
        families.append(family)
    kinds = {}
    for family in families:
        kind = _kind(_outcome(family))
        kinds[kind] = kinds.get(kind, 0) + 1
    assert len(kinds) == 4 and min(kinds.values()) > 200, kinds


def test_intersection_matches_pairs_on_random_families():
    # an empty join, x inside a join facet, and join facets of several sizes
    rng = random.Random(26)
    agree, deciders = {True: 0, False: 0}, {"lookup": 0, "scan": 0, "none": 0}
    for _ in range(5000):
        ground = rng.randint(1, 8)
        x = rng.randrange(ground)
        xbit = 1 << x
        cone = {rng.getrandbits(ground) | xbit for _ in range(rng.randint(0, 4))}
        join = set() if rng.random() < 0.1 else {
            rng.getrandbits(ground) & ~xbit for _ in range(rng.randint(1, 5))}
        if cone and rng.random() < 0.6:  # a join facet over some cone facet minus x
            join.add(rng.choice(sorted(cone)) & ~xbit | rng.getrandbits(ground) & ~xbit)
        if join and rng.random() < 0.1:
            join.add(join.pop() | xbit)
        result = srcomplex._intersection_ok(cone, join, x)
        assert result == _pairwise_intersection_ok(cone, join, x), (cone, join, x)
        agree[result] += 1
        _count_deciders(deciders, cone, join, x)
    assert min(agree.values()) > 500, agree
    assert min(deciders.values()) > 100, deciders


def test_intersection_matches_pairs_on_the_decomposable_bouquets(monkeypatch):
    # the cone and join families that verify_decomposition builds at n <= 6, N <= 12
    lookups, calls = srcomplex._intersection_ok, []

    def checked(cone, join, x):
        calls.append(len(cone) * len(join))
        result = lookups(cone, join, x)
        assert result == _pairwise_intersection_ok(cone, join, x)
        return result

    monkeypatch.setattr(srcomplex, "_intersection_ok", checked)
    decomposable = [c for c in sweep_compositions(6, 12) if c.k[0] >= 2]
    assert len(decomposable) == 220
    for c in decomposable:
        assert verify_decomposition(c, srcomplex.facets_closed_form(c)).ok, c.k
    assert len(calls) == 220 and max(calls) > 10_000


# ------------------------------------------------------------------ closed forms on coefficient lists

def _poly_h_closed_form(c):
    """The closed form as products and powers of coefficient tuples, one power per cycle length."""
    first = second = (1,)
    for j, rj in enumerate(c.r, start=1):
        first = reduce(poly_mul, [(1,) * (j + 1)] * rj, first)
        second = reduce(poly_mul, [(1,) * j] * rj, second)
    return poly_sub(first, poly_mul((0, 1), second))


def _poly_h_rec(ks, memo):
    """The recursion with t * h + h(dropped) and (1 + t)^n - t on coefficient tuples."""
    chain = []
    while ks not in memo and len(ks) > 1 and ks[0] > 1:
        chain.append(ks)
        ks = tuple(sorted((ks[0] - 1,) + ks[1:], reverse=True))
    h = memo.get(ks)
    if h is None:
        h = memo[ks] = (1,) if len(ks) == 1 else poly_sub(reduce(poly_mul, [(1, 1)] * len(ks)), (0, 1))
    for link in reversed(chain):
        h = memo[link] = poly_add(poly_mul((0, 1), h), _poly_h_rec(link[1:], memo))
    return h


def _poly_h_recursive(c):
    return _poly_h_rec(tuple(sorted(c.k, reverse=True)), {})


def _poly_e_tilde_from_h(h):
    """e~ and h' with the reversal, the difference and the division on coefficient tuples."""
    if h[:1] != (1,) or sum(h) == 0:
        raise ValueError("not an h-polynomial")
    s = len(h) - 1
    h_prime = poly_div_one_minus_t(poly_sub(poly_reverse(h, s), h))
    padded = h_prime + (0,) * (s + 1 - len(h_prime))
    return sum(padded), padded


def _poly_report(c):
    """classify's report from the coefficient-tuple references."""
    h = _poly_h_closed_form(c)
    e_tilde, h_prime = _poly_e_tilde_from_h(h)
    return GorensteinReport(h=h, s=len(h) - 1, cm_type=cm_type(c), e_tilde=e_tilde, h_prime=h_prime,
                            is_gorenstein=poly_reverse(h, len(h) - 1) == h,
                            is_almost_gorenstein=cm_type(c) - 1 == e_tilde)


def _product_facets(c):
    """The closed-form facets with one reduce over a product tuple per facet."""
    n = c.n
    parts = [cycle_parts(c, i) for i in range(1, n + 1)]
    facets = []
    for j in range(1, n + 1):
        fixed = parts[0].even | parts[n - 1].odd
        for i in range(2, j + 1):
            fixed |= parts[i - 1].even
        for i in range(j, n):
            fixed |= parts[i - 1].odd
        trimmed = [p.odd for p in parts[:j - 1]] + [p.even for p in parts[j:]]
        choice_lists = [[part & ~(1 << v) for v in reversed(bits(part))] for part in trimmed]
        facets += [reduce(or_, combo, fixed) for combo in product(*choice_lists)]
    return tuple(facets)


# every bouquet with n <= 7 and N <= 14, cycles in descending order and shuffled
SWEEP_14 = sweep_compositions(7, 14)


def _descending_and_shuffled():
    rng = random.Random(2025)
    for c in SWEEP_14:
        shuffled = list(c.k)
        rng.shuffle(shuffled)
        yield c
        yield build_from_k(shuffled)


def test_closed_forms_match_intpoly_references_on_the_sweep():
    assert len(SWEEP_14) == 432
    shuffled = 0
    for c in _descending_and_shuffled():
        shuffled += list(c.k) != sorted(c.k, reverse=True)
        rep = classify(c)
        assert rep == _poly_report(c), c.k
        assert h_recursive(c) == rep.h == _poly_h_recursive(c), c.k
        assert srcomplex.facets_closed_form(c).facets == _product_facets(c), c.k
    assert shuffled > 300


def test_closed_form_matches_intpoly_on_random_half_lengths():
    rng = random.Random(31)
    for _ in range(300):
        c = build_from_k([rng.randint(1, 30) for _ in range(rng.randint(1, 12))])
        h = h_closed_form(c)
        assert h == _poly_h_closed_form(c), c.k
        assert e_tilde_from_h(h) == _poly_e_tilde_from_h(h), c.k


def test_e_tilde_matches_intpoly_on_random_polynomials():
    # anything with constant term 1 and h(1) != 0 is read; the rest raises
    rng = random.Random(32)
    kinds = {}
    for _ in range(2000):
        p = _trimmed(rng.randint(-3, 3) for _ in range(rng.randint(0, 7)))
        outcomes = []
        for read in (e_tilde_from_h, _poly_e_tilde_from_h):
            try:
                outcomes.append(read(p))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], p
        kinds[type(outcomes[0])] = kinds.get(type(outcomes[0]), 0) + 1
    assert min(kinds.values()) > 100 and len(kinds) == 2, kinds


@pytest.mark.parametrize("k", [(200, 200), (600, 600)])
def test_recursion_matches_intpoly_on_two_long_cycles(k):
    c = build_from_k(k)
    assert h_recursive(c) == _poly_h_recursive(c) == h_closed_form(c)


def _assert_trimmed(h, case):
    assert type(h) is tuple and h and h[-1], (case, h)


def test_h_routes_use_no_intpoly_arithmetic():
    # every producer returns h as a plain tuple that ends in a nonzero entry;
    # untrimmed, a single cycle's closed form, the shelling counts and the
    # f-to-h transform would end in zeros.  The 5/8 sweep holds the single
    # cycles (1,) .. (8,), whose complex is one facet: a full simplex
    for c in sweep_compositions(5, 8):
        cx = srcomplex.facets_closed_form(c)
        for h in (h_closed_form(c), h_recursive(c), srcomplex.h_by_complex(c),
                  srcomplex.shelling_h_vector(cx.facets)):
            _assert_trimmed(h, c.k)
        if c.edge_count <= 16:  # f_vector lists every subset of every facet
            _assert_trimmed(h_from_f(srcomplex.f_vector(cx), c.vertex_count), c.k)
    for ground in (0, 3, 7):
        simplex = srcomplex.SimplicialComplex(ground, ((1 << ground) - 1,))
        for h in (srcomplex.shelling_h_vector(simplex.facets), h_from_f(srcomplex.f_vector(simplex), ground)):
            _assert_trimmed(h, ground)
            assert h == (1,)
    # the closed form and the recursion check each other, so neither may run
    # on a kernel that a fault would share: both compute on plain lists
    cases = SWEEP_14[::7] + [build_from_k(k) for k in [(2, 30, 1), (12, 9, 9, 1, 1), (200, 200)]]
    expected = [(_poly_h_closed_form(c), _poly_h_recursive(c), _poly_report(c)) for c in cases]
    for c, (h, h_rec, report) in zip(cases, expected):
        assert (h_closed_form(c), h_recursive(c), classify(c)) == (h, h_rec, report), c.k


# ------------------------------------------------------------------ the sweep's order

def _sorted_sweep(max_n, max_N):
    """Every descending k-prefix within the budget, listed, then sorted by n, N and k."""
    found = []

    def extend(prefix, budget, cap):
        if prefix:
            found.append(tuple(prefix))
        if len(prefix) == max_n:
            return
        for v in range(min(cap, budget), 0, -1):
            prefix.append(v)
            extend(prefix, budget - v, v)
            prefix.pop()

    extend([], max_N, max_N)
    found.sort(key=lambda ks: (len(ks), sum(ks), ks))
    return found


def test_sweep_matches_the_sorted_prefixes():
    sizes = set()
    for max_n in range(10):
        for max_N in range(19):
            ks = [c.k for c in sweep_compositions(max_n, max_N)]
            assert ks == _sorted_sweep(max_n, max_N), (max_n, max_N)
            sizes.add(len(ks))
    assert max(sizes) == 1409 and 0 in sizes
