"""Rewritten oracles and certificates against the straightforward code they replaced.

facets_brute_force is a pruned include/exclude search that carries its
pruning masks down, the edge subring Hilbert series is counted branch by
branch at the hub (binomial counts of each hub path's degree runs, then a
DP over the branches that shifts whole runs), s_pair_reduces_to_zero
divides packed-int monomials by a basis packed once per list and
memoises each term's first divisor, standard_monomial_series is a
recursion over bitmask supports memoised across degrees and pruned by the
degree left, h_from_f sums binomials, and
the decomposition's intersection check is a subset test.  The references
here are the plain versions: a scan over all 2^E subsets and the search
that tests the supports with any(...) at every node, breadth-first
searches over whole-graph exponent tuples and over whole levels of
whole-graph packed ints, the hub split of any graph at any vertex with
each branch's vectors listed and a DP over degree masks, division on dicts
of Monomial objects ordered by grlex_cmp, the unmemoised recursion over
frozenset supports, the f-to-h transform by polynomial powers, and the
decomposition check by maximal pairwise intersections.  Apart from the
two facet searches, which share the bitmask supports, the references hold
squarefree sets as frozensets and meet the bitmask results only at the
comparison.
"""

import math
import random
import sys
import types
from functools import cmp_to_key
from itertools import combinations, permutations, product

import pytest

from oddbouquet import srcomplex, toric
from oddbouquet.certify import sweep_compositions
from oddbouquet.composition import CycleParts, LabeledGraph, bits, build_from_k, cycle_parts, labeled_graph
from oddbouquet.polyarith import ONE_MINUS_T, T, IntPoly
from oddbouquet.ringinv import h_closed_form
from oddbouquet.srcomplex import (
    DecompositionReport,
    FVector,
    f_from_h,
    facets_brute_force,
    h_from_f,
    verify_decomposition,
)
from oddbouquet.toric import (
    MONOMIAL_ONE,
    Binomial,
    Monomial,
    _PackedBasis,
    _hub_series,
    _minkowski,
    _packer,
    _path_tally,
    edge_subring_hilbert,
    edge_subring_hilbert_series,
    generators,
    grlex_cmp,
    initial_monomials,
    leading_monomial,
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


def _members(mask):
    """The frozenset of the bit positions set in mask."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _facet_sets(cx):
    """The facets of a complex as a set of frozensets."""
    return {_members(f) for f in cx.facets}


def _scan_facets(monomials, ground_size):
    """All subsets as bitmasks; faces contain no support, facets extend to none."""
    supports = [sum(1 << v for v, _ in m.exps) for m in monomials]
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
    edge_vecs = [vertex_exponent_vector(Monomial.squarefree([i]), g) for i in range(c.edge_count)]
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


def _plain_facet_search(monomials, ground_size):
    """The include/exclude search that tests the supports through v with
    any(...) at every node and the blocked vertices at every leaf."""
    supports = [m.support for m in monomials]
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
    element, now and then the monomial 1."""
    pool, supports = range(ground_size + 2), []
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.03:
            supports.append(MONOMIAL_ONE)
        else:
            size = rng.choice((1, 1, 2, 2, 3, 4))
            supports.append(Monomial.squarefree(rng.sample(pool, min(size, len(pool)))))
    return supports


def test_orders_cover_the_small_bouquets():
    assert len(ORDERS) == 36
    assert max(build_from_k(order).edge_count for order in ORDERS) == 14


def test_facet_search_matches_scan_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        inits = initial_monomials(c)
        brute = facets_brute_force(inits, c.edge_count)
        assert len(brute.facets) == len(_facet_sets(brute)), order
        assert _facet_sets(brute) == _scan_facets(inits, c.edge_count), order


@pytest.mark.parametrize("monomials, ground_size", [
    ([], 0),
    ([], 4),
    ([Monomial.squarefree([2])], 4),
    ([Monomial.squarefree([0])], 1),
    ([MONOMIAL_ONE], 0),
    ([MONOMIAL_ONE], 3),
    ([Monomial.squarefree([0, 1]), MONOMIAL_ONE], 3),
    ([Monomial.squarefree([0, 1]), Monomial.squarefree([1, 2]), Monomial.squarefree([0, 2])], 3),
    # the leaf {2} (0 and 1 excluded) is a face but not maximal
    ([Monomial.squarefree([0, 1]), Monomial.squarefree([1, 2])], 3),
    ([Monomial.squarefree([0, 5])], 3),  # a support reaching past the ground set
])
def test_facet_search_matches_scan_by_hand(monomials, ground_size):
    brute = facets_brute_force(monomials, ground_size)
    assert len(brute.facets) == len(_facet_sets(brute))
    assert _facet_sets(brute) == _scan_facets(monomials, ground_size)


def _brute_facets(monomials, ground_size):
    return facets_brute_force(monomials, ground_size).facets


def _traced(search, monomials, ground_size):
    """The facet tuple search returns and the number of calls it makes to
    its nested function named search, one per node of its search tree."""
    nodes = 0

    def tally(frame, event, arg):
        nonlocal nodes
        nodes += event == "call" and frame.f_code.co_name == "search"

    sys.setprofile(tally)
    try:
        facets = search(monomials, ground_size)
    finally:
        sys.setprofile(None)
    return facets, nodes


def _same_search(monomials, ground_size):
    """The facet tuple and node count of the search, equal to the plain one's."""
    traced = _traced(_brute_facets, monomials, ground_size)
    assert traced == _traced(_plain_facet_search, monomials, ground_size), (monomials, ground_size)
    return traced


def test_facet_search_matches_plain_search_in_order_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        _same_search(initial_monomials(c), c.edge_count)


def test_facet_search_matches_plain_search_in_order_on_the_sweep():
    searchable = [c for c in sweep_compositions(5, 8) if c.edge_count <= srcomplex.ORACLE_CAP]
    assert len(searchable) == 44
    assert sum(_same_search(initial_monomials(c), c.edge_count)[1] for c in searchable) == 7119


def test_facet_search_matches_plain_search_in_order_on_random_families():
    rng = random.Random(14)
    for _ in range(2000):
        ground_size = rng.randint(0, 10)
        _same_search(_random_supports(rng, ground_size), ground_size)


def test_facet_search_empty_ground_and_constant_monomial():
    # the empty set is the one facet on no vertices, unless the monomial 1
    # (empty support) excludes every set, the empty one too
    assert facets_brute_force([], 0).facets == (0,)
    assert facets_brute_force([MONOMIAL_ONE], 0).facets == ()
    assert facets_brute_force([MONOMIAL_ONE, Monomial.squarefree([1])], 2).facets == ()


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
    return LabeledGraph(n_vertices, tuple((1, j) for j in range(len(endpoints))), tuple(endpoints))


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


def test_hub_split_matches_full_levels_on_graphs_at_every_vertex():
    for g, d in [*((g, 5) for g in SHAPED_GRAPHS), *_random_graphs(300)]:
        expected = _full_level_series(g.endpoints, d)
        for hub in range(g.n_vertices):
            assert _listing_hub_series(g, d, hub) == expected, (g.endpoints, d, hub)


def _glued_cycles(lengths, rng):
    """Cycles of the given lengths (2 is a double edge) glued at one vertex,
    with the vertex labels, the edge order and each edge's ends shuffled.
    Returns the graph and its glue vertex."""
    endpoints, nv = [], 1
    for length in lengths:
        ring = [0, *range(nv, nv + length - 1), 0]
        endpoints += list(zip(ring, ring[1:]))
        nv += length - 1
    label = rng.sample(range(nv), nv)
    endpoints = [(label[a], label[b])[::rng.choice((1, -1))] for a, b in endpoints]
    rng.shuffle(endpoints)
    return _graph(nv, endpoints), label[0]


def test_hub_split_of_glued_cycles_matches_full_levels():
    rng = random.Random(1)
    for _ in range(200):
        lengths = [rng.randint(2, 7) for _ in range(rng.randint(1, 4))]
        while sum(lengths) - len(lengths) > 11:
            lengths.pop()
        g, hub = _glued_cycles(lengths, rng)
        d = rng.randint(0, 5)
        assert _hub_series(g, d, hub) == _full_level_series(g.endpoints, d), (g.endpoints, d, hub)


@pytest.mark.parametrize("endpoints", [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],  # a pentagon with a chord
    [(0, 1), (1, 2), (2, 0), (2, 3)],  # a triangle with a pendant edge
    [(0, 1), (1, 2), (2, 0), (0, 3)],  # a pendant edge at the hub
    [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (2, 4)],  # two triangles joined off the hub
    [(0, 1), (1, 2), (2, 0), (0, 0)],  # a loop at the hub
])
def test_hub_split_rejects_a_branch_that_is_not_a_hub_path(endpoints):
    g = _graph(1 + max(v for e in endpoints for v in e), endpoints)
    with pytest.raises(ValueError, match="not a path from the hub back to the hub"):
        _hub_series(g, 3, 0)


def test_edgeless_graph_has_only_the_constants():
    for d in range(6):
        assert _hub_series(_graph(3, []), d, 0) == [1] + [0] * d


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


# ------------------------------------------------------------------ toric certificates

_GRLEX_KEY = cmp_to_key(grlex_cmp)


def _as_poly(b):
    return {b.plus: 1, b.minus: -1}


def _s_polynomial(f, g):
    fp, gp = _as_poly(f), _as_poly(g)
    lf, lg = leading_monomial(f), leading_monomial(g)
    lcm = lf.lcm(lg)
    uf, ug = lcm.quotient(lf), lcm.quotient(lg)
    out = {}
    # leading coefficients are +-1, so dividing by them is multiplying by them
    for m, cm in fp.items():
        key = m.mul(uf)
        out[key] = out.get(key, 0) + cm * fp[lf]
    for m, cm in gp.items():
        key = m.mul(ug)
        out[key] = out.get(key, 0) - cm * gp[lg]
    return {m: cv for m, cv in out.items() if cv}


def dict_s_pair_reduces_to_zero(f, g, basis, max_steps=10_000):
    """Division on dicts of Monomial objects; the lead is the grlex_cmp maximum."""
    prepared = [(leading_monomial(h), _as_poly(h)) for h in basis]
    work = _s_polynomial(f, g)
    remainder = {}
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


def _frozenset_standard_count(c, d, monomials=None):
    """The unmemoised recursion over frozenset supports."""
    nvars = c.edge_count
    supports = tuple(frozenset(i for i, _ in m.exps)
                     for m in (initial_monomials(c) if monomials is None else monomials))
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


def assert_same_division(f, g, basis):
    """Same result and same step count; raising at one step fewer for both."""
    result, steps = _steps(dict_s_pair_reduces_to_zero, f, g, basis)
    assert s_pair_reduces_to_zero(f, g, basis, max_steps=steps) is result
    if steps:
        with pytest.raises(RuntimeError, match="reduction did not terminate"):
            s_pair_reduces_to_zero(f, g, basis, max_steps=steps - 1)
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
    total_steps = 0
    for order in PAIR_ORDERS:
        basis = generators(build_from_k(order))
        for f, g in product(basis, repeat=2):
            result, steps = assert_same_division(f, g, basis)
            assert result, (order, f, g)
            total_steps += steps
    assert total_steps > 0  # some pairs need division, not just the product criterion


def test_packed_division_matches_dicts_incomplete_bases():
    nonzero = 0
    for order in PAIR_ORDERS:
        gens = generators(build_from_k(order))
        for drop in range(len(gens)):
            basis = gens[:drop] + gens[drop + 1:]
            for f, g in combinations(gens, 2):  # f or g may be the dropped generator
                result, _ = assert_same_division(f, g, basis)
                nonzero += not result
    assert nonzero > 0


def test_packed_division_matches_dicts_on_the_worked_incomplete_basis():
    g01, g02, _ = generators(build_from_k([1, 1, 1]))
    assert assert_same_division(g01, g02, [g01, g02])[0] is False
    assert assert_same_division(g02, g01, [g02, g01])[0] is False


def _random_monomial(rng, nvars, max_exp):
    return Monomial.from_map({i: rng.randint(0, max_exp) for i in rng.sample(range(nvars), rng.randint(0, nvars))})


def _random_binomial(rng, nvars, max_exp):
    while True:
        a, b = _random_monomial(rng, nvars, max_exp), _random_monomial(rng, nvars, max_exp)
        if a != b:
            return Binomial(a, b)


def test_packed_division_matches_dicts_on_random_binomials():
    # non-homogeneous parts, exponents up to 3, f and g mostly outside the basis
    rng = random.Random(4)
    nonzero = reducing = 0
    for _ in range(300):
        nvars = rng.randint(1, 6)
        basis = [_random_binomial(rng, nvars, 3) for _ in range(rng.randint(0, 5))]
        pool = basis + [_random_binomial(rng, nvars + rng.randint(0, 2), 3) for _ in range(2)]
        f, g = rng.choice(pool), rng.choice(pool)
        result, steps = assert_same_division(f, g, basis)
        nonzero += not result
        reducing += steps > 0
    assert nonzero > 0 and reducing > 0


def test_packed_division_holds_exponents_above_the_basis_degree():
    # the S-polynomial term x1^4 x2 has an exponent above every basis degree
    # (3), which only fields sized for twice that degree hold; x2 then divides it
    f = Binomial(Monomial.from_map({0: 3}), Monomial.from_map({1: 2, 2: 1}))
    g = Binomial(Monomial.from_map({0: 1, 1: 2}), Monomial.from_map({3: 3}))
    h = Binomial(Monomial.from_map({2: 1}), Monomial.from_map({3: 1}))
    assert assert_same_division(f, g, [f, g, h]) == (False, 1)


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
    return Binomial(Monomial(b.plus.exps), Monomial(b.minus.exps))


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


def test_division_memo_matches_dicts_on_a_wide_basis():
    # 28 generators on 18 edges: the memo is filled and read across all 378 pairs
    gens = generators(build_from_k((2, 2, 1, 1, 1, 1, 1, 1)))
    assert len(gens) == 28
    for f, g in combinations(gens, 2):
        assert assert_same_division(f, g, gens)[0]
    # with one generator dropped, some terms have no divisor: the memo keeps
    # None for them and some S-pairs leave a nonzero remainder
    basis = gens[1:]
    nonzero = sum(not assert_same_division(f, g, basis)[0] for f, g in combinations(gens, 2))
    assert nonzero > 0
    assert toric._PACKED.basis == basis and None in toric._PACKED.first.values()


def test_division_memo_key_clips_exponents_at_the_basis_cap():
    # basis parts reach exponent 2, so x0^2 x1, x0^3 x1 and x0^5 x1 share a
    # key (first divisor h1) while x0 x1, equal to them in support, does not
    # (first divisor h2).  Each S-polynomial is t - q with q what the right
    # divisor turns t into, so it reduces to zero in one step; a key on the
    # support alone would divide x0 x1 by h1 and leave a remainder.
    def x(**exps):
        return Monomial.from_map({int(v[1:]): e for v, e in exps.items()})

    h1 = Binomial(x(x0=2, x1=1), x(x3=1, x4=1, x5=1))
    h2 = Binomial(x(x1=1), x(x5=1))
    basis = [h1, h2]
    top = x(x6=7)  # the lead of every f and g below, so one packing serves all
    reductions = [
        (x(x0=5, x1=1), x(x0=3, x3=1, x4=1, x5=1)),
        (x(x0=3, x1=1), x(x0=1, x3=1, x4=1, x5=1)),
        (x(x0=1, x1=1), x(x0=1, x5=1)),
        (x(x0=2, x1=1), x(x3=1, x4=1, x5=1)),
    ]
    pairs = [(Binomial(t, top), Binomial(q, top)) for t, q in reductions]
    s_pair_reduces_to_zero(*pairs[0], basis)  # a fresh packing, for degree 7
    pb = toric._PACKED
    for f, g in pairs:
        assert assert_same_division(f, g, basis) == (True, 1)
        assert assert_same_division(g, f, basis) == (True, 1)
        assert toric._PACKED is pb
    pack = pb.pack

    def key(m):
        return sum((pack(m) + c) & pb.guard for c in pb.clips)

    terms = [t for t, _ in reductions]
    assert key(terms[0]) == key(terms[1]) == key(terms[3]) != key(terms[2])
    assert pb.first[key(terms[0])] == pb.lead_tail(h1)
    assert pb.first[key(terms[2])] == pb.lead_tail(h2)


def _monomial_up_to(rng, nvars, deg):
    exps = [0] * nvars
    for _ in range(rng.randint(0, deg)):
        exps[rng.randrange(nvars)] += 1
    return Monomial.from_map(dict(enumerate(exps)))


def test_packed_lcm_matches_monomial_lcm():
    # monomials of degree <= deg, zero exponents included; the lcm of x_i^deg
    # and x_j^deg has degree 2 deg, the most the fields are sized for
    rng = random.Random(11)
    for deg, nvars in product(range(7), range(8)):
        packed = _PackedBasis((), deg, nvars)
        pack = packed.pack
        monomials = [MONOMIAL_ONE] + [Monomial.from_map({i: deg}) for i in range(nvars)]
        monomials += [_monomial_up_to(rng, nvars, deg) for _ in range(12 if nvars else 0)]
        for a, b in product(monomials, repeat=2):
            assert packed.lcm(pack(a), pack(b)) == pack(a.lcm(b)), (deg, nvars, a, b)


def test_packed_order_divisibility_and_product_agree_with_monomials():
    rng = random.Random(7)
    for _ in range(2000):
        nvars = rng.randint(1, 7)
        max_exp = rng.choice([1, 2, 5])
        a, b = _random_monomial(rng, nvars, max_exp), _random_monomial(rng, nvars, max_exp)
        pack, guard = _packer(a.degree + b.degree, nvars)
        pa, pb = pack(a), pack(b)
        assert (pa > pb) - (pa < pb) == grlex_cmp(a, b), (a, b)
        assert (not (pb - pa) & guard) == a.divides(b), (a, b)
        assert (not (pa - pb) & guard) == b.divides(a), (a, b)
        assert pa + pb == pack(a.mul(b)), (a, b)


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
        inits = initial_monomials(c)
        assert standard_monomial_series(c, 5, inits) == [
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
        monomials = [Monomial.squarefree(rng.sample(range(nvars), size)) for size in sizes]
        if rng.random() < 0.1:
            monomials.append(MONOMIAL_ONE)
        rng.shuffle(monomials)
        expected = [_frozenset_standard_count(c, d, monomials) for d in range(8)]
        assert standard_monomial_series(c, 7, monomials) == expected, (c.k, monomials)


def test_standard_series_counts_the_monomials_it_is_given():
    # a proper subset of the generators, in reverse order, and the monomial 1
    c = build_from_k((2, 1, 1))
    inits = initial_monomials(c)[::-1][:2]
    assert standard_monomial_series(c, 4, inits) == [
        _frozenset_standard_count(c, d, inits) for d in range(5)]
    assert standard_monomial_series(c, 3, [MONOMIAL_ONE]) == [0, 0, 0, 0]
    with pytest.raises(ValueError, match="nonnegative"):
        standard_monomial_series(c, -1, inits)


# ------------------------------------------------------------------ f-to-h and decomposition

# every bouquet with n <= 4 and N <= 8
SMALL = sweep_compositions(4, 8)


def _power_h_from_f(fv, d):
    """Sum of counts[i] * t^i * (1-t)^(d-i) by polynomial powers."""
    acc = IntPoly(())
    for i, fi in enumerate(fv.counts):
        if fi:
            acc = acc + IntPoly((fi,)) * (T ** i) * (ONE_MINUS_T ** (d - i))
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
    return DecompositionReport(
        union_ok=union_ok,
        intersection_ok=_maximal(pairwise) == {f - {x} for f in cone},
        facet_count=len(target),
        cone_family_size=len(cone),
        join_family_size=len(join),
    )


def test_decomposition_matches_maximal_sets():
    checked = [c for c in SMALL if c.k[0] >= 2]
    assert len(checked) == 48
    for c in checked:
        rep = verify_decomposition(c)
        assert rep.ok and rep == _maximal_decomposition(c), c.k


def test_intersection_subset_test_matches_maximal_sets_on_random_families():
    # for cone facets through x, the subset test holds iff the maximal
    # intersections are the cone facets minus x and those have one size
    rng = random.Random(5)
    x = 0
    agree = {True: 0, False: 0}
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
        result = srcomplex._intersection_ok(
            {sum(1 << v for v in a) for a in cone}, {sum(1 << v for v in b) for b in join}, x)
        assert result == reference, (cone, join)
        agree[result] += 1
    assert min(agree.values()) > 100


def _intersection_oks(c):
    """intersection_ok of verify_decomposition and of the maximal-set reference."""
    return verify_decomposition(c).intersection_ok, _maximal_decomposition(c).intersection_ok


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
    assert not verify_decomposition(c).union_ok
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
