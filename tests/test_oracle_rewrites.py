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
one int, a field per facet, and the decomposition's intersection check looks
each set plus one element up in a set of facets.
The references, in reference.py, are the plain versions: a scan over all
2^E subsets and the include/exclude search that decides every edge on
every path and tests the supports with any(...) at every node,
breadth-first searches over whole-graph exponent tuples and over whole
levels of whole-graph packed ints, the hub split of any graph at any
vertex with each branch's vectors listed and a DP over degree masks,
division on dicts of exponent tuples in graded lex order and the first
divisor by a scan of the basis in order (a pair the criterion settles must
be True at zero steps, and its S-polynomial, as -f with g, is divided by
both; Buchberger's verdict over all pairs of a basis must be the dicts'), the
unmemoised recursion over frozenset supports and the recursion memoised on
(variable, degree left, live supports), the f-to-h transform by
polynomial powers, the decomposition check by maximal pairwise
intersections, and the per-pair loops that the packed checks replaced:
pairwise_shelling_h_vector lists every difference F_j - G and
pairwise_intersection_ok makes one subset test per (a - {x}, b) pair.
Apart from the two facet searches and the degree memo, which take the
bitmask supports, the references hold squarefree sets as frozensets and
meet the bitmask results only at the comparison.
"""

import math
import random
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_
from types import SimpleNamespace
from unittest.mock import patch

import pytest

from oddbouquet import srcomplex, toric
from oddbouquet.certify import sweep_compositions, verify_composition
from oddbouquet.cli import SweepRange
from oddbouquet.composition import CycleParts, build_from_k, cycle_parts, labeled_graph
from oddbouquet.ringinv import h_closed_form
from oddbouquet.srcomplex import FVector, facets_brute_force, h_from_f, verify_decomposition
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
)
from reference import (
    MONOMIAL_ONE,
    calls_to,
    criterion_settles,
    degree_memo_counts,
    dict_s_pair_reduces_to_zero,
    every_order,
    exponent_tuple,
    f_from_h,
    facet_sets,
    frozenset_standard_count,
    full_level_series,
    graph,
    grlex_key,
    mask_tally,
    maximal,
    maximal_decomposition,
    members,
    minkowski_hub_counts,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
    negated,
    pack_exponents,
    pairwise_intersection_ok,
    pairwise_shelling_h_vector,
    path_edges,
    plain_facet_search,
    power_h_from_f,
    random_binomial,
    run_ends,
    scan_facets,
    squarefree,
    tuple_hilbert,
)

# every cycle order of every bouquet with at most 14 edges
ORDERS = every_order(c for c in sweep_compositions(7, 7) if c.edge_count <= 14)


# ------------------------------------------------------------------ facet searches

def _plus_supports(c):
    """The initial ideal's supports, from the generators' plus parts."""
    return [g.plus.mask for g in generators(c)]


def _random_supports(rng, ground_size):
    """A few supports on up to two vertices past the ground set, some of one
    element, now and then the empty one of the monomial 1."""
    pool, supports = range(ground_size + 2), []
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.03:
            supports.append(0)
        else:
            size = rng.choice((1, 1, 2, 2, 3, 4))
            supports.append(squarefree(rng.sample(pool, min(size, len(pool)))).mask)
    return supports


def test_orders_cover_the_small_bouquets():
    assert len(ORDERS) == 36
    assert max(build_from_k(order).edge_count for order in ORDERS) == 14


def test_facet_search_matches_scan_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        supports = _plus_supports(c)
        brute = facets_brute_force(supports, c.edge_count)
        assert len(brute.facets) == len(facet_sets(brute)), order
        assert facet_sets(brute) == scan_facets(supports, c.edge_count), order


@pytest.mark.parametrize("monomials, ground_size", [
    ([], 0),
    ([], 4),
    ([squarefree([2])], 4),
    ([squarefree([0])], 1),
    ([MONOMIAL_ONE], 0),
    ([MONOMIAL_ONE], 3),
    ([squarefree([0, 1]), MONOMIAL_ONE], 3),
    ([squarefree([0, 1]), squarefree([1, 2]), squarefree([0, 2])], 3),
    # the leaf {2} (0 and 1 excluded) is a face but not maximal
    ([squarefree([0, 1]), squarefree([1, 2])], 3),
    ([squarefree([0, 5])], 3),  # a support reaching past the ground set
])
def test_facet_search_matches_scan_by_hand(monomials, ground_size):
    supports = [m.mask for m in monomials]
    brute = facets_brute_force(supports, ground_size)
    assert len(brute.facets) == len(facet_sets(brute))
    assert facet_sets(brute) == scan_facets(supports, ground_size)


def _brute_facets(supports, ground_size):
    return facets_brute_force(supports, ground_size).facets


def _traced(search, supports, ground_size):
    """The facet tuple search returns and the number of calls it makes to
    its nested function named search, one per node of its search tree."""
    return calls_to("search", search, supports, ground_size)


def _same_facets(supports, ground_size):
    """The search's node count, after checking that its facets have no
    duplicates and, sorted, equal the plain search's."""
    facets, nodes = _traced(_brute_facets, supports, ground_size)
    assert len(set(facets)) == len(facets), (supports, ground_size)
    assert sorted(facets) == sorted(plain_facet_search(supports, ground_size)), (supports, ground_size)
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
    assert sum(_traced(plain_facet_search, _plus_supports(c), c.edge_count)[1] for c in searchable) == 7119


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
    assert {members(f) for f in facets} == scan_facets(supports, ground_size)


def test_facet_search_empty_ground_and_constant_monomial():
    # the empty set is the one facet on no vertices, unless the monomial 1
    # (empty support) excludes every set, the empty one too
    assert facets_brute_force([], 0).facets == (0,)
    assert facets_brute_force([0], 0).facets == ()
    assert facets_brute_force([0, 0b10], 2).facets == ()


# ------------------------------------------------------------------ Hilbert series

def test_packed_hilbert_matches_tuples_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        for d in (0, 1, 3, 4):
            assert edge_subring_hilbert(c, d) == tuple_hilbert(c, d), (order, d)


@pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1), (1, 2)])
def test_packed_hilbert_matches_tuples_across_bit_widths(k):
    # w = bit_length(max(d, 1)) is 1, 1, 2, 3, 3, 4 at these degrees
    c = build_from_k(k)
    for d in (0, 1, 3, 4, 7, 8):
        assert edge_subring_hilbert(c, d) == tuple_hilbert(c, d), (k, d)


def _series(c, d):
    return full_level_series(labeled_graph(c).endpoints, d)


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


def test_path_ends_match_the_listing():
    # listed to degree d + 1, every run that ends at d or below shows its end
    for length in range(2, 16):
        for d in range(8):
            lo, hi = [0] * (d + 1), [0] * (d + 1)
            for mask, n in mask_tally(path_edges(length, d + 1), d + 1).items():
                low, high = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
                if low <= d:
                    lo[low] += n
                if high <= d:
                    hi[high] += n
            assert _path_ends(length, d) == (lo, hi), (length, d)


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
    return graph(nv, endpoints)


def test_hub_split_of_glued_cycles_matches_full_levels():
    rng = random.Random(1)
    for _ in range(200):
        lengths = [rng.randint(2, 7) for _ in range(rng.randint(1, 4))]
        while sum(lengths) - len(lengths) > 11:
            lengths.pop()
        g = _glued_cycles(lengths, rng)
        d = rng.randint(0, 5)
        assert _hub_counts(_hub_branches(g), d) == full_level_series(g.endpoints, d), (g.endpoints, d)


@pytest.mark.parametrize("endpoints", [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],  # a pentagon with a chord
    [(0, 1), (1, 2), (2, 0), (2, 3)],  # a triangle with a pendant edge
    [(0, 1), (1, 2), (2, 0), (0, 3)],  # a pendant edge at the hub
    [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (2, 4)],  # two triangles joined off the hub
    [(0, 1), (1, 2), (2, 0), (0, 0)],  # a loop at the hub
    [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],  # a triangle apart from the hub
])
def test_hub_split_rejects_a_branch_that_is_not_a_hub_path(endpoints):
    g = graph(1 + max(v for e in endpoints for v in e), endpoints)
    with pytest.raises(ValueError, match="not a path from the hub back to the hub"):
        _hub_branches(g)


def test_edgeless_graph_has_only_the_constants():
    for d in range(6):
        assert _hub_counts(_hub_branches(graph(3, [])), d) == [1] + [0] * d


def test_run_ends_count_the_runs_by_hand():
    # runs [0, 1] (twice) and [1, 1], then [0, 0] and [1, 2], at d = 3:
    # sums [0, 1] x2, [1, 3] x2, [1, 1] and [2, 3]
    ends = [([2, 1, 0, 0], [0, 3, 0, 0]), ([1, 1, 0, 0], [1, 0, 1, 0])]
    assert ends == [run_ends({(0, 1): 2, (1, 0): 1}, 3), run_ends({(0, 0): 1, (1, 1): 1}, 3)]
    assert _run_counts(ends, 3) == [2, 5, 3, 3]
    assert _run_counts([], 2) == [1, 0, 0]
    assert _run_counts([([0, 0, 0], [0, 0, 0])], 2) == [0, 0, 0]


def test_run_ends_match_the_run_dp_on_every_order_of_the_sweep():
    for c in sweep_compositions(5, 8):
        V = c.vertex_count
        for order in set(permutations(c.k)):
            lengths = _hub_branches(labeled_graph(build_from_k(order)))
            assert sorted(lengths) == sorted(2 * k + 1 for k in order), order
            expected = minkowski_hub_counts(lengths, V)
            for d in range(V + 1):
                assert _hub_counts(lengths, d) == expected[:d + 1], (order, d)


def test_run_ends_match_the_run_dp_on_random_path_lengths():
    # even lengths (double edges at the hub for 2), and no branch at all
    rng = random.Random(21)
    for _ in range(150):
        lengths = [rng.randint(2, 9) for _ in range(rng.randint(0, 5))]
        top = min(1 + sum(L - 1 for L in lengths), 20)  # V, at most 20
        expected = minkowski_hub_counts(lengths, top)
        for d in range(top + 1):
            assert _hub_counts(lengths, d) == expected[:d + 1], (lengths, d)


# ------------------------------------------------------------------ toric certificates

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
    if criterion_settles(f, g, basis):
        assert _capped(f, g, basis, 0) is True
        if negated(f) not in basis:
            assert_same_division(negated(f), g, basis)
        return True, 0
    result, steps = _steps(dict_s_pair_reduces_to_zero, f, g, basis)
    assert _capped(f, g, basis, steps) is result
    if steps:
        with pytest.raises(RuntimeError, match="reduction did not terminate"):
            _capped(f, g, basis, steps - 1)
    return result, steps


# every cycle order of every bouquet with at most 16 edges and two or more cycles
PAIR_ORDERS = every_order(c for c in sweep_compositions(8, 8) if c.edge_count <= 16 and c.n >= 2)


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
            settled += criterion_settles(f, g, basis)
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
                settled += criterion_settles(f, g, basis)
    assert nonzero > 0 and settled > 0


def test_packed_division_matches_dicts_on_the_worked_incomplete_basis():
    g01, g02, _ = generators(build_from_k([1, 1, 1]))
    assert assert_same_division(g01, g02, [g01, g02])[0] is False
    assert assert_same_division(g02, g01, [g02, g01])[0] is False


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
        basis = [random_binomial(rng, nvars) for _ in range(rng.randint(0, 5))]
        pool = basis + [random_binomial(rng, nvars + rng.randint(0, 2)) for _ in range(2)]
        f, g = rng.choice(pool), rng.choice(pool)
        result, steps = assert_same_division(f, g, basis)
        nonzero += not result
        reducing += steps > 0
        settled += criterion_settles(f, g, basis)
        walked = not criterion_settles(f, g, basis) or negated(f) not in basis  # settled: -f with g walked
        squares += walked and _meets_a_square(f, g, basis)
    assert nonzero > 0 and reducing > 0 and squares > 0 and settled > 0


def test_packed_division_rewrites_a_squared_variable():
    # every part has degree 1, yet the walk meets x2^2: the S-polynomial is
    # x1 x2 - x0 x2, f takes x0 x2 to x2^2, h and g take x1 x2 to x1 x3 and
    # x2 x3, and h divides x2^2 to x2 x3 as well, where the terms cancel.
    # The leads x0 and x1 of f and g share no variable, so the criterion
    # settles the pair; -f, no member, walks the same S-polynomial.
    f, h, g = (Binomial(squarefree([i]), squarefree([j])) for i, j in ((0, 2), (2, 3), (1, 2)))
    assert assert_same_division(f, g, [f, h, g]) == (True, 0)
    assert assert_same_division(negated(f), g, [f, h, g]) == (True, 4)
    leads = []
    dict_s_pair_reduces_to_zero(negated(f), g, [f, h, g], leads=leads)
    assert leads == [((0, 1), (2, 1)), ((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 2),)]


def test_packed_division_holds_exponents_above_the_basis_degree():
    # every part has degree at most 3, but hs take x0, x1, x2 and x6 to x9,
    # so the S-polynomial term x0 x1 x2 x6 x7 x8 goes to x7 x8 x9^4, whose
    # exponent 4 only fields sized for twice the largest degree hold.  Its
    # key is new, and the divisibility scan finds x7 in it.  The other term,
    # x3 x4 x5 x8 x11 x12, has no divisor and goes to the remainder first.
    f = Binomial(squarefree([0, 1, 2]), squarefree([8, 11, 12]))
    g = Binomial(squarefree([3, 4, 5]), squarefree([6, 7, 8]))
    hs = [Binomial(squarefree([i]), squarefree([9])) for i in (0, 1, 2, 6)]
    hs.append(Binomial(squarefree([7]), squarefree([10])))
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
    assert criterion_settles(f, g, basis) and _steps(dict_s_pair_reduces_to_zero, f, g, basis) == (False, 2)
    assert _capped(f, g, basis, 0) is True
    assert _capped(g, f, basis, 0) is True
    assert _capped(_copy(f), _copy(g), [*map(_copy, basis)], 0) is True
    assert assert_same_division(negated(f), g, basis) == (False, 2)
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
    h1 = Binomial(squarefree([0, 1]), squarefree([5, 6]))
    h2 = Binomial(squarefree([2]), squarefree([5]))
    basis = [h1, h2]
    top = squarefree(range(7, 14))  # the lead of every f and g below
    pairs = [(Binomial(squarefree([0, 1]), top), Binomial(squarefree([5, 6]), top)),
             (Binomial(squarefree([0, 1, 4]), top), Binomial(squarefree([4, 5, 6]), top))]
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
    h1 = Binomial(squarefree([1]), squarefree([4]))
    h2 = Binomial(squarefree([2]), squarefree([5]))
    top = squarefree(range(6, 13))
    f, g = Binomial(squarefree([0, 3]), top), Binomial(squarefree([1, 2]), top)
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


def _random_exponents(rng, nvars, max_exp):
    return exponent_tuple({i: rng.randint(0, max_exp) for i in rng.sample(range(nvars), rng.randint(0, nvars))})


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
            want = tuple(pack_exponents(monomial_mul(exps[t], monomial_quotient(lcm, exps[lead])), w, nvars)
                         for lead, t in ((lf, tf), (lg, tg)))
            got = packed.start_terms(*(pack_exponents(exps[m], w, nvars) for m in (lf, tf, lg, tg)))
            assert got == want, (nvars, lf, tf, lg, tg)
    for deg, nvars in product(range(7), range(8)):
        packed = _PackedBasis((), deg, nvars)
        w = packed.width
        for mask in range(1 << nvars):
            assert packed.pack(Monomial(mask)) == pack_exponents(Monomial(mask).exps, w, nvars), (deg, nvars, mask)


def test_packed_order_divisibility_and_product_agree_with_monomials():
    rng = random.Random(7)
    for _ in range(2000):
        nvars = rng.randint(1, 7)
        max_exp = rng.choice([1, 2, 5])
        a, b = _random_exponents(rng, nvars, max_exp), _random_exponents(rng, nvars, max_exp)
        # fields for twice the larger degree hold the product's exponents
        packed = _PackedBasis((), max(sum(e for _, e in m) for m in (a, b)), nvars)
        w, guard = packed.width, packed.guard
        pa, pb = pack_exponents(a, w, nvars), pack_exponents(b, w, nvars)
        assert (pa > pb) - (pa < pb) == (grlex_key(a) > grlex_key(b)) - (grlex_key(a) < grlex_key(b)), (a, b)
        assert (not (pb - pa) & guard) == monomial_divides(a, b), (a, b)
        assert (not (pa - pb) & guard) == monomial_divides(b, a), (a, b)
        assert pa + pb == pack_exponents(monomial_mul(a, b), w, nvars), (a, b)
        if max_exp == 1:
            ma, mb = (Monomial(sum(1 << i for i, _ in m)) for m in (a, b))
            assert (packed.pack(ma), packed.pack(mb)) == (pa, pb), (a, b)
            assert (pa > pb) - (pa < pb) == grlex_cmp(ma, mb), (a, b)



# ------------------------------------------------------------------ standard monomial counts

def test_memoised_standard_count_matches_frozensets_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        for d in range(6):
            assert standard_monomial_count(c, d) == frozenset_standard_count(c, d), (order, d)


@pytest.mark.parametrize("k", [(1,), (4, 3), (2, 2, 1, 1, 1, 1), (3, 1, 1, 1, 1, 1, 1, 1, 1)])
def test_memoised_standard_count_matches_frozensets_deep_and_wide(k):
    c = build_from_k(k)
    for d in (0, 1, 2, 3, 7) if c.n < 6 else (0, 2, 3):
        assert standard_monomial_count(c, d) == frozenset_standard_count(c, d), (k, d)


def test_standard_series_matches_counts_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        assert standard_monomial_series(c, 5) == [
            standard_monomial_count(c, d) for d in range(6)], order


@pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)])
def test_degree_pruned_count_matches_frozensets_to_degree_seven(k):
    c = build_from_k(k)
    for d in range(8):
        assert standard_monomial_count(c, d) == frozenset_standard_count(c, d), (k, d)


def test_degree_pruned_series_matches_frozensets_on_random_families():
    # supports longer than the degree, of one element, and now and then empty
    rng = random.Random(16)
    for _ in range(60):
        c = build_from_k(rng.choice([(1,), (2,), (1, 1), (2, 1)]))
        nvars = c.edge_count
        sizes = [min(rng.choice((1, 1, 2, 3, 5, 8, 9)), nvars) for _ in range(rng.randint(0, 5))]
        monomials = [squarefree(rng.sample(range(nvars), size)) for size in sizes]
        if rng.random() < 0.1:
            monomials.append(MONOMIAL_ONE)
        rng.shuffle(monomials)
        expected = [frozenset_standard_count(c, d, monomials) for d in range(8)]
        assert _standard_counts(c, range(8), [m.mask for m in monomials]) == expected, (c.k, monomials)


def test_standard_counts_count_the_supports_they_are_given():
    # a proper subset of the generators, in reverse order, and the monomial 1
    c = build_from_k((2, 1, 1))
    inits = [g.plus for g in generators(c)][::-1][:2]
    assert _standard_counts(c, range(5), [m.mask for m in inits]) == [
        frozenset_standard_count(c, d, inits) for d in range(5)]
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
            expected = degree_memo_counts(c.edge_count, range(V + 1), supports)
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
    assert sum(calls_to("faces", standard_monomial_count, c, 4)[1] for c in sweep) == 424


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
    expected = degree_memo_counts(nvars, range(V + 1), supports)
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
        expected = degree_memo_counts(nvars, range(V + 1), supports)
        for d in range(V + 1):
            assert _standard_counts(c, range(d + 1), supports) == expected[:d + 1], (c.k, supports, d)


# ------------------------------------------------------------------ f-to-h and decomposition

# every bouquet with n <= 4 and N <= 8
SMALL = sweep_compositions(4, 8)


def test_h_from_f_matches_polynomial_powers():
    for c in SMALL:
        fv = f_from_h(h_closed_form(c), c.vertex_count)
        for d in (c.vertex_count, c.vertex_count + 2):
            assert h_from_f(fv, d) == power_h_from_f(fv, d), (c.k, d)
    rng = random.Random(3)
    for _ in range(200):
        fv = FVector(tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 6))))
        d = fv.max_cardinality + rng.randint(0, 3)
        assert h_from_f(fv, d) == power_h_from_f(fv, d), (fv, d)


def test_decomposition_matches_maximal_sets():
    checked = [c for c in SMALL if c.k[0] >= 2]
    assert len(checked) == 48
    for c in checked:
        rep = verify_decomposition(c, srcomplex.facets_closed_form(c))
        assert rep.ok and rep == maximal_decomposition(c), c.k


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
        reference = maximal(pairwise) == expected and len({len(e) for e in expected}) == 1
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
    return rep.intersection_ok, maximal_decomposition(c).intersection_ok


def _patch_facets(monkeypatch, k, edit):
    """facets_closed_form with the facet tuple of bouquet k passed through edit."""
    original = srcomplex.facets_closed_form

    def patched(comp):
        cx = original(comp)
        if comp.k != k:
            return cx
        return SimpleNamespace(facets=edit(cx.facets))

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
    assert not maximal_decomposition(c).union_ok


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

def _outcome(masks):
    """The h of both shelling checks, or the message of the ValueError each raises."""
    outcomes = []
    for check in (srcomplex.shelling_h_vector, pairwise_shelling_h_vector):
        try:
            outcomes.append(check(masks))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], masks
    return outcomes[0]


def _kind(outcome):
    return outcome.split(" at facet ")[0] if isinstance(outcome, str) else "shelling"


# every cycle order of every bouquet with n <= 5 and N <= 8
SWEEP_ORDERS = every_order(sweep_compositions(5, 8))


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
        assert result == pairwise_intersection_ok(cone, join, x), (cone, join, x)
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
        assert result == pairwise_intersection_ok(cone, join, x)
        return result

    monkeypatch.setattr(srcomplex, "_intersection_ok", checked)
    decomposable = [c for c in sweep_compositions(6, 12) if c.k[0] >= 2]
    assert len(decomposable) == 220
    for c in decomposable:
        assert verify_decomposition(c, srcomplex.facets_closed_form(c)).ok, c.k
    assert len(calls) == 220 and max(calls) > 10_000
