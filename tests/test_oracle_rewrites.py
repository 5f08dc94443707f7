"""The two exponential oracles against the straightforward code they replaced.

facets_brute_force is a pruned include/exclude search and
edge_subring_hilbert packs exponent vectors into ints.  The references here
are the plain versions: a scan over all 2^E subsets and a breadth-first
search over exponent tuples.
"""

from itertools import permutations

import pytest

from oddbouquet.cli import sweep_compositions
from oddbouquet.composition import build_from_k, labeled_graph
from oddbouquet.srcomplex import facets_brute_force
from oddbouquet.toric import (
    MONOMIAL_ONE,
    Monomial,
    edge_subring_hilbert,
    initial_monomials,
    vertex_exponent_vector,
)

# every cycle order of every bouquet with at most 14 edges
ORDERS = sorted({
    order
    for c in sweep_compositions(7, 7)
    if c.edge_count <= 14
    for order in permutations(c.k)
})


def _scan_facets(monomials, ground_size):
    """All subsets as bitmasks; faces contain no support, facets extend to none."""
    supports = [sum(1 << v for v in m.support) for m in monomials]
    faces = {mask for mask in range(1 << ground_size)
             if all(mask & s != s for s in supports)}
    facets = [
        frozenset(v for v in range(ground_size) if mask >> v & 1)
        for mask in faces
        if not any(not mask >> v & 1 and mask | 1 << v in faces for v in range(ground_size))
    ]
    facets.sort(key=lambda f: sorted(f))
    return tuple(facets)


def _tuple_hilbert(c, d):
    """Breadth-first closure over vertex exponent tuples."""
    g = labeled_graph(c)
    edge_vecs = [vertex_exponent_vector(Monomial.squarefree([i]), g) for i in range(c.edge_count)]
    level = {(0,) * g.n_vertices}
    for _ in range(d):
        level = {tuple(v + e for v, e in zip(vec, evec)) for vec in level for evec in edge_vecs}
    return len(level)


def test_orders_cover_the_small_bouquets():
    assert len(ORDERS) == 36
    assert max(build_from_k(order).edge_count for order in ORDERS) == 14


def test_facet_search_matches_scan_every_order():
    for order in ORDERS:
        c = build_from_k(order)
        inits = initial_monomials(c)
        assert facets_brute_force(inits, c.edge_count).facets == _scan_facets(inits, c.edge_count), order


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
    assert facets_brute_force(monomials, ground_size).facets == _scan_facets(monomials, ground_size)


def test_facet_search_empty_ground_and_constant_monomial():
    # the empty set is the one facet on no vertices, unless the monomial 1
    # (empty support) excludes every set, the empty one too
    assert facets_brute_force([], 0).facets == (frozenset(),)
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
