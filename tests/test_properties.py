"""Property tests over random bouquets, cycles in any order, up to 18 edges."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oddbouquet.composition import build_from_k  # noqa: E402
from oddbouquet.ringinv import h_closed_form  # noqa: E402
from oddbouquet.srcomplex import (  # noqa: E402
    facets_brute_force,
    facets_closed_form,
    hilbert_from_h,
)
from oddbouquet.toric import (  # noqa: E402
    edge_subring_hilbert,
    generators,
    initial_monomials,
    s_pair_reduces_to_zero,
    standard_monomial_count,
)
from test_oracle_rewrites import dict_s_pair_reduces_to_zero  # noqa: E402

MAX_EDGES = 18  # the brute-force oracle's cap


def _fits(ks):
    """The longest prefix of ks whose bouquet has at most MAX_EDGES edges."""
    out, edges = [], 0
    for k in ks:
        if edges + 2 * k + 1 > MAX_EDGES:
            break
        out.append(k)
        edges += 2 * k + 1
    return tuple(out)


bouquets = st.lists(st.integers(1, 8), min_size=1, max_size=6).map(_fits).map(build_from_k)


@settings(max_examples=60, deadline=None)
@given(bouquets)
def test_brute_facets_equal_closed_form(c):
    brute = facets_brute_force(initial_monomials(c), c.edge_count)
    assert set(brute.facets) == set(facets_closed_form(c).facets)


@settings(max_examples=60, deadline=None)
@given(bouquets, st.integers(0, 4))
def test_three_hilbert_counters_agree(c, d):
    expected = hilbert_from_h(h_closed_form(c), c.vertex_count, d)
    assert edge_subring_hilbert(c, d) == standard_monomial_count(c, d) == expected


@settings(max_examples=40, deadline=None)
@given(bouquets, st.data())
def test_packed_division_agrees_with_dicts(c, data):
    gens = generators(c)
    keep = data.draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    basis = [g for g, kept in zip(gens, keep) if kept]  # full or incomplete
    for f, g in combinations(gens, 2):
        assert s_pair_reduces_to_zero(f, g, basis) is dict_s_pair_reduces_to_zero(f, g, basis)
