"""A fault table: every verify column FAILs under some injected fault.

Each row names a fault, patches it into certify, srcomplex or toric in
process, runs verify_composition over the default sweep (n <= 5, N <= 8)
and lists the columns that must FAIL on some bouquet; every other column
must stay ok or skip on every bouquet.  Together the rows give each of the
eleven columns a witness.
"""

import random

import pytest

from oddbouquet import certify, srcomplex, toric
from oddbouquet.certify import CHECK_NAMES, sweep_compositions, verify_composition
from oddbouquet.cli import SweepRange
from oddbouquet.composition import CycleParts
from oddbouquet.srcomplex import SimplicialComplex
from oddbouquet.toric import Binomial, Monomial


def _edit_facets(monkeypatch, edit):
    """certify's closed-form complexes with their facet tuples passed through edit."""
    original = certify.facets_closed_form

    def patched(c):
        cx = original(c)
        return SimplicialComplex(cx.ground_size, edit(cx.facets))

    monkeypatch.setattr(certify, "facets_closed_form", patched)


def _edit_generators(monkeypatch, edit):
    """certify's generator lists passed through edit."""
    original = toric.generators
    monkeypatch.setattr(certify, "generators", lambda c: edit(original(c)))


def _nudged(m):
    """m with its lowest variable moved to the next flat index."""
    low = m.mask & -m.mask
    return Monomial(m.mask ^ low ^ low << 1)


def _during_decomposition(monkeypatch, patch):
    """certify's verify_decomposition run with patch(context, c) applied for the call alone."""
    original = certify.verify_decomposition

    def patched(c, cx):
        with monkeypatch.context() as m:
            patch(m, c)
            return original(c, cx)

    monkeypatch.setattr(certify, "verify_decomposition", patched)


def _drop_a_join_facet(m, c):
    """The bouquet with cycle 1 deleted loses its first facet, so one join facet is missing."""
    original = srcomplex.facets_closed_form

    def patched(comp):
        cx = original(comp)
        return SimplicialComplex(cx.ground_size, cx.facets[1:]) if comp.k == c.k[1:] else cx

    m.setattr(srcomplex, "facets_closed_form", patched)


def _x_in_the_join_part(m, c):
    """x, cycle 1's last edge, added to its even part, hence to every join facet."""
    original, x = srcomplex.cycle_parts, c.flat_index(1, 2 * c.k[0] + 1)

    def patched(comp, i):
        parts = original(comp, i)
        return CycleParts(parts.odd, parts.even | 1 << x) if comp is c and i == 1 else parts

    m.setattr(srcomplex, "cycle_parts", patched)


def _shifted_count(monkeypatch):
    original = certify.standard_monomial_series

    def patched(c, d):
        series = original(c, d)
        return [*series[:-1], series[-1] + 1]

    monkeypatch.setattr(certify, "standard_monomial_series", patched)


def _shuffle_facets(monkeypatch):
    rng = random.Random(7)

    def shuffled(facets):
        facets = list(facets)
        rng.shuffle(facets)
        return tuple(facets)

    _edit_facets(monkeypatch, shuffled)


def _e_tilde_off_by_one(monkeypatch):
    original = certify.e_tilde_closed
    monkeypatch.setattr(certify, "e_tilde_closed", lambda c: original(c) + 1)


# (fault, patch, columns that must FAIL on some bouquet); the rest stay ok or skip
FAULTS = [
    # fvec fails where the dropped facet held an edge no other facet holds,
    # as a triangle's only facet does
    ("last_facet_dropped", lambda mp: _edit_facets(mp, lambda facets: facets[:-1]),
     {"h3way", "facets", "fvec", "decompose", "brutefacets"}),
    ("facet_order_shuffled", _shuffle_facets, {"h3way", "shelling", "fvec"}),
    ("e_tilde_closed_off_by_one", _e_tilde_off_by_one, {"classify"}),
    # the minus part keeps its degree and its place below the plus part
    ("minus_parts_nudged", lambda mp: _edit_generators(
        mp, lambda gens: [Binomial(g.plus, _nudged(g.minus)) for g in gens]),
     {"kernel", "buchberger"}),
    ("plus_and_minus_swapped", lambda mp: _edit_generators(
        mp, lambda gens: [Binomial(g.minus, g.plus) for g in gens]),
     {"initial", "brutefacets"}),
    ("last_generator_dropped", lambda mp: _edit_generators(mp, lambda gens: gens[:-1]),
     {"buchberger", "brutefacets"}),
    ("one_hilbert_count_shifted", _shifted_count, {"hilbert"}),
    ("a_join_facet_missing", lambda mp: _during_decomposition(mp, _drop_a_join_facet), {"decompose"}),
    ("x_in_the_join_part_of_cycle_1", lambda mp: _during_decomposition(mp, _x_in_the_join_part), {"decompose"}),
]


def test_every_column_has_a_witness():
    assert set().union(*(fails for _, _, fails in FAULTS)) == set(CHECK_NAMES)


@pytest.mark.parametrize(("patch", "fails"), [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS])
def test_fault_fails_its_columns_and_no_other(monkeypatch, patch, fails):
    patch(monkeypatch)
    failed = set()
    for c in sweep_compositions(5, 8):  # fresh instances: no cached structure from other rows
        statuses = verify_composition(c, SweepRange(5, 8))
        failed |= {name for name, status in statuses.items() if status == "FAIL"}
    assert failed == fails


@pytest.mark.parametrize("patch", [_drop_a_join_facet, _x_in_the_join_part])
def test_decomposition_faults_fail_the_intersection_test(monkeypatch, patch):
    decomposable = [c for c in sweep_compositions(5, 8) if c.k[0] >= 2]
    caught = 0
    for c in decomposable:
        cx = srcomplex.facets_closed_form(c)
        with monkeypatch.context() as m:
            patch(m, c)
            caught += not srcomplex.verify_decomposition(c, cx).intersection_ok
    # with one cycle there is no bouquet to drop, so no join facet goes missing
    missing_none = sum(c.n == 1 for c in decomposable) if patch is _drop_a_join_facet else 0
    assert caught == len(decomposable) - missing_none
