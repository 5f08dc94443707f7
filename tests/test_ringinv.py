import gc
import random
import tracemalloc

import pytest

from oddbouquet import ringinv, srcomplex
from oddbouquet.certify import sweep_compositions
from oddbouquet.composition import build_from_k, build_from_r
from oddbouquet.ringinv import (
    classify,
    cm_type,
    e_tilde_closed,
    e_tilde_from_h,
    h_closed_form,
    h_recursive,
    multiplicity,
)
from oddbouquet.srcomplex import h_from_f
from reference import (
    e_tilde_partial_sums,
    poly_e_tilde_from_h,
    poly_h_closed_form,
    poly_h_recursive,
    poly_report,
    poly_reverse,
    product_facets,
    trimmed,
)


def test_h_closed_form_single_cycles():
    for k in range(1, 7):
        assert h_closed_form(build_from_k([k])) == (1,)


def test_h_closed_form_examples():
    assert h_closed_form(build_from_r([3])) == (1, 2, 3, 1)
    assert h_closed_form(build_from_r([1, 1, 1])) == (1, 2, 3, 4, 4, 3, 1)


def test_h_recursive_examples():
    assert h_recursive(build_from_k([2])) == (1,)
    assert h_recursive(build_from_k([1, 1, 1])) == (1, 2, 3, 1)
    assert h_recursive(build_from_k([3, 2, 1])) == (1, 2, 3, 4, 4, 3, 1)


def test_h_recursive_matches_closed_form():
    for c in sweep_compositions(4, 7):
        assert h_recursive(c) == h_closed_form(c), c.k


def test_h_recursive_retains_nothing():
    # the rows live for one call: once its result is dropped, the memory
    # traced over the call is back where it started
    h_recursive(build_from_k([3, 2]))
    c = build_from_k([200, 200])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = h_recursive(c)
        assert h == (1,) * 401
        del h
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096, retained


def test_h_order_invariance():
    for ks in [(1, 3, 2), (2, 1, 2), (1, 1, 4)]:
        a = build_from_k(ks)
        b = build_from_k(tuple(sorted(ks, reverse=True)))
        assert h_closed_form(a) == h_closed_form(b)
        assert h_recursive(a) == h_recursive(b)


def test_h_shape_invariants():
    for c in sweep_compositions(4, 6):
        h = h_closed_form(c)
        assert h[0] == 1
        if c.n >= 2:
            assert h[1] == c.n - 1
            assert len(h) - 1 == c.N
        else:
            assert h == (1,)
        assert sum(h) == multiplicity(c)


def test_cm_type():
    assert cm_type(build_from_k([2, 1, 1])) == 2
    assert cm_type(build_from_r([3])) == 2
    assert cm_type(build_from_k([3, 1])) == 1
    assert cm_type(build_from_k([4])) == 1


def test_e_tilde_from_h_examples():
    e, hp = e_tilde_from_h((1, 2, 3, 1))
    assert (e, hp) == (1, (0, 1, 0, 0))
    e, hp = e_tilde_from_h((1, 2, 3, 4, 4, 3, 1))
    assert (e, hp) == (6, (0, 1, 2, 2, 1, 0, 0))
    e, hp = e_tilde_from_h((1, 4, 4, 1))
    assert e == 0
    assert all(v == 0 for v in hp)


def test_e_tilde_matches_partial_sum_oracle():
    for c in sweep_compositions(4, 6):
        h = h_closed_form(c)
        assert e_tilde_from_h(h)[0] == e_tilde_partial_sums(h), c.k


def test_e_tilde_from_h_validates_input():
    with pytest.raises(ValueError):
        e_tilde_from_h((2, 1))
    with pytest.raises(ValueError):
        e_tilde_from_h((0, 1))


def test_e_tilde_closed_examples():
    assert e_tilde_closed(build_from_r([3])) == 1
    assert e_tilde_closed(build_from_r([1, 1, 1])) == 6
    c = build_from_r([0, 4])
    assert e_tilde_closed(c) == 32
    assert e_tilde_from_h(h_closed_form(c))[0] == 32


def test_e_tilde_closed_requires_three_cycles():
    with pytest.raises(ValueError, match="n >= 3"):
        e_tilde_closed(build_from_k([2, 1]))


def test_e_tilde_closed_matches_h_route():
    for c in sweep_compositions(4, 6):
        if c.n >= 3:
            assert e_tilde_from_h(h_closed_form(c))[0] == e_tilde_closed(c), c.k


def test_classify_triangles():
    c = build_from_r([3])
    rep = classify(c)
    assert rep.cm_type == 2
    assert rep.e_tilde == 1
    assert rep.is_almost_gorenstein
    assert not rep.is_gorenstein
    assert rep.is_almost_gorenstein == (c.n <= 2 or c.N == c.n)
    assert c.n < 3 or rep.e_tilde == e_tilde_closed(c)


def test_classify_worked_example():
    c = build_from_r([1, 1, 1])
    rep = classify(c)
    assert rep.cm_type == 2
    assert rep.e_tilde == 6
    assert not rep.is_almost_gorenstein
    assert rep.is_almost_gorenstein == (c.n <= 2 or c.N == c.n)
    assert c.n < 3 or rep.e_tilde == e_tilde_closed(c)


def test_classify_hypersurface():
    rep = classify(build_from_k([1, 1]))
    assert rep.h == (1, 1, 1)
    assert rep.is_gorenstein
    assert rep.is_almost_gorenstein
    assert rep.cm_type == 1


def test_classify_single_cycle():
    rep = classify(build_from_k([5]))
    assert rep.h == (1,)
    assert rep.s == 0
    assert rep.cm_type == 1
    assert rep.e_tilde == 0
    assert rep.is_gorenstein and rep.is_almost_gorenstein


def test_classification_sweep():
    for c in sweep_compositions(4, 6):
        rep = classify(c)
        assert rep.is_almost_gorenstein == (c.n <= 2 or c.N == c.n), c.k
        assert c.n < 3 or rep.e_tilde == e_tilde_closed(c), c.k
        assert rep.is_gorenstein == (c.n <= 2), c.k
        assert rep.is_gorenstein == (poly_reverse(rep.h, rep.s) == rep.h), c.k
        if rep.is_gorenstein:
            assert rep.is_almost_gorenstein, c.k


@pytest.mark.parametrize("coeffs, symmetric", [
    ((1,), True), ((1, 2, 1), True), ((1, 2), False), ((1, 1, 2, 1), False), ((1, 2, 2, 3), False),
])
def test_gorenstein_flag_is_the_symmetry_of_h(monkeypatch, coeffs, symmetric):
    # bouquet h-vectors end in 1, so these shapes also tell a test that skips
    # an end coefficient or shifts the reversal from the symmetry itself
    monkeypatch.setattr(ringinv, "h_closed_form", lambda c: coeffs)
    assert classify(build_from_k([2, 1])).is_gorenstein is symmetric


# ------------------------------------------------------------------ closed forms against the tuple references

# every bouquet with n <= 7 and N <= 14, cycles in descending order and shuffled
SWEEP_14 = sweep_compositions(7, 14)


def _descending_and_shuffled():
    rng = random.Random(2025)
    for c in SWEEP_14:
        shuffled = list(c.k)
        rng.shuffle(shuffled)
        yield c
        yield build_from_k(shuffled)


def test_closed_forms_match_the_tuple_references_on_the_sweep():
    assert len(SWEEP_14) == 432
    shuffled = 0
    for c in _descending_and_shuffled():
        shuffled += list(c.k) != sorted(c.k, reverse=True)
        rep = classify(c)
        assert rep == poly_report(c), c.k
        assert h_recursive(c) == rep.h == poly_h_recursive(c), c.k
        assert srcomplex.facets_closed_form(c).facets == product_facets(c), c.k
    assert shuffled > 300


def test_closed_form_matches_the_tuple_reference_on_random_half_lengths():
    rng = random.Random(31)
    for _ in range(300):
        c = build_from_k([rng.randint(1, 30) for _ in range(rng.randint(1, 12))])
        h = h_closed_form(c)
        assert h == poly_h_closed_form(c), c.k
        assert e_tilde_from_h(h) == poly_e_tilde_from_h(h), c.k


def test_e_tilde_matches_the_tuple_reference_on_random_polynomials():
    # anything with constant term 1 and h(1) != 0 is read; the rest raises
    rng = random.Random(32)
    kinds = {}
    for _ in range(2000):
        p = trimmed(rng.randint(-3, 3) for _ in range(rng.randint(0, 7)))
        outcomes = []
        for read in (e_tilde_from_h, poly_e_tilde_from_h):
            try:
                outcomes.append(read(p))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], p
        kinds[type(outcomes[0])] = kinds.get(type(outcomes[0]), 0) + 1
    assert min(kinds.values()) > 100 and len(kinds) == 2, kinds


@pytest.mark.parametrize("k", [(200, 200), (600, 600), (1,) * 40, (3,) + (1,) * 20, (2,) * 25,
                               (5, 4, 3, 2, 1) * 3])
def test_recursion_matches_the_tuple_reference_on_long_inputs(k):
    # many triangles, many short cycles and a few long ones: the package grows
    # the cycles in their given order, the reference memoises longest first
    c = build_from_k(k)
    assert h_recursive(c) == poly_h_recursive(c) == h_closed_form(c)


def _assert_trimmed(h, case):
    assert type(h) is tuple and h and h[-1], (case, h)


def test_h_routes_return_trimmed_tuples_from_plain_lists():
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
    expected = [(poly_h_closed_form(c), poly_h_recursive(c), poly_report(c)) for c in cases]
    for c, (h, h_rec, report) in zip(cases, expected):
        assert (h_closed_form(c), h_recursive(c), classify(c)) == (h, h_rec, report), c.k
