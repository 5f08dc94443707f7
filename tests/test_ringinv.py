import gc
import tracemalloc

import pytest

from oddbouquet.certify import sweep_compositions
from oddbouquet.composition import build_from_k, build_from_r
from oddbouquet.polyarith import IntPoly, ONE, reverse
from oddbouquet.ringinv import (
    classify,
    cm_type,
    e_tilde_closed,
    e_tilde_from_h,
    h_closed_form,
    h_recursive,
    multiplicity,
)


def _e_tilde_partial_sums(h):
    """Oracle: the defining aggregate of top-minus-bottom partial sums."""
    hs = h.coeffs
    s = len(hs) - 1
    total = 0
    for i in range(s + 1):
        total += sum(hs[s - i:]) - sum(hs[: i + 1])
    return total


def test_h_closed_form_single_cycles():
    for k in range(1, 7):
        assert h_closed_form(build_from_k([k])) == ONE


def test_h_closed_form_examples():
    assert h_closed_form(build_from_r([3])).coeffs == (1, 2, 3, 1)
    assert h_closed_form(build_from_r([1, 1, 1])).coeffs == (1, 2, 3, 4, 4, 3, 1)


def test_h_recursive_examples():
    assert h_recursive(build_from_k([2])) == ONE
    assert h_recursive(build_from_k([1, 1, 1])).coeffs == (1, 2, 3, 1)
    assert h_recursive(build_from_k([3, 2, 1])).coeffs == (1, 2, 3, 4, 4, 3, 1)


def test_h_recursive_matches_closed_form():
    for c in sweep_compositions(4, 7):
        assert h_recursive(c) == h_closed_form(c), c.k


def test_h_recursive_retains_nothing():
    # the memo lives for one call: once its result is dropped, the memory
    # traced over the call is back where it started
    h_recursive(build_from_k([3, 2]))
    c = build_from_k([200, 200])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = h_recursive(c)
        assert h.coeffs == (1,) * 401
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
        assert h.coeff(0) == 1
        if c.n >= 2:
            assert h.coeff(1) == c.n - 1
            assert h.degree == c.N
        else:
            assert h == ONE
        assert h.evaluate(1) == multiplicity(c)


def test_cm_type():
    assert cm_type(build_from_k([2, 1, 1])) == 2
    assert cm_type(build_from_r([3])) == 2
    assert cm_type(build_from_k([3, 1])) == 1
    assert cm_type(build_from_k([4])) == 1


def test_e_tilde_from_h_examples():
    e, hp = e_tilde_from_h(IntPoly.of(1, 2, 3, 1))
    assert (e, hp) == (1, (0, 1, 0, 0))
    e, hp = e_tilde_from_h(IntPoly.of(1, 2, 3, 4, 4, 3, 1))
    assert (e, hp) == (6, (0, 1, 2, 2, 1, 0, 0))
    e, hp = e_tilde_from_h(IntPoly.of(1, 4, 4, 1))
    assert e == 0
    assert all(v == 0 for v in hp)


def test_e_tilde_matches_partial_sum_oracle():
    for c in sweep_compositions(4, 6):
        h = h_closed_form(c)
        assert e_tilde_from_h(h)[0] == _e_tilde_partial_sums(h), c.k


def test_e_tilde_from_h_validates_input():
    with pytest.raises(ValueError):
        e_tilde_from_h(IntPoly.of(2, 1))
    with pytest.raises(ValueError):
        e_tilde_from_h(IntPoly.of(0, 1))


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
    assert rep.h.coeffs == (1, 1, 1)
    assert rep.is_gorenstein
    assert rep.is_almost_gorenstein
    assert rep.cm_type == 1


def test_classify_single_cycle():
    rep = classify(build_from_k([5]))
    assert rep.h == ONE
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
        assert rep.is_gorenstein == (reverse(rep.h, rep.s) == rep.h), c.k
        if rep.is_gorenstein:
            assert rep.is_almost_gorenstein, c.k
