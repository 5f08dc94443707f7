"""The coefficient-tuple arithmetic that the reference routes in
test_oracle_rewrites compute on; the package has no polynomial type."""

import random

import pytest

from test_oracle_rewrites import _trimmed, poly_add, poly_div_one_minus_t, poly_mul, poly_reverse


def _random_coeffs(rng, max_deg=6, span=9):
    return tuple(rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1)))


def _at(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def test_add_examples():
    p = (1, 1)
    assert poly_add(p, p) == (2, 2)
    assert poly_add(p, ()) == p
    assert poly_add(p, (-1, -1)) == ()


def test_mul_examples():
    assert poly_mul((1, 1), (1, 1, 1)) == (1, 2, 2, 1)
    p = (3, 0, -2, 5)
    assert poly_mul(p, (1,)) == p
    assert poly_mul(p, ()) == ()
    assert poly_mul((1, 2, 2, 1), (1, 1, 1, 1)) == (1, 3, 5, 6, 5, 3, 1)


def test_mul_is_evaluation_homomorphism():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b = _random_coeffs(rng), _random_coeffs(rng)
        prod = poly_mul(a, b)
        for x in (-1, 0, 1, 2):
            assert _at(prod, x) == _at(a, x) * _at(b, x)


def test_reverse_examples():
    assert poly_reverse((1, 2), 1) == (2, 1)
    assert poly_reverse((1, 2, 3, 4, 4, 3, 1), 6) == (1, 3, 4, 4, 3, 2, 1)
    sym = (1, 5, 5, 1)
    assert poly_reverse(sym, 3) == sym
    assert poly_reverse((0, 1), 2) == (0, 1)


def test_reverse_bound_checked():
    with pytest.raises(ValueError, match="reversal bound too small"):
        poly_reverse((1, 0, 1), 1)
    with pytest.raises(ValueError, match="reversal bound too small"):
        poly_reverse((), -1)


def test_reverse_involution():
    rng = random.Random(7)
    for _ in range(200):
        p = _trimmed(_random_coeffs(rng))
        s = max(len(p) - 1, 0) + rng.randint(0, 3)
        assert poly_reverse(poly_reverse(p, s), s) == p


def test_div_one_minus_t_examples():
    assert poly_div_one_minus_t((1, 0, -1)) == (1, 1)
    assert poly_div_one_minus_t(()) == ()
    q = poly_div_one_minus_t((0, 1, 0, 0, 0, -1))
    assert q == (0, 1, 1, 1, 1)
    assert poly_mul(q, (1, -1)) == (0, 1, 0, 0, 0, -1)


def test_div_one_minus_t_rejects_nondivisible():
    with pytest.raises(ValueError, match="not divisible"):
        poly_div_one_minus_t((1, 1))


def test_div_inverts_mul_by_one_minus_t():
    rng = random.Random(99)
    for _ in range(200):
        p = _trimmed(_random_coeffs(rng))
        assert poly_div_one_minus_t(poly_mul(p, (1, -1))) == p
