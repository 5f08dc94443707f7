import random

import pytest

from oddbouquet.polyarith import (
    IntPoly,
    ONE,
    ONE_MINUS_T,
    T,
    ZERO,
    exact_div_one_minus_t,
    q_int,
    reverse,
)


def _convolve(a, b):
    """Independent schoolbook convolution used as the multiplication oracle."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _random_poly(rng, max_deg=6, span=9):
    return IntPoly.of(*[rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))])


def test_add_examples():
    p = IntPoly.of(1, 1)
    assert (p + p).coeffs == (2, 2)
    assert (p + ZERO) == p
    assert (p + IntPoly.of(-1, -1)) == ZERO


def test_mul_examples():
    assert (IntPoly.of(1, 1) * IntPoly.of(1, 1, 1)).coeffs == (1, 2, 2, 1)
    p = IntPoly.of(3, 0, -2, 5)
    assert (p * ONE) == p
    a, b = (1, 2, 2, 1), (1, 1, 1, 1)
    expected = _convolve(a, b)
    assert expected == (1, 3, 5, 6, 5, 3, 1)
    assert (IntPoly(a) * IntPoly(b)).coeffs == expected


def test_mul_is_evaluation_homomorphism():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b = _random_poly(rng), _random_poly(rng)
        prod = a * b
        for x in (-1, 0, 1, 2):
            assert prod.evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_q_int():
    assert q_int(0) == ONE
    assert q_int(2).coeffs == (1, 1, 1)
    assert q_int(3).coeffs == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        q_int(-1)


def test_reverse_examples():
    assert reverse(IntPoly.of(1, 2), 1).coeffs == (2, 1)
    h = IntPoly.of(1, 2, 3, 4, 4, 3, 1)
    assert reverse(h, 6).coeffs == (1, 3, 4, 4, 3, 2, 1)
    sym = IntPoly.of(1, 5, 5, 1)
    assert reverse(sym, 3) == sym


def test_reverse_bound_checked():
    with pytest.raises(ValueError, match="reversal bound too small"):
        reverse(IntPoly.of(1, 0, 1), 1)


def test_reverse_involution():
    rng = random.Random(7)
    for _ in range(200):
        p = _random_poly(rng)
        deg = p.degree if p.degree is not None else 0
        s = deg + rng.randint(0, 3)
        assert reverse(reverse(p, s), s) == p


def test_div_one_minus_t_examples():
    assert exact_div_one_minus_t(IntPoly.of(1, 0, -1)).coeffs == (1, 1)
    assert exact_div_one_minus_t(ZERO) == ZERO
    q = exact_div_one_minus_t(IntPoly.of(0, 1, 0, 0, 0, -1))
    assert q.coeffs == (0, 1, 1, 1, 1)
    assert q * ONE_MINUS_T == IntPoly.of(0, 1, 0, 0, 0, -1)


def test_div_one_minus_t_rejects_nondivisible():
    with pytest.raises(ValueError, match="not divisible"):
        exact_div_one_minus_t(IntPoly.of(1, 1))


def test_div_inverts_mul_by_one_minus_t():
    rng = random.Random(99)
    for _ in range(200):
        p = _random_poly(rng)
        assert exact_div_one_minus_t(p * ONE_MINUS_T) == p


def test_zero_degree_is_none():
    assert ZERO.degree is None
    assert IntPoly.of(0, 0).degree is None
    assert IntPoly.of(5).degree == 0
    assert T.degree == 1


def test_pow():
    assert (ONE + T) ** 3 == IntPoly.of(1, 3, 3, 1)
    assert (T ** 0) == ONE
    with pytest.raises(ValueError):
        T ** -1
