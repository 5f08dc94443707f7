"""Tests of the references in reference.py themselves: the coefficient-tuple
and exponent-tuple arithmetic the reference routes compute on (the package
has no polynomial type), and the Hilbert references checked against each
other, where no package function is the subject."""

import random
from itertools import combinations

import pytest

from reference import (
    full_level_series,
    graph,
    listing_hub_series,
    mask_minkowski,
    mask_tally,
    minkowski,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
    path_edges,
    path_tally,
    poly_add,
    poly_div_one_minus_t,
    poly_mul,
    poly_reverse,
    run_masks,
    trimmed,
)


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
        p = trimmed(_random_coeffs(rng))
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
        p = trimmed(_random_coeffs(rng))
        assert poly_div_one_minus_t(poly_mul(p, (1, -1))) == p


def test_monomial_arithmetic():
    a = ((0, 1), (2, 2))
    b = ((2, 1), (3, 1))
    # the reference arithmetic the dict division oracle is built on, on exponent tuples
    assert monomial_mul(a, b) == ((0, 1), (2, 3), (3, 1))
    assert monomial_divides(b, monomial_mul(a, b))
    assert not monomial_divides(b, a)
    assert monomial_lcm(a, b) == ((0, 1), (2, 2), (3, 1))
    assert monomial_quotient(monomial_mul(a, b), b) == a
    with pytest.raises(ValueError):
        monomial_quotient(a, b)


# ------------------------------------------------------------------ Hilbert references

def _random_graphs(count, seed=0):
    """Simple graphs on at most 8 vertices, with edges kept at a random density."""
    rng = random.Random(seed)
    for _ in range(count):
        nv, keep = rng.randint(1, 8), rng.random()
        yield graph(nv, [e for e in combinations(range(nv), 2) if rng.random() < keep]), rng.randint(0, 5)


SHAPED_GRAPHS = [
    graph(5, []),  # edgeless
    graph(8, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (7, 4), (4, 6)]),  # disconnected, isolated 3
    graph(4, list(combinations(range(4), 2))),  # K4: no cut vertex
    graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),  # a pentagon with a chord
    graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (4, 5), (5, 6)]),  # a bow tie with a tail
]


def test_path_tally_matches_the_listing():
    for length in range(2, 16):
        for d in range(9):
            expected = mask_tally(path_edges(length, d), d)
            assert run_masks(path_tally(length, d)) == expected, (length, d)


def test_hub_split_matches_full_levels_on_graphs_at_every_vertex():
    for g, d in [*((g, 5) for g in SHAPED_GRAPHS), *_random_graphs(300)]:
        expected = full_level_series(g.endpoints, d)
        for hub in range(g.n_vertices):
            assert listing_hub_series(g, d, hub) == expected, (g.endpoints, d, hub)


def test_minkowski_step_shifts_truncates_and_multiplies():
    # {0, 1} + [1, 2] = {1, 2, 3}, cut to {1, 2} at d = 2; {0, 1} + [0, 0] = {0, 1}
    assert minkowski({0b11: 2}, {(1, 1): 3, (0, 0): 5}, 2) == {0b110: 6, 0b11: 10}
    # two reachable-degree sets that meet one run in the same set add up
    assert minkowski({0b1: 1, 0b11: 4}, {(0, 1): 1}, 1) == {0b11: 5}


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
        expected = mask_minkowski(states, run_masks(runs), d)
        assert minkowski(states, runs, d) == expected, (states, runs, d)
