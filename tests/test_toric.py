from itertools import combinations
from unittest.mock import patch

import pytest

from oddbouquet import toric
from oddbouquet.composition import build_from_k, labeled_graph
from oddbouquet.ringinv import h_closed_form
from oddbouquet.srcomplex import hilbert_from_h
from oddbouquet.toric import (
    Binomial,
    Monomial,
    _pair_supports,
    _path_ends,
    edge_subring_hilbert,
    edge_subring_hilbert_series,
    generators,
    grlex_cmp,
    kernel_check,
    leading_monomial,
    s_pair_reduces_to_zero,
    standard_monomial_count,
    standard_monomial_series,
    vertex_exponent_vector,
)
from reference import mono, naive_standard_count, path_end_counts

SMALL_KS = [(1,), (2,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2, 1), (2, 1, 1)]


def test_monomial_basics():
    m = Monomial(0b101010)
    assert Monomial.__slots__ == ("mask",)
    assert m.exps == ((1, 1), (3, 1), (5, 1))
    assert m.degree == 3
    assert Monomial(0).exps == () and Monomial(0).degree == 0
    with pytest.raises(ValueError, match="negative"):
        Monomial(-1)


def test_generator_counts():
    assert generators(build_from_k([1])) == []
    for k in SMALL_KS:
        c = build_from_k(k)
        assert len(generators(c)) == c.n * (c.n - 1) // 2


def test_generator_two_triangles():
    c = build_from_k([1, 1])
    (g,) = generators(c)
    assert g.plus == mono(c, [(1, 1), (1, 3), (2, 2)])
    assert g.minus == mono(c, [(1, 2), (2, 1), (2, 3)])


def test_generator_worked_example():
    c = build_from_k([3, 2, 1])
    plus_parts = [g.plus for g in generators(c)]
    assert plus_parts == [
        mono(c, [(1, 1), (1, 3), (1, 5), (1, 7), (2, 2), (2, 4)]),
        mono(c, [(1, 1), (1, 3), (1, 5), (1, 7), (3, 2)]),
        mono(c, [(2, 1), (2, 3), (2, 5), (3, 2)]),
    ]
    # the supports the standard-monomial counts read are these plus parts
    assert plus_parts == [Monomial(plus) for plus, _ in _pair_supports(c)]


def test_generator_shape():
    for k in SMALL_KS:
        c = build_from_k(k)
        for (i, j), g in zip(combinations(range(c.n), 2), generators(c)):
            want = c.k[i] + c.k[j] + 1
            assert g.plus.degree == g.minus.degree == want


def test_grlex_examples():
    x11 = Monomial(0b1)
    x12 = Monomial(0b10)
    assert grlex_cmp(x11, x12) == 1
    assert grlex_cmp(Monomial(0b110), x11) == 1  # degree dominates
    assert grlex_cmp(x11, x11) == 0
    assert grlex_cmp(x12, x11) == -1
    # equal degrees: the smallest index in one monomial only decides
    assert grlex_cmp(Monomial(0b10101), Monomial(0b01011)) == -1
    assert grlex_cmp(Monomial(0b11001), Monomial(0b10110)) == 1


def test_leading_monomials():
    synthetic = Binomial(Monomial(0b1), Monomial(0b10))
    assert leading_monomial(synthetic) == Monomial(0b1)
    for k in SMALL_KS:
        c = build_from_k(k)
        for g in generators(c):
            assert leading_monomial(g) == g.plus


def test_binomial_rejects_equal_parts():
    with pytest.raises(ValueError):
        Binomial(Monomial(0b1), Monomial(0b1))


def test_s_pair_with_itself_is_zero():
    c = build_from_k([2, 1])
    basis = generators(c)
    assert s_pair_reduces_to_zero(basis[0], basis[0], basis)
    # a zero S-polynomial costs no reduction steps
    with patch.object(toric, "MAX_STEPS", 0):
        assert s_pair_reduces_to_zero(basis[0], basis[0], basis)


def test_s_pair_coprime_leading_monomials():
    # leading monomials on disjoint variables reduce to zero by the product criterion;
    # confirm by explicit division as well
    f = Binomial(Monomial(0b0101), Monomial(0b1010))
    g = Binomial(Monomial(0b01010000), Monomial(0b10100000))
    assert s_pair_reduces_to_zero(f, g, [f, g])
    c = build_from_k([1, 1, 1])
    basis = generators(c)
    lead_01 = leading_monomial(basis[0])
    lead_12 = leading_monomial(basis[2])
    assert not lead_01.mask & lead_12.mask
    assert s_pair_reduces_to_zero(basis[0], basis[2], basis)


def test_all_pairs_reduce_for_worked_example():
    c = build_from_k([3, 2, 1])
    basis = generators(c)
    for f, g in combinations(basis, 2):
        assert s_pair_reduces_to_zero(f, g, basis)


def test_reduction_detects_incomplete_basis():
    # without the generator for the last cycle pair, the first two leave a remainder
    c = build_from_k([1, 1, 1])
    g01, g02, _ = generators(c)
    assert not s_pair_reduces_to_zero(g01, g02, [g01, g02])
    assert s_pair_reduces_to_zero(g01, g02, generators(c))


def test_reduction_step_cap():
    c = build_from_k([1, 1, 1])
    g01, g02, _ = generators(c)
    with patch.object(toric, "MAX_STEPS", 0), pytest.raises(RuntimeError, match="reduction did not terminate"):
        s_pair_reduces_to_zero(g01, g02, generators(c))


def test_kernel_check_generators():
    for k in SMALL_KS:
        c = build_from_k(k)
        g = labeled_graph(c)
        for b in generators(c):
            assert kernel_check(b, g)


def test_kernel_check_rejects_non_member():
    c = build_from_k([1, 1])
    g = labeled_graph(c)
    b = Binomial(mono(c, [(1, 1)]), mono(c, [(1, 2)]))
    assert not kernel_check(b, g)


def test_vertex_image_total():
    for k in [(1, 1), (3, 2, 1)]:
        c = build_from_k(k)
        g = labeled_graph(c)
        for b in generators(c):
            for part in (b.plus, b.minus):
                vec = vertex_exponent_vector(part, g)
                assert sum(vec) == 2 * part.degree


def test_standard_count_trivial_degrees():
    for k in SMALL_KS:
        c = build_from_k(k)
        assert standard_monomial_count(c, 0) == 1
        assert standard_monomial_count(c, 1) == c.edge_count
        assert edge_subring_hilbert(c, 0) == 1
        assert edge_subring_hilbert(c, 1) == c.edge_count


def test_standard_count_matches_naive_oracle():
    for k in [(1, 1), (2, 1), (1, 1, 1)]:
        c = build_from_k(k)
        for d in range(4):
            assert standard_monomial_count(c, d) == naive_standard_count(c, d)


def test_two_triangles_degree_two_counts():
    c = build_from_k([1, 1])
    expected = naive_standard_count(c, 2)
    assert expected == 21  # all C(7,2) degree-2 monomials survive the degree-3 generator
    assert standard_monomial_count(c, 2) == expected
    assert edge_subring_hilbert(c, 2) == expected


def test_hilbert_counters_agree():
    for k in SMALL_KS:
        c = build_from_k(k)
        for d in range(4):
            assert standard_monomial_count(c, d) == edge_subring_hilbert(c, d)


@pytest.mark.parametrize("k", [(2,) * 6, (1,) * 6, (7, 7), (6, 6, 2), (5, 5, 4), (4, 4, 3, 3)])
def test_hilbert_series_to_degree_N_matches_the_closed_form(k):
    # out of reach of a whole-graph search: (2,)*6 has 7.8e9 vectors in degree 12;
    # a long cycle's branch at d = 14 once listed more vectors than 1.5 GB holds
    c = build_from_k(k)
    h = h_closed_form(c)
    expected = [hilbert_from_h(h, c.vertex_count, t) for t in range(c.N + 1)]
    assert edge_subring_hilbert_series(c, c.N) == expected
    assert standard_monomial_series(c, c.N) == expected


def test_degree_validation():
    c = build_from_k([1, 1])
    with pytest.raises(ValueError):
        standard_monomial_count(c, -1)
    with pytest.raises(ValueError):
        edge_subring_hilbert(c, -1)
    with pytest.raises(ValueError):
        edge_subring_hilbert_series(c, -1)


def test_path_ends_are_the_hub_path_series():
    # a hub path with L edges has the series (1 - t^j)/(1 - t)^L = [j]/(1 - t)^(L - 1)
    # at its low ends, j = ceil(L/2), and at its high ends, j = floor(L/2); for
    # L = 2k + 1 these are [k + 1] and [k] over (1 - t)^(2k), from which
    # _run_counts gives (prod [k_i + 1] - t prod [k_i]) / (1 - t)^(2N + 1)
    for L in range(2, 42):
        expected = path_end_counts(L, (L + 1) // 2, 60), path_end_counts(L, L // 2, 60)
        assert _path_ends(L, 60) == expected, L
