"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its exact tolerance (everything
here is integer arithmetic, so tolerance means equality) and prints a single
PASS/FAIL line with its runtime.  The shared sweep covers every k-multiset
with n <= 4 and N <= 6; criteria that need them add the all-triangle cases
up to n = 6.
"""

import time
from itertools import combinations

from oddbouquet.certify import sweep_compositions
from oddbouquet.composition import bits, build_from_k, cycle_parts, labeled_graph
from oddbouquet.ringinv import (
    classify,
    cm_type,
    e_tilde_closed,
    h_closed_form,
    h_recursive,
    multiplicity,
)
from oddbouquet.srcomplex import f_vector, facets_closed_form, h_by_complex, verify_decomposition
from oddbouquet.toric import (
    edge_subring_hilbert,
    generators,
    kernel_check,
    s_pair_reduces_to_zero,
    standard_monomial_count,
)
from reference import mono, poly_reverse

SWEEP = sweep_compositions(4, 6)
TRIANGLE_EXTRAS = [build_from_k((1,) * n) for n in (5, 6)]


class _Timer:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} [{verdict}] {self.description} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def _mask(indices):
    return sum(1 << v for v in set(indices))


def test_criterion_1_worked_example():
    with _Timer(1, "worked example k=(3,2,1)", 1.0):
        c = build_from_k([3, 2, 1])

        assert [g.plus for g in generators(c)] == [
            mono(c, [(1, 1), (1, 3), (1, 5), (1, 7), (2, 2), (2, 4)]),
            mono(c, [(1, 1), (1, 3), (1, 5), (1, 7), (3, 2)]),
            mono(c, [(2, 1), (2, 3), (2, 5), (3, 2)]),
        ]

        # expected facets, expanded pivot by pivot from the displayed families
        o = {i: bits(cycle_parts(c, i).odd) for i in (1, 2, 3)}
        e = {i: bits(cycle_parts(c, i).even) for i in (1, 2, 3)}
        expected = set()
        for w in e[2]:                      # pivot 1: drop one even edge of cycle 2
            expected.add(_mask(o[1] + o[2] + [w] + o[3] + e[1]))
        for z1 in combinations(o[1], 3):    # pivot 2: drop one odd edge of cycle 1
            expected.add(_mask(list(z1) + o[2] + e[2] + o[3] + e[1]))
        for z1 in combinations(o[1], 3):    # pivot 3: drop odd edges of cycles 1 and 2
            for z2 in combinations(o[2], 2):
                expected.add(_mask(list(z1) + list(z2) + e[2] + e[3] + o[3] + e[1]))
        assert len(expected) == 18
        assert set(facets_closed_form(c).facets) == expected

        h = h_closed_form(c)
        assert h == (1, 2, 3, 4, 4, 3, 1)
        assert h_recursive(c) == h
        assert h_by_complex(c) == h

        rep = classify(c)
        assert rep.cm_type == 2
        assert rep.e_tilde == 6
        assert not rep.is_almost_gorenstein


def test_criterion_2_h_vector_sweep():
    with _Timer(2, "complex route equals closed form over the sweep", 30.0):
        for c in SWEEP + TRIANGLE_EXTRAS:
            assert h_by_complex(c) == h_closed_form(c), c.k


def test_criterion_3_groebner_certification():
    with _Timer(3, "S-pair reduction and Hilbert agreement over the sweep", 60.0):
        for c in SWEEP:
            basis = generators(c)
            graph = labeled_graph(c)
            for b in basis:
                assert kernel_check(b, graph), c.k
            for f, g in combinations(basis, 2):
                assert s_pair_reduces_to_zero(f, g, basis), c.k
            for d in range(5):
                assert standard_monomial_count(c, d) == edge_subring_hilbert(c, d), (
                    c.k, d,
                )


def test_criterion_4_decomposition():
    with _Timer(4, "two-edge extension decomposition over the sweep", 10.0):
        checked = 0
        for c in SWEEP:
            if c.k[0] >= 2:
                assert verify_decomposition(c, facets_closed_form(c)).ok, c.k
                checked += 1
        assert checked > 0


def test_criterion_5_classification_sweep():
    with _Timer(5, "almost Gorenstein characterization over the sweep", 5.0):
        for c in SWEEP + TRIANGLE_EXTRAS:
            rep = classify(c)
            assert rep.is_almost_gorenstein == (cm_type(c) - 1 == rep.e_tilde), c.k
            assert rep.is_almost_gorenstein == (c.n <= 2 or c.N == c.n), c.k
            if c.n >= 3:
                assert rep.e_tilde == e_tilde_closed(c), c.k
            assert rep.is_gorenstein == (poly_reverse(rep.h, rep.s) == rep.h), c.k
            assert rep.is_gorenstein == (c.n <= 2), c.k


def test_criterion_6_base_cases():
    with _Timer(6, "single-cycle and two-cycle base cases", 5.0):
        for k in range(1, 7):
            assert h_closed_form(build_from_k([k])) == (1,), k
        for k1 in range(1, 6):
            for k2 in range(1, k1 + 1):
                if k1 + k2 > 6:
                    continue
                c = build_from_k([k1, k2])
                h = h_closed_form(c)
                assert poly_reverse(h, len(h) - 1) == h, (k1, k2)
                assert classify(c).is_gorenstein, (k1, k2)


def test_criterion_7_property_suite():
    with _Timer(7, "facet and h-vector structural properties", 30.0):
        for c in SWEEP + TRIANGLE_EXTRAS:
            cx = facets_closed_form(c)
            h = h_closed_form(c)
            assert all(f.bit_count() == 2 * c.N + 1 for f in cx.facets), c.k
            assert len(cx.facets) == multiplicity(c) == sum(h), c.k
            if c.n >= 2:
                assert h[1] == c.n - 1, c.k
                assert len(h) - 1 == c.N, c.k
            fv = f_vector(cx)
            assert fv.counts[0] == 1, c.k
            assert fv.counts[1] == 2 * c.N + c.n, c.k
