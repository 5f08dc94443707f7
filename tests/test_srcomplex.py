import random
from itertools import permutations, product
from types import SimpleNamespace

import pytest

from oddbouquet import certify, srcomplex
from oddbouquet.certify import sweep_compositions
from oddbouquet.composition import build_from_k, cycle_parts
from oddbouquet.ringinv import h_closed_form, multiplicity
from oddbouquet.srcomplex import (
    FVector,
    SimplicialComplex,
    f_vector,
    facets_brute_force,
    facets_closed_form,
    h_from_f,
    hilbert_from_h,
    shelling_h_vector,
    verify_decomposition,
)
from oddbouquet.toric import generators
from reference import f_from_h, trimmed

SWEEP_KS = [
    (1,), (2,), (3,),
    (1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1),
    (1, 1, 1, 1),
    # cycle order matters for facet enumeration, so cover non-descending orders
    (1, 2), (1, 3), (2, 3), (1, 2, 1), (2, 1, 2),
]


def test_single_cycle_is_full_simplex():
    c = build_from_k([1])
    cx = facets_closed_form(c)
    assert cx.facets == (0b111,)


def test_worked_example_facets():
    c = build_from_k([3, 2, 1])
    cx = facets_closed_form(c)
    assert len(cx.facets) == 18
    assert all(f.bit_count() == 13 for f in cx.facets)
    # every facet keeps exactly one cycle whole; group sizes follow the pivot
    by_pivot = {1: 0, 2: 0, 3: 0}
    for f in cx.facets:
        whole = [
            i
            for i in range(1, 4)
            if (cycle_parts(c, i).odd | cycle_parts(c, i).even) & ~f == 0
        ]
        assert len(whole) == 1
        by_pivot[whole[0]] += 1
    assert by_pivot == {1: 2, 2: 4, 3: 12}


def test_all_triangle_facets_match_pattern():
    # with only triangles, each facet picks a pivot j, one odd edge from every
    # earlier cycle, keeps the odd pairs of cycles j..n-1, and the even edges
    # of cycles 2..j; the odd pair of cycle n and even edge of cycle 1 always sit inside
    c = build_from_k([1, 1, 1])
    expected = set()
    for j in range(1, 4):
        z_choices = [
            [{c.flat_index(i, 1)}, {c.flat_index(i, 3)}] for i in range(1, j)
        ]
        for zs in product(*z_choices):
            facet = set()
            for z in zs:
                facet |= z
            for i in range(j, 3):
                facet |= {c.flat_index(i, 1), c.flat_index(i, 3)}
            for i in range(2, j + 1):
                facet.add(c.flat_index(i, 2))
            facet |= {c.flat_index(3, 1), c.flat_index(3, 3), c.flat_index(1, 2)}
            expected.add(sum(1 << v for v in facet))
    assert set(facets_closed_form(c).facets) == expected


def test_closed_form_matches_brute_force():
    for k in SWEEP_KS:
        c = build_from_k(k)
        closed = facets_closed_form(c)
        brute = facets_brute_force([g.plus.mask for g in generators(c)], c.edge_count)
        assert set(closed.facets) == set(brute.facets), k


def test_closed_form_counts_and_sizes():
    for k in SWEEP_KS:
        c = build_from_k(k)
        cx = facets_closed_form(c)
        assert len(cx.facets) == multiplicity(c), k
        assert all(f.bit_count() == c.vertex_count for f in cx.facets), k


def test_closed_form_families_never_overlap():
    # an overlap raises ValueError, so building every sweep complex is the check
    for k in SWEEP_KS:
        cx = facets_closed_form(build_from_k(k))
        assert len(set(cx.facets)) == len(cx.facets), k


def test_closed_form_overlap_raises(monkeypatch):
    # list every one-edge drop twice, so every facet comes out more than
    # once, as from two overlapping families
    drops = srcomplex._drops
    monkeypatch.setattr(srcomplex, "_drops", lambda part: drops(part) * 2)
    with pytest.raises(ValueError, match="contained in another facet"):
        facets_closed_form(build_from_k([2, 1]))


def test_closed_form_builds_each_drop_list_once(monkeypatch):
    # one drop list per odd part of cycles 1..n-1 (the prefixes) and one per
    # even part of cycles 2..n (the suffixes), however many prefixes there are
    drops, calls = srcomplex._drops, []
    monkeypatch.setattr(srcomplex, "_drops", lambda part: calls.append(part) or drops(part))
    for c in sweep_compositions(5, 8):
        calls.clear()
        facets_closed_form(c)
        assert len(calls) == 2 * (c.n - 1), c.k


def test_brute_force_no_generators():
    cx = facets_brute_force([], 4)
    assert cx.facets == (0b1111,)


def test_brute_force_guards():
    with pytest.raises(ValueError, match="too large"):
        facets_brute_force([], 19)


def test_simplicial_complex_validates():
    with pytest.raises(ValueError):
        SimplicialComplex(3, (0b001, 0b011))
    with pytest.raises(ValueError):
        SimplicialComplex(2, (1 << 5,))
    with pytest.raises(ValueError, match="outside"):
        SimplicialComplex(2, (-1,))
    # one size: containment is equality, caught by the duplicate check
    with pytest.raises(ValueError, match="contained"):
        SimplicialComplex(3, (0b011, 0b110, 0b011))
    # mixed sizes: a smaller facet inside a later, larger one
    with pytest.raises(ValueError, match="contained"):
        SimplicialComplex(4, (0b0111, 0b1000, 0b1100))
    SimplicialComplex(4, (0b0111, 0b1100))


def test_f_vector_full_simplex():
    cx = SimplicialComplex(3, (0b111,))
    assert f_vector(cx).counts == (1, 3, 3, 1)


def test_f_vector_examples():
    c = build_from_k([1, 1])
    fv = f_vector(facets_closed_form(c))
    assert fv.counts[0] == 1
    assert fv.counts[1] == 6
    c = build_from_k([3, 2, 1])
    fv = f_vector(facets_closed_form(c))
    assert fv.counts[0] == 1
    assert fv.counts[1] == 15
    assert fv.max_cardinality == 13
    assert fv.counts[13] == 18


def test_h_from_f_full_simplex():
    for ground in (3, 7):
        cx = SimplicialComplex(ground, ((1 << ground) - 1,))
        assert h_from_f(f_vector(cx), ground) == (1,)


def test_h_from_f_examples():
    c = build_from_k([1, 1, 1])
    h = h_from_f(f_vector(facets_closed_form(c)), c.vertex_count)
    assert h == (1, 2, 3, 1)
    c = build_from_k([3, 2, 1])
    h = h_from_f(f_vector(facets_closed_form(c)), c.vertex_count)
    assert h == (1, 2, 3, 4, 4, 3, 1)


def test_hilbert_from_h_examples():
    from math import comb

    # full simplex on 3 vertices: polynomial ring in 3 variables
    assert [hilbert_from_h((1,), 3, d) for d in range(5)] == [comb(d + 2, 2) for d in range(5)]
    # two triangles: h = 1 + t + t^2 over (1-t)^5; in degree 3 all C(8,3)
    # monomials in the 6 edges but the one cubic generator survive
    c = build_from_k([1, 1])
    h = h_closed_form(c)
    assert h == (1, 1, 1)
    assert [hilbert_from_h(h, c.vertex_count, d) for d in range(4)] == [1, 6, 21, 55]
    with pytest.raises(ValueError, match="nonnegative"):
        hilbert_from_h((1,), 3, -1)


def test_hilbert_from_h_reads_only_the_coefficients_of_h(monkeypatch):
    # h_i = 0 above deg h, so a degree far above deg h reads no more of h;
    # the edge subring counter checks the value the shortened sum gives
    from oddbouquet.toric import edge_subring_hilbert_series

    c = build_from_k([1, 1, 1])
    h, V = h_closed_form(c), c.vertex_count
    want = edge_subring_hilbert_series(c, 40)
    reads = []

    class Recorded(tuple):
        # every entry handed out, by index, by slice or by iteration
        def __getitem__(self, i):
            out = super().__getitem__(i)
            reads.extend(out if isinstance(i, slice) else [out])
            return out

        def __iter__(self):
            for hi in super().__iter__():
                reads.append(hi)
                yield hi

    for d in (0, 1, 2, 40):
        reads.clear()
        assert hilbert_from_h(Recorded(h), V, d) == want[d], d
        assert 0 < len(reads) <= min(d + 1, len(h)), d


def test_h_from_f_dimension_guard():
    fv = FVector(counts=(1, 3, 3, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        h_from_f(fv, 2)


def test_f_h_round_trip_holds_exactly_up_to_degree_d():
    # why verify's fvec column checks deg h <= V and not the round trip: for
    # any signed h the round trip through f_from_h holds iff deg h <= d
    rng = random.Random(11)
    for _ in range(500):
        d = rng.randrange(0, 6)
        h = trimmed(rng.randrange(-3, 4) for _ in range(rng.randrange(0, 9)))
        round_trip = h_from_f(f_from_h(h, d), d) == h
        assert round_trip == (len(h) <= d + 1), (h, d)


def test_complex_route_agrees_with_formula():
    for k in SWEEP_KS:
        c = build_from_k(k)
        h = h_from_f(f_vector(facets_closed_form(c)), c.vertex_count)
        assert h == h_closed_form(c), k


def test_face_counts_predict_monomial_counts():
    # third route: the number of degree-d monomials outside the ideal equals
    # sum over face cardinalities i of (faces of size i) * C(d-1, i-1)
    from math import comb

    from oddbouquet.toric import standard_monomial_count

    for k in [(1, 1), (2, 1), (1, 1, 1), (3, 2, 1)]:
        c = build_from_k(k)
        fv = f_vector(facets_closed_form(c))
        for d in range(5):
            if d == 0:
                expected = 1
            else:
                expected = sum(
                    fv.counts[i] * comb(d - 1, i - 1)
                    for i in range(1, len(fv.counts))
                )
            assert standard_monomial_count(c, d) == expected, (k, d)


def _decompose(k):
    """verify_decomposition of bouquet k with its own closed-form complex."""
    c = build_from_k(k)
    return verify_decomposition(c, facets_closed_form(c))


def test_decomposition_small_cases():
    rep = _decompose([2, 1])
    assert rep.ok
    assert _decompose([3, 2, 1]).ok


def test_decomposition_single_cycle():
    assert _decompose([2]).ok
    assert _decompose([4]).ok


def test_decomposition_longer_later_cycle():
    # only cycle 1 needs to be extendable; later cycles may be longer
    assert _decompose([2, 3]).ok
    assert _decompose([2, 3, 1]).ok


def test_decomposition_sweep():
    for k in SWEEP_KS:
        if k[0] >= 2:
            assert _decompose(k).ok, k


def test_decomposition_requires_long_first_cycle():
    with pytest.raises(ValueError, match="not extendable"):
        _decompose([1, 1])
    with pytest.raises(ValueError, match="not extendable"):
        _decompose([1, 2])


def test_verify_builds_the_bouquet_complex_once(monkeypatch):
    # decompose takes the complex that verify already holds, and builds only
    # those of the shorter bouquet and of the bouquet with cycle 1 dropped
    built = []

    def counting(comp, original=srcomplex.facets_closed_form):
        built.append(comp.k)
        return original(comp)

    monkeypatch.setattr(srcomplex, "facets_closed_form", counting)
    monkeypatch.setattr(certify, "facets_closed_form", counting)
    rng = SimpleNamespace(hilbert_degree=4)
    statuses = certify.verify_composition(build_from_k((3, 2, 1)), rng)
    assert set(statuses.values()) == {"ok"}
    assert sorted(built) == [(2, 1), (2, 2, 1), (3, 2, 1)]


def test_shelling_matches_f_vector_reference_every_order():
    # every cycle order of every bouquet with at most 16 edges (64 orders)
    orders = {
        order
        for c in sweep_compositions(5, 7)
        if c.edge_count <= 16
        for order in permutations(c.k)
    }
    assert len(orders) == 64
    for order in orders:
        c = build_from_k(order)
        cx = facets_closed_form(c)
        assert shelling_h_vector(cx.facets) == h_from_f(f_vector(cx), c.vertex_count), order


def test_shelling_full_simplex_and_path():
    assert shelling_h_vector([0b111]) == (1,)
    # path 0-1-2-3 in its natural order: restrictions {}, {2}, {3}
    assert shelling_h_vector([0b0011, 0b0110, 0b1100]) == (1, 2)


def test_shelling_rejects_non_shelling_order():
    # the same path with the two end edges first: {0,1} and {2,3} are disjoint
    with pytest.raises(ValueError, match="not a shelling at facet 2"):
        shelling_h_vector([0b0011, 0b1100, 0b0110])


def test_shelling_rejects_repeated_and_impure_facets():
    with pytest.raises(ValueError, match="repeated"):
        shelling_h_vector([0b011, 0b110, 0b011])
    with pytest.raises(ValueError, match="not pure"):
        shelling_h_vector([0b011, 0b100])
