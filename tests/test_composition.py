import pickle
import random
from collections import Counter
from itertools import combinations

import pytest

from oddbouquet.certify import sweep_compositions
from oddbouquet.composition import (
    bits,
    build_from_k,
    build_from_r,
    cycle_parts,
    labeled_graph,
)
from oddbouquet.toric import (
    _bouquet_branches,
    _hub_branches,
    _hub_counts,
    _pair_supports,
    edge_subring_hilbert_series,
    generators,
)
from reference import defined_parts

SWEEP = sweep_compositions(8, 16)  # 794 bouquets, up to 40 edges


def test_build_from_r_examples():
    c = build_from_r([1, 1, 1])
    assert (c.n, c.N, c.k) == (3, 6, (3, 2, 1))
    c = build_from_r([3])
    assert (c.n, c.N, c.k) == (3, 3, (1, 1, 1))
    c = build_from_r([0, 0, 1])
    assert (c.n, c.N, c.k) == (1, 3, (3,))


def test_build_from_r_trims_trailing_zeros():
    c = build_from_r([1, 2, 0, 0])
    assert c.r == (1, 2)
    assert c.k == (2, 2, 1)


def test_build_from_r_rejects_empty():
    for bad in ([], [0], [0, 0]):
        with pytest.raises(ValueError, match="empty composition"):
            build_from_r(bad)


def test_negative_cycle_counts_are_named():
    for bad in ([-1, 2], [1, -1], [0, -1], [-1]):
        with pytest.raises(ValueError, match="negative cycle count"):
            build_from_r(bad)


def test_build_from_k_examples():
    c = build_from_k([3, 2, 1])
    assert (c.r, c.n, c.N) == ((1, 1, 1), 3, 6)
    c = build_from_k([1])
    assert (c.r, c.n, c.N) == ((1,), 1, 1)
    c = build_from_k([2, 2])
    assert (c.r, c.n, c.N) == ((0, 2), 2, 4)


def test_build_from_k_preserves_order():
    assert build_from_k([1, 3, 2]).k == (1, 3, 2)


def test_build_from_k_rejects_bad_lengths():
    for bad in ([], [0], [2, 0], [-1]):
        with pytest.raises(ValueError, match="invalid cycle length"):
            build_from_k(bad)


def test_non_integer_lengths_and_counts_are_rejected_when_built():
    for build in (lambda: build_from_k([1.5]), lambda: build_from_k([2.0]),
                  lambda: build_from_r([0, 1.5])):
        with pytest.raises(TypeError):
            build()


def test_round_trip_r():
    for r in [(1, 1, 1), (3,), (0, 2), (1, 0, 1), (2, 0, 0, 1)]:
        c = build_from_r(r)
        assert build_from_k(c.k).r == c.r


def test_flat_index_order():
    c = build_from_k([3, 2, 1])
    assert c.flat_index(1, 1) == 0
    assert c.edge_labels[0] == (1, 1)
    # strictly increasing in (i, then j)
    assert list(c.edge_labels) == sorted(c.edge_labels)
    assert len(c.edge_labels) == c.edge_count == 15
    assert c.edge_name(0) == "x1,1"
    assert c.edge_name(14) == "x3,3"
    with pytest.raises(IndexError):
        c.flat_index(4, 1)
    with pytest.raises(IndexError):
        c.flat_index(1, 8)


def test_labeled_graph_counts():
    g = labeled_graph(build_from_k([1]))
    assert g.n_vertices == 3
    assert len(g.endpoints) == 3
    g = labeled_graph(build_from_k([3, 2, 1]))
    assert g.n_vertices == 13
    assert len(g.endpoints) == 15
    g = labeled_graph(build_from_k([1, 1]))
    assert g.n_vertices == 5
    assert len(g.endpoints) == 6


def test_labeled_graph_degrees_and_hub_edges():
    for k in [(1,), (2, 1), (3, 2, 1), (2, 2)]:
        c = build_from_k(k)
        g = labeled_graph(c)
        degree = Counter(v for edge in g.endpoints for v in edge)
        assert degree[0] == 2 * c.n
        for v in range(1, g.n_vertices):
            assert degree[v] == 2
        for i in range(1, c.n + 1):
            ki = c.k[i - 1]
            assert 0 in g.endpoints[c.flat_index(i, 1)]
            assert 0 in g.endpoints[c.flat_index(i, 2 * ki + 1)]
            for j in range(2, 2 * ki + 1):
                assert 0 not in g.endpoints[c.flat_index(i, j)]


def test_cycle_parts_examples():
    c = build_from_k([3, 2, 1])
    p1 = cycle_parts(c, 1)
    assert p1.odd == sum(1 << c.flat_index(1, j) for j in (1, 3, 5, 7))
    assert p1.even == sum(1 << c.flat_index(1, j) for j in (2, 4, 6))
    p3 = cycle_parts(c, 3)
    assert p3.odd == 1 << c.flat_index(3, 1) | 1 << c.flat_index(3, 3)
    assert p3.even == 1 << c.flat_index(3, 2)
    with pytest.raises(IndexError):
        cycle_parts(c, 0)
    with pytest.raises(IndexError):
        cycle_parts(c, 4)


def test_bits_lists_the_set_indices_ascending():
    assert bits(0) == []
    assert bits(0b1011) == [0, 1, 3]
    assert bits(1 << 70 | 1 << 2) == [2, 70]


def test_bits_matches_a_scan_of_every_position():
    def scan(mask):
        return [v for v in range(mask.bit_length()) if mask >> v & 1]

    rng = random.Random(23)
    masks = [0, 1 << 200 | 1, 2**64 - 1]
    masks += [sum(1 << v for v in rng.sample(range(size), rng.randint(0, min(size, 12))))
              for size in (rng.randint(1, 300) for _ in range(500))]
    for mask in masks:
        assert bits(mask) == scan(mask), mask


def test_cycle_parts_partition():
    for k in [(1,), (1, 1), (4, 3, 2, 1), (2, 2, 2)]:
        c = build_from_k(k)
        for i in range(1, c.n + 1):
            ki = c.k[i - 1]
            p = cycle_parts(c, i)
            assert p.odd.bit_count() == ki + 1
            assert p.even.bit_count() == ki
            assert not p.odd & p.even
            assert p.odd | p.even == sum(1 << c.flat_index(i, j) for j in range(1, 2 * ki + 2))


def test_size_identities():
    for k in [(1,), (6,), (3, 2, 1), (2, 2, 1, 1)]:
        c = build_from_k(k)
        assert sum(2 * ki + 1 for ki in c.k) == 2 * c.N + c.n == c.edge_count
        assert 1 + sum(2 * ki for ki in c.k) == 2 * c.N + 1 == c.vertex_count


# Per-bouquet structure: computed once per instance, equal to what its
# definition gives, and invisible to the value semantics.

def test_cached_parts_and_pair_supports_match_their_definitions():
    for c in SWEEP:
        parts = [defined_parts(c, i) for i in range(1, c.n + 1)]
        assert [(cycle_parts(c, i).odd, cycle_parts(c, i).even) for i in range(1, c.n + 1)] == parts
        pairs = tuple((p[0] | q[1], p[1] | q[0]) for p, q in combinations(parts, 2))
        assert _pair_supports(c) == pairs, c.k
        assert _pair_supports(c) is _pair_supports(c)


def test_labeled_graph_is_built_once_per_bouquet():
    for c in SWEEP:
        g = labeled_graph(c)
        assert labeled_graph(c) is g
        assert g == labeled_graph.__wrapped__(c) == labeled_graph(build_from_k(c.k))
        assert labeled_graph(build_from_k(c.k)) is not g


def test_cached_hub_split_gives_the_graph_series():
    for c in SWEEP:
        expected = _hub_counts(_hub_branches(labeled_graph(c)), 4)
        assert edge_subring_hilbert_series(c, 4) == expected, c.k
        assert _bouquet_branches(c) == tuple(2 * k + 1 for k in c.k)
        assert edge_subring_hilbert_series(c, 4) == expected  # from the warm split


def test_warm_caches_leave_value_semantics_alone():
    for c in SWEEP:
        gens = generators(c)
        edge_subring_hilbert_series(c, 2)
        labeled_graph(c)
        c.edge_labels
        fresh = build_from_k(c.k)
        assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
        assert pickle.dumps(c) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(c)).__dict__ == {}
        # generators are built afresh from the cached supports on every call
        again = generators(c)
        assert again == gens and again is not gens
        assert not any(a is b or a.plus is b.plus for a, b in zip(again, gens))
