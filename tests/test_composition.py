from collections import Counter

import pytest

from oddbouquet.composition import (
    bits,
    build_from_k,
    build_from_r,
    cycle_parts,
    labeled_graph,
)


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
    with pytest.raises(ValueError):
        build_from_r([-1, 2])


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
