import numpy as np
import pytest

from tuttezero import (
    BadIndex,
    Disconnected,
    NotATree,
    NotSimple,
    TooLarge,
    build_graph,
    connected_gen_poly,
    enumerate_spanning_trees,
    extended_penrose_bounds,
    penrose_identity_eval,
    penrose_map,
    verify_partition,
)
from tuttezero.families import complete_graph, connected_simple_structures, cycle_graph


def _rand_graph(n, pairs, rng):
    ws = [complex(a, b) for a, b in rng.normal(0, 1.2, (len(pairs), 2))]
    return build_graph(range(n), [(u, v, w) for (u, v), w in zip(pairs, ws)])


def test_triangle_partition_counts(triangle):
    rep = verify_partition(triangle, 0)
    assert rep.passed
    assert rep.tree_count == 3
    assert rep.connected_count == 4
    assert sorted(rep.interval_sizes) == [1, 1, 2]


def test_k4_partition_counts():
    rep = verify_partition(complete_graph(4, 1.0), 0)
    assert rep.passed
    assert rep.tree_count == 16
    assert rep.connected_count == 38


def test_partition_interval_sizes_sum():
    g = complete_graph(5, 1.0)
    rep = verify_partition(g, 2)
    assert rep.passed
    assert sum(rep.interval_sizes) == rep.connected_count == 728
    assert rep.tree_count == 125


def test_partition_all_roots_small_sample():
    for n, pairs in connected_simple_structures(4):
        g = build_graph(range(n), [(u, v, 1.0) for u, v in pairs])
        for root in range(n):
            assert verify_partition(g, root).passed


def test_penrose_map_contains_tree_and_avoids_root_edges():
    g = complete_graph(4, 1.0)
    pairs = tuple((u, v) for u, v, _ in g.edges)
    for tree in enumerate_spanning_trees(g):
        r = penrose_map(g, tree, 0)
        assert r & tree == tree
        # added edges never touch the root: its generation-one children
        # cannot gain same-generation or back edges pointing at it
        for i in range(g.m):
            if (r & ~tree) >> i & 1:
                u, v = pairs[i]
                assert 0 not in (u, v)


def test_penrose_map_rejects_non_tree():
    g = cycle_graph(4, 1.0)
    with pytest.raises(NotATree):
        penrose_map(g, (1 << g.m) - 1, 0)


def test_penrose_map_rejects_mask_outside_host():
    g = cycle_graph(4, 1.0)
    tree = enumerate_spanning_trees(g)[0]
    # same popcount as a tree, one bit moved past the last edge
    stray = tree & (tree - 1) | 1 << g.m
    for mask in (stray, -1):
        with pytest.raises(BadIndex):
            penrose_map(g, mask, 0)


def test_penrose_map_rejects_multigraph():
    g = build_graph(range(2), [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(NotSimple):
        verify_partition(g, 0)


def test_partition_needs_connected_graph():
    g = build_graph(range(4), [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(Disconnected):
        verify_partition(g, 0)


def test_identity_rejects_too_many_edges():
    with pytest.raises(TooLarge):
        penrose_identity_eval(complete_graph(8, 1.0))  # 28 edges


def test_identity_matches_connected_sum(rng):
    for n, pairs in connected_simple_structures(4):
        for _ in range(10):
            g = _rand_graph(n, pairs, rng)
            lhs = penrose_identity_eval(g, 0)
            rhs = connected_gen_poly(g)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs), abs(lhs))


def test_identity_independent_of_root(rng):
    n, pairs = 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    g = _rand_graph(n, pairs, rng)
    vals = [penrose_identity_eval(g, r) for r in range(n)]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-10 * max(1.0, abs(vals[0]))


def test_bound_chain_ordering(rng):
    for n, pairs in connected_simple_structures(4):
        for _ in range(5):
            g = _rand_graph(n, pairs, rng)
            for root in range(n):
                b = extended_penrose_bounds(g, root)
                for chain in (b.chain_all(), b.chain_rooted()):
                    for x, y in zip(chain, chain[1:]):
                        assert x <= y * (1 + 1e-9) + 1e-300


def test_bounds_start_at_connected_magnitude(rng):
    n, pairs = 4, [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = _rand_graph(n, pairs, rng)
    b = extended_penrose_bounds(g, 0)
    assert abs(b.lhs - abs(connected_gen_poly(g))) <= 1e-12 * max(1.0, b.lhs)


def test_partition_report_json(triangle):
    rep = verify_partition(triangle, 0)
    assert rep.tree_count == 3
    assert rep.connected_count == 4
    assert rep.disjoint and rep.covering
