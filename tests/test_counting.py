import math
from itertools import combinations

import numpy as np
import pytest

from tuttezero import (
    BadIndex,
    OutOfDomain,
    build_graph,
    c_m,
    c_m_table,
    cmk,
    counting_bound_rooted,
    counting_bound_sokal,
    counting_recursion_rhs,
    subset_weight_sum,
    tree_function,
    tree_function_u,
)
from tuttezero.families import connected_simple_structures, path_graph


def brute_c_m(n, pairs, x, m):
    """Count m-edge subsets whose edges form a connected subgraph holding x."""
    if m == 0:
        return 1
    count = 0
    for combo in combinations(range(len(pairs)), m):
        verts = set()
        for i in combo:
            verts.update(pairs[i])
        if x not in verts:
            continue
        parent = {v: v for v in verts}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in combo:
            u, v = pairs[i]
            parent[find(u)] = find(v)
        if len({find(v) for v in verts}) == 1:
            count += 1
    return count


def test_counts_match_brute_force_everywhere():
    for n, pairs in connected_simple_structures(5):
        g = build_graph(range(n), [(u, v, 1.0) for u, v in pairs])
        for x in range(n):
            table = c_m_table(g, x, min(len(pairs), 6))
            for m, got in enumerate(table):
                assert got == brute_c_m(n, pairs, x, m), (n, pairs, x, m)


def test_triangle_by_hand(triangle):
    assert c_m_table(triangle, 0, 3) == [1, 2, 3, 1]


def test_star_center_versus_leaf():
    g = build_graph(range(4), [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    assert c_m_table(g, 0, 3) == [1, 3, 3, 1]
    assert c_m_table(g, 1, 3) == [1, 1, 2, 1]


def test_c_m_beyond_edge_count_is_zero(triangle):
    assert c_m(triangle, 0, 3) == 1
    assert c_m(triangle, 1, 4) == 0


def test_c_m_input_validation(triangle):
    with pytest.raises(BadIndex):
        c_m(triangle, 7, 1)
    with pytest.raises(OutOfDomain):
        c_m(triangle, 0, -1)


def test_cmk_small_values():
    assert cmk(0, 1.0) == 1.0
    assert cmk(1, 1.0) == 1.0
    assert abs(cmk(2, 1.0) - 1.5) < 1e-15
    assert abs(cmk(3, 1.0) - 8.0 / 3.0) < 1e-14
    # kappa = 1 gives the Sokal coefficients (m+1)^(m-1)/m!
    for m in range(9):
        assert abs(cmk(m, 1.0) - (m + 1) ** (m - 1) / math.factorial(m)) < 1e-12 * cmk(m, 1.0)


def test_cmk_log_route_consistent_with_direct():
    for m in (21, 24, 30):
        direct = 2.0 * (m + 2.0) ** (m - 1) / math.factorial(m)
        assert abs(cmk(m, 2.0) - direct) < 1e-9 * direct


def test_sokal_coefficient_exponential_ceiling():
    for m in range(31):
        assert (m + 1) ** (m - 1) / math.factorial(m) <= math.e ** m


def test_sokal_bound_weak_variant_dominates():
    for m in range(9):
        for delta in (0.5, 1.0, 3.0):
            strong = counting_bound_sokal(delta, m)
            weak = counting_bound_sokal(delta, m, weak=True)
            assert strong <= weak * (1 + 1e-12)


def test_rooted_bound_formula():
    d, big_d, m = 3.0, 4.0, 5
    want = d * (d + m * big_d) ** (m - 1) / math.factorial(m)
    assert abs(counting_bound_rooted(d, big_d, m) - want) < 1e-12 * want
    assert counting_bound_rooted(d, big_d, 0) == 1.0


def test_recursion_dominates_path():
    g = path_graph(4, 1.0)
    for x in range(4):
        for m in range(1, 4):
            assert c_m(g, x, m) <= counting_recursion_rhs(g, x, m) * (1 + 1e-9)


def test_subset_weight_sum_exact_small():
    ws = [0.5, 1.5, 2.0]
    assert abs(subset_weight_sum(ws, 2) - (0.75 + 1.0 + 3.0)) < 1e-14
    assert subset_weight_sum(ws, 0) == 1.0
    assert subset_weight_sum(ws, 4) == 0.0


def test_subset_weight_sum_power_ceiling(rng):
    for _ in range(25):
        ws = list(rng.uniform(0, 3, int(rng.integers(1, 8))))
        f = int(rng.integers(0, len(ws) + 1))
        assert subset_weight_sum(ws, f) <= sum(ws) ** f / math.factorial(f) + 1e-12


def test_tree_function_fixed_points():
    for c in (0.1, 0.3, 0.5, 0.8, 0.95):
        x = c * math.exp(-c)
        assert abs(tree_function(x) - c) < 1e-9
    assert tree_function(0.0) == 0.0


def test_tree_function_at_branch_point():
    # T(1/e) = 1 with the truncation error of order 2/sqrt(2 pi N)
    n_terms = 200_000
    got = tree_function(1 / math.e, n_terms)
    assert abs(got - 1.0) < 2.5 / math.sqrt(2 * math.pi * n_terms)


def test_tree_function_domain():
    with pytest.raises(OutOfDomain):
        tree_function(0.5)
    with pytest.raises(OutOfDomain):
        tree_function(-0.1)


def test_tree_function_u_normalization():
    assert tree_function_u(0.0) == 1.0
    z = 0.2
    assert abs(tree_function_u(z) - tree_function(z) / z) < 1e-12
