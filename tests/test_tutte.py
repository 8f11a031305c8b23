import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttezero import (
    OutOfDomain,
    TooLarge,
    build_graph,
    connected_by_support,
    connected_gen_poly,
    nonzero_component_count,
    spanning_tree_gen_poly,
    z_polynomial,
)
from tuttezero import _kernels
from tuttezero.families import cycle_one_heavy
from tuttezero.polymer import polymer_profile
from tuttezero.tutte import spanning_tree_masks

from conftest import brute_connected_sum, dc_z_coeffs, kirchhoff_tree_sum


@st.composite
def random_graphs(draw, max_n=5, max_m=8, multigraph=True):
    """Connected-or-not random weighted graphs with complex weights."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        if not multigraph and any({u, v} == {a, b} for a, b, _ in edges):
            continue
        re = draw(st.floats(-2, 2, allow_nan=False, allow_infinity=False))
        im = draw(st.floats(-2, 2, allow_nan=False, allow_infinity=False))
        edges.append((u, v, complex(re, im)))
    return n, edges


@settings(max_examples=120, deadline=None)
@given(random_graphs())
def test_z_matches_deletion_contraction(data):
    n, edges = data
    g = build_graph(range(n), edges)
    mine = np.asarray(z_polynomial(g).coeffs)
    oracle = dc_z_coeffs(n, edges)
    scale = max(1.0, float(np.abs(oracle).max()))
    assert len(mine) == n + 1
    assert np.allclose(mine, oracle, rtol=0, atol=1e-10 * scale)


@settings(max_examples=80, deadline=None)
@given(random_graphs(max_n=5, max_m=7))
def test_monic_of_full_degree(data):
    n, edges = data
    g = build_graph(range(n), edges)
    coeffs = z_polynomial(g).coeffs
    assert coeffs[-1] == 1.0 + 0j


@settings(max_examples=80, deadline=None)
@given(random_graphs(max_n=5, max_m=7))
def test_low_coefficients_vanish_below_component_count(data):
    n, edges = data
    g = build_graph(range(n), edges)
    k = nonzero_component_count(g)
    coeffs = z_polynomial(g).coeffs
    # q^k divides Z exactly: the stripping is combinatorial, not numeric
    assert all(c == 0 for c in coeffs[:k])


def test_triangle_by_hand(triangle):
    # edge subsets: 1 empty (q^3), 3 singles (q^2), 3 pairs (q), 1 full (q)
    assert z_polynomial(triangle).coeffs == (0j, 4 + 0j, 3 + 0j, 1 + 0j)


def test_disjoint_union_multiplies():
    g1 = build_graph(range(2), [(0, 1, 2.0 + 1j)])
    g2 = build_graph(range(3), [(0, 1, -0.5j), (1, 2, 1.5)])
    both = build_graph(
        range(5), [(0, 1, 2.0 + 1j), (2, 3, -0.5j), (3, 4, 1.5)]
    )
    p = np.convolve(z_polynomial(g1).coeffs, z_polynomial(g2).coeffs)
    q = z_polynomial(both)
    assert np.allclose(p, q.coeffs, rtol=1e-13, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_n=4, max_m=6))
def test_connected_sum_against_brute_force(data):
    n, edges = data
    g = build_graph(range(n), edges)
    mine = connected_gen_poly(g)
    oracle = brute_connected_sum(n, edges)
    assert abs(mine - oracle) <= 1e-10 * max(1.0, abs(oracle))


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_n=5, max_m=8))
def test_tree_sum_against_kirchhoff(data):
    n, edges = data
    g = build_graph(range(n), edges)
    mine = spanning_tree_gen_poly(g)
    oracle = kirchhoff_tree_sum(n, edges)
    assert abs(mine - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_connected_by_support_triangle(triangle):
    supp = connected_by_support(triangle)
    # vertex-pair supports carry single edges, the full mask carries 4 sets
    assert supp[0b111] == 4.0 + 0j
    assert supp[0b011] == 1.0 + 0j
    assert len(supp) == 4


@st.composite
def generic_multigraphs(draw, max_n=5, max_m=9):
    """Multigraphs with parallel edges and weights of generic polar form.

    Moduli span four decades, so heavy and light edges mix; a drawn phase
    keeps the weights off the exact algebraic coincidences (such as
    (1 + w1)(1 + w2) = 1) at which a connected C vanishes.
    """
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    edges = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        r = 10.0 ** draw(st.floats(-2, 2))
        theta = draw(st.floats(-math.pi, math.pi))
        edges.append((u, v, cmath.rect(r, theta)))
        if draw(st.booleans()):
            edges.append((v, u, cmath.rect(r, -theta / 3)))
    return n, edges


def _induced(n, edges, mask):
    """Edges inside mask, relabelled onto 0..|mask|-1."""
    index = {v: i for i, v in enumerate(v for v in range(n) if mask >> v & 1)}
    return len(index), [
        (index[u], index[v], w) for u, v, w in edges if u in index and v in index
    ]


@settings(max_examples=50, deadline=None)
@given(generic_multigraphs())
def test_connected_by_support_against_brute_force(data):
    n, edges = data
    supp = connected_by_support(build_graph(range(n), edges))
    connected = set()
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        k, sub = _induced(n, edges, mask)
        oracle = brute_connected_sum(k, sub)
        # the same sum on moduli bounds every term, so it sets the scale
        scale = brute_connected_sum(k, [(u, v, abs(w)) for u, v, w in sub]).real
        if scale:  # a zero scale means no subset connects the mask
            connected.add(mask)
            assert abs(supp.get(mask, 0j) - oracle) <= 1e-10 * max(1.0, scale)
    assert set(supp) == connected


# BLOCK_BITS = 2 sends every edge past the second through the depth-first
# walk over high edges, which the default block size reaches only past 14
BLOCK_SIZES = [_kernels.BLOCK_BITS, 2]


@pytest.mark.parametrize("block_bits", BLOCK_SIZES)
@settings(max_examples=60, deadline=None)
@given(generic_multigraphs(max_m=6))
def test_z_coefficients_against_deletion_contraction(block_bits, data):
    n, edges = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK_BITS", block_bits)
        mine = _kernels.z_coefficients(n, edges)
    oracle = dc_z_coeffs(n, edges)
    # the same polynomial on moduli bounds every term of each coefficient
    scale = dc_z_coeffs(n, [(u, v, abs(w)) for u, v, w in edges]).real
    assert mine.shape == (n + 1,)
    assert np.all(np.abs(mine - oracle) <= 1e-12 * np.maximum(1.0, scale))


def _spanning_by_union_find(n, pairs):
    """Masks whose edges connect all n vertices, one union-find per mask."""
    out = []
    for mask in range(1 << len(pairs)):
        parent = list(range(n))
        comps = n
        for e, (u, v) in enumerate(pairs):
            if mask >> e & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    comps -= 1
        if comps == 1:
            out.append(mask)
    return out


@pytest.mark.parametrize("block_bits", BLOCK_SIZES)
@settings(max_examples=40, deadline=None)
@given(random_graphs(max_n=5, max_m=9))
def test_connected_spanning_count_against_union_find(block_bits, data):
    # at unit weights the q^1 coefficient counts the connected spanning sets
    n, edges = data
    pairs = [(u, v) for u, v, _ in edges]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK_BITS", block_bits)
        count = connected_gen_poly(build_graph(range(n), [(u, v, 1.0) for u, v in pairs]))
    assert count == len(_spanning_by_union_find(n, pairs))


@pytest.mark.parametrize("n, heavy, light", [(6, 1e6, 1e-6), (12, 1e4, 1e-4)])
def test_connected_by_support_survives_cancellation(n, heavy, light):
    # the vertex-subset recursion subtracts terms near 1e6 to leave C near
    # 1e-18; edge enumeration sums positive terms and is accurate here
    g = cycle_one_heavy(n, heavy, light)
    z = z_polynomial(g).coeffs
    c_full = connected_by_support(g)[(1 << n) - 1]
    assert abs(c_full - z[1]) <= 1e-9 * abs(z[1])
    prof = polymer_profile(g)
    for j in range(n):
        assert abs(prof[j] - z[n - j]) <= 1e-9 * abs(z[n - j])


def test_spanning_tree_masks_count():
    k4 = build_graph(range(4), [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)])
    assert len(spanning_tree_masks(k4.n, tuple((u, v) for u, v, _ in k4.edges))) == 16
    assert connected_gen_poly(k4) == 38


def test_too_many_edges_rejected():
    edges = []
    for u in range(8):
        for v in range(u + 1, 8):
            edges.append((u, v, 1.0))
    g = build_graph(range(8), edges)  # 28 edges > the enumeration cap
    with pytest.raises(TooLarge):
        z_polynomial(g)


def test_overflowing_coefficients_rejected():
    g = build_graph(range(3), [(0, 1, 1e200), (1, 2, 1e200)])  # C = 1e400
    with pytest.raises(OutOfDomain):
        z_polynomial(g)
    with pytest.raises(OutOfDomain):
        connected_gen_poly(g)


def test_too_many_vertices_for_support_table_rejected():
    # the vertex-subset recursion is O(3^n) whatever the edge count
    g = build_graph(range(13), [(i, i + 1, 1.0) for i in range(12)])
    with pytest.raises(TooLarge):
        connected_by_support(g)


def test_overflowing_support_table_rejected():
    g = build_graph(range(3), [(0, 1, 1e200), (1, 2, 1e200)])  # C(V) = 1e400
    with pytest.raises(OutOfDomain):
        connected_by_support(g)
    with pytest.raises(OutOfDomain):
        polymer_profile(g)
    # heavy and light weights send the table to the exact route, whose
    # rounding to floats overflows
    g = build_graph(range(3), [(0, 1, 1e300 + 1e300j), (1, 2, 1e300), (0, 2, 1e-300)])
    with pytest.raises(OutOfDomain):
        connected_by_support(g)


def test_zero_weight_edges_do_not_count_for_divisibility():
    g = build_graph(range(3), [(0, 1, 1.0), (1, 2, 0.0)])
    # the zero edge contributes nothing, so Z has a q^2 factor
    assert nonzero_component_count(g) == 2
    coeffs = z_polynomial(g).coeffs
    assert coeffs[0] == 0 and coeffs[1] == 0
