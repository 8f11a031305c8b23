import cmath
import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttezero import (
    OutOfDomain,
    TooLarge,
    analyze,
    build_graph,
    connected_by_support,
    connected_gen_poly,
    nonzero_component_count,
    spanning_tree_gen_poly,
    z_polynomial,
)
from tuttezero import _kernels, families
from tuttezero.families import cycle_one_heavy
from tuttezero.graph import parallel_reduce
from tuttezero.polymer import polymer_profile, tutte_polymer_weights
from tuttezero.tutte import _bridge_split, _z_polynomials, component_count, spanning_tree_masks
from tuttezero.verify import verify_polymer_identity, verify_zero_free

from conftest import (
    brute_connected_sum,
    dc_z_coeffs,
    fraction_connected_table,
    kirchhoff_tree_sum,
)


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


@st.composite
def sparse_multigraphs(draw, max_n=7, max_m=9):
    """Multigraphs whose edges may miss some vertices, with zero weights."""
    n = draw(st.integers(1, max_n))
    edges = []
    for _ in range(draw(st.integers(0, max_m))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, draw(st.sampled_from([0j, 1.0, -0.5 + 2j]))))
    return n, edges


@pytest.mark.parametrize("block_bits", BLOCK_SIZES)
@settings(max_examples=60, deadline=None)
@given(sparse_multigraphs())
def test_layout_component_counts(block_bits, data):
    # every block's order sorts the component counts of its masks stably
    # and its sizes count the masks at each k, whether the groupings are
    # streamed or held in a cache entry
    n, edges = data
    pairs = tuple((u, v) for u, v, _ in edges)
    b = min(block_bits, len(pairs))
    blocks = list(_kernels._blocks(n, pairs, b))
    assert sorted(high for high, _, _ in blocks) == list(range(1 << (len(pairs) - b)))
    assert blocks[0][0] == 0
    for high, order, sizes in blocks:
        k = np.array([component_count(n, list(pairs), low | high << b) for low in range(1 << b)])
        assert np.array_equal(order, np.argsort(k, kind="stable"))
        assert list(sizes) == np.bincount(k, minlength=n + 1).tolist()
    entry = _kernels._layout(n, pairs, b)
    assert len(entry) == len(blocks)
    for (high, order, sizes), (h, o, s) in zip(entry, blocks):
        assert (high, sizes) == (h, s) and np.array_equal(order, o)


def _layout_corpus():
    """Interleaved structures: a triangle, an 18-edge multigraph on 4
    vertices (so high blocks run) and a path with a zero-weight edge."""
    rng = np.random.default_rng(11)
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    shapes = [(3, [(0, 1), (1, 2), (0, 2)]), (4, k4 * 3), (4, [(0, 1), (1, 2), (2, 3)])]
    out = []
    for _ in range(3):
        for n, pairs in shapes:
            ws = families.sample_weights(len(pairs), "mixed", rng)
            if n == 4 and len(pairs) == 3:
                ws[1] = 0j
            out.append((n, [(u, v, w) for (u, v), w in zip(pairs, ws)]))
    return out


def test_z_coefficients_same_bits_with_warm_and_cold_layout_cache():
    corpus = _layout_corpus()
    assert max(len(e) for _, e in corpus) > _kernels.BLOCK_BITS
    cold = []
    for n, edges in corpus:
        _kernels._layout.cache_clear()
        cold.append(_kernels.z_coefficients(n, edges).tobytes())
    _kernels._layout.cache_clear()
    for _ in range(2):
        warm = [_kernels.z_coefficients(n, edges).tobytes() for n, edges in corpus]
        assert warm == cold
    assert _kernels._layout.cache_info().hits > 0


def test_z_coefficients_leaves_no_reference_cycle():
    # every object a call makes is freed by reference counting, so the
    # cyclic collector finds nothing to do after many calls
    edges = [(0, 1, 0.5 + 0.25j), (1, 2, -0.3j), (0, 2, 2.0)]
    _kernels.z_coefficients(3, edges)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            _kernels.z_coefficients(3, edges)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_layout_cache_stays_bounded():
    verify_polymer_identity(5, 4, n_q=2)
    info = _kernels._layout.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_walk_makes_no_join_at_the_last_edge():
    # K4 at BLOCK_BITS = 2: two joins build the first block, and the walk
    # over the four high edges joins on the with-branch of every edge but
    # the last, 2^0 + 2^1 + 2^2 = 7 times; a warm call reads the cached
    # groupings and joins nothing
    k4 = [(u, v, 0.5 + 0.25j * u) for u in range(4) for v in range(u + 1, 4)]
    calls = []
    join = _kernels._join
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "BLOCK_BITS", 2)
        mp.setattr(_kernels, "_join", lambda *a: calls.append(a) or join(*a))
        _kernels._layout.cache_clear()
        _kernels.z_coefficients(4, k4)
        assert len(calls) == 2 + 7
        _kernels.z_coefficients(4, k4)
    assert len(calls) == 2 + 7


def _cores(structures):
    """The distinct nonempty bridge-contracted cores, as layout keys."""
    out = []
    for n, pairs in structures:
        _, core_n, core, core_pairs = _bridge_split(n, pairs)
        if core and (core_n, core_pairs) not in out:
            out.append((core_n, core_pairs))
    return out


def test_zero_free_sweep_builds_each_layout_once():
    # the sweep loops regime, then structure, then draw: every structure
    # comes back once per regime, so the cache must hold the whole corpus
    _kernels._layout.cache_clear()
    verify_zero_free(5, 2, seed=0)
    first = _kernels._layout.cache_info().misses
    assert first == len(_cores(families.connected_simple_structures(5))) == 20
    verify_zero_free(5, 2, seed=0)
    assert _kernels._layout.cache_info().misses == first


def test_layout_cache_evicts_and_rebuilds_the_same_bits():
    structures = families.connected_simple_structures(6)
    assert len(_cores(structures)) > _kernels._layout.cache_info().maxsize

    def z(n, pairs):
        g = build_graph(range(n), [(u, v, 0.5 - 0.25j) for u, v in pairs])
        return np.array(z_polynomial(g).coeffs).tobytes()

    with_core = [(n, pairs) for n, pairs in structures if _bridge_split(n, pairs)[2]]
    _kernels._layout.cache_clear()
    first = [z(n, pairs) for n, pairs in with_core]
    info = _kernels._layout.cache_info()
    assert info.currsize == info.maxsize
    # the first core was evicted, so its layout is built again
    assert z(*with_core[0]) == first[0]
    assert _kernels._layout.cache_info().misses == info.misses + 1


CYCLE_12 = tuple((i, i + 1) for i in range(11)) + ((0, 11),)
CHORDS_12 = ((0, 6), (2, 8), (3, 9), (4, 10), (1, 7), (5, 11),
             (0, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9))


def _chorded_cycle(m):
    """A 12-cycle with m - 12 chords and fixed complex weights: a
    bridgeless core of m edges."""
    pairs = CYCLE_12 + CHORDS_12[:m - 12]
    return [(u, v, complex(0.5 - 0.1 * i, 0.3 * (-1) ** i)) for i, (u, v) in enumerate(pairs)]


def _layout_blocks_and_bytes(n, pairs):
    entry = _kernels._layout(n, pairs, min(_kernels.BLOCK_BITS, len(pairs)))
    assert all(len(grouping) == 3 for grouping in entry)  # no labels or counts
    return len(entry), sum(order.nbytes for _, order, _ in entry)


def test_layout_entry_size_is_bounded():
    # two bytes of order per mask and block: 2^4 blocks of 2^12 masks at
    # the cache limit, and a single order when every edge is in the first
    chorded = CYCLE_12 + CHORDS_12[:_kernels.CACHED_HIGH_EDGES]
    assert _layout_blocks_and_bytes(12, chorded) == (16, 131_072)
    assert _layout_blocks_and_bytes(12, CYCLE_12) == (1, 8_192)


@pytest.mark.parametrize("m", [17, 20])
def test_core_past_the_cache_limit_leaves_the_layout_cache_alone(m):
    edges = _chorded_cycle(m)
    assert m - _kernels.BLOCK_BITS > _kernels.CACHED_HIGH_EDGES
    _kernels.z_coefficients(12, edges)
    info = _kernels._layout.cache_info()
    _kernels.z_coefficients(12, edges)
    assert _kernels._layout.cache_info() == info


@pytest.mark.parametrize("m", [17, 20])
def test_streamed_core_has_the_bits_of_a_cached_one(m):
    edges = _chorded_cycle(m)
    streamed = _kernels.z_coefficients(12, edges).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "CACHED_HIGH_EDGES", m - _kernels.BLOCK_BITS)
        misses = _kernels._layout.cache_info().misses
        cached = _kernels.z_coefficients(12, edges).tobytes()
        assert _kernels._layout.cache_info().misses == misses + 1
    _kernels._layout.cache_clear()
    assert cached == streamed


def test_24_edge_core_streams_its_groupings():
    # kept, the 4096 orders of a 24-edge core take 32 MB (a 37 MB peak);
    # streamed, the call holds the products and labels of one path of the
    # walk and the 4096 block sums, about 2.6 MB
    edges = _chorded_cycle(24)
    tracemalloc.start()
    try:
        _kernels.z_coefficients(12, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def _z_bits(z):
    """Every bit of a Z record: coefficients, bridge weights and core."""
    return [(c.real.hex(), c.imag.hex()) for part in (z.coeffs, z.bridges, z.core) for c in part]


def _draws(structure, rows, seed=0):
    """rows graphs of one structure, under weights of every regime."""
    rng = np.random.default_rng(seed)
    m, regimes = len(structure[1]), families.WEIGHT_REGIMES
    return [families.weighted(structure, families.sample_weights(m, regimes[i % 3], rng))
            for i in range(rows)]


def _assert_batched_bits(graphs):
    assert [_z_bits(z) for z in _z_polynomials(graphs)] == [_z_bits(z_polynomial(g))
                                                            for g in graphs]


def test_batched_z_has_the_bits_of_single_calls_on_cached_cores():
    # every simple structure to 5 vertices: forests, bridged graphs and
    # bridgeless ones, in one pass per structure
    for structure in families.connected_simple_structures(5):
        _assert_batched_bits(_draws(structure, 7))
    # cores of 13 and 16 edges: blocks past the first, all cached
    for m in (13, 16):
        _assert_batched_bits(_draws((12, CYCLE_12 + CHORDS_12[:m - 12]), 3))


def test_batched_z_has_the_bits_of_single_calls_on_special_structures():
    forest = (5, ((0, 1), (1, 2), (1, 3), (3, 4)))
    bridged = (5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4)))
    multi = next(s for s in families.connected_multigraph_structures(3)
                 if _bridge_split(s[0], tuple(sorted(set(s[1]))))[0])
    for structure in (forest, bridged, multi):
        _assert_batched_bits(_draws(structure, 4))
    assert not _bridge_split(*forest)[2] and _bridge_split(*bridged)[0]


@pytest.mark.parametrize("row_subsets", [_kernels.ROW_SUBSETS, 1 << 18])
def test_batched_z_has_the_bits_of_single_calls_on_a_streamed_core(row_subsets):
    # 17 edges: one row per pass by default, two with a larger row bound
    pairs = CYCLE_12 + CHORDS_12[:5]
    assert len(pairs) - _kernels.BLOCK_BITS > _kernels.CACHED_HIGH_EDGES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "ROW_SUBSETS", row_subsets)
        _assert_batched_bits(_draws((12, pairs), 3))


def test_one_row_and_row_bound_split_keep_the_bits():
    graphs = _draws((4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))), 5)
    rows = [[w for _, _, w in g.edges] for g in graphs]
    single = [_kernels.z_coefficients(4, g.edges).tobytes() for g in graphs]
    passes = []
    z_sums = _kernels._z_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_z_sums", lambda n, p, w: passes.append(len(w)) or z_sums(n, p, w))
        assert _kernels.z_coefficient_rows(4, graphs[0].pairs, rows[:1])[0].tobytes() == single[0]
        # K4 walks 2^6 subsets a row: a bound of 2^7 takes two rows a pass
        mp.setattr(_kernels, "ROW_SUBSETS", 1 << 7)
        split = _kernels.z_coefficient_rows(4, graphs[0].pairs, rows)
    assert passes == [1, 2, 2, 1]
    assert [row.tobytes() for row in split] == single
    assert [_z_bits(z) for z in _z_polynomials(graphs[:1])] == [_z_bits(z_polynomial(graphs[0]))]


def test_batched_z_refuses_an_overflowing_row_without_a_warning():
    triangle = (3, ((0, 1), (1, 2), (0, 2)))
    graphs = [families.weighted(triangle, ws) for ws in ([0.5] * 3, [1e200] * 3, [2j] * 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomain, match=_kernels.Z_OVERFLOW):
            _z_polynomials(graphs)


def test_batched_z_refuses_graphs_of_different_structures():
    triangle = build_graph(range(3), [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
    path = build_graph(range(3), [(0, 1, 0.5), (1, 2, 0.5)])
    wider = build_graph(range(4), [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
    for other in (path, wider):
        with pytest.raises(OutOfDomain, match="one edge structure"):
            _z_polynomials([triangle, other])
    assert _z_polynomials([]) == []


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


def test_multigraph_z_is_accurate_against_exact_connected_value():
    # a multigraph is summed over its parallel-reduced graph: at most six
    # edges here instead of up to 18, so q^1 stays near the exact C(V)
    rng = np.random.default_rng(0)
    for n, pairs in families.connected_multigraph_structures(4):
        ws = families.sample_weights(len(pairs), "mixed", rng)
        edges = [(u, v, w) for (u, v), w in zip(pairs, ws)]
        z = np.asarray(z_polynomial(build_graph(range(n), edges)).coeffs)
        exact = _kernels._exact_table(n, edges, _kernels._induced_connected(n, edges))
        c_full = exact[(1 << n) - 1] if n > 1 else 1
        assert abs(z[1] - c_full) <= 1e-13 * abs(c_full), (n, pairs)
        # the oracle on moduli sums |monomial| per coefficient, which
        # bounds the rounding of any summation order
        oracle = dc_z_coeffs(n, edges)
        scale = dc_z_coeffs(n, [(u, v, abs(w)) for u, v, w in edges]).real
        gamma = 4 * (len(edges) + n) * 2.0 ** -53
        assert np.all(np.abs(z - oracle) <= gamma * scale), (n, pairs)


def test_parallel_class_merging_to_zero():
    # (1 + 1)(1 - 0.5) - 1 = 0: the class drops out of Z, though its
    # edges still count for the forced zero at q = 0.  The merged class is
    # a bridge of weight 0, a factor q of Z that gives no root of its own
    g = build_graph(range(3), [(0, 1, 1.0), (0, 1, -0.5), (1, 2, 2.0)])
    assert z_polynomial(g).coeffs == (0j, 0j, 2 + 0j, 1 + 0j)
    assert connected_gen_poly(g) == 0
    rep = analyze(g)
    assert rep.roots == (-2 + 0j, 0j)
    assert rep.q_zero_multiplicity == 1


@pytest.mark.parametrize("ws", [
    (1e200, 1e200),
    (1e200, -1e200),
    # merges to 1e200 by cancellation although prod(1+w_i) - 1 = -1
    (-1.0, 1e200, 1e200),
], ids=["same-sign", "opposite-sign", "cancelling"])
def test_overflowing_parallel_class_rejected(ws):
    g = build_graph(range(2), [(0, 1, w) for w in ws])
    with pytest.raises(OutOfDomain):
        z_polynomial(g)
    with pytest.raises(OutOfDomain):
        connected_gen_poly(g)


def test_edge_cap_counts_input_edges_of_a_multigraph():
    # 25 parallel edges merge into one, but the cap describes the input
    g = build_graph(range(2), [(0, 1, 0.5)] * 25)
    with pytest.raises(TooLarge):
        z_polynomial(g)
    with pytest.raises(TooLarge):
        connected_gen_poly(g)


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
    # both edges are bridges: the overflow is in their product, not the engine
    with pytest.raises(OutOfDomain):
        analyze(g)


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


def test_support_table_modulus_overflow_is_typed():
    # every F(S) has finite parts, but |F(V)| overflows: abs() in the
    # float pass raised a bare OverflowError
    g = build_graph(range(3), [(0, 1, 1e200), (1, 2, 1.5e108 + 1.5e108j)])
    for call in (connected_by_support, polymer_profile,
                 lambda g: tutte_polymer_weights(g, 2.0)):
        with pytest.raises(OutOfDomain, match="connected-subgraph value overflows"):
            call(g)


def test_zero_weight_edges_do_not_count_for_divisibility():
    g = build_graph(range(3), [(0, 1, 1.0), (1, 2, 0.0)])
    # the zero edge contributes nothing, so Z has a q^2 factor
    assert nonzero_component_count(g) == 2
    coeffs = z_polynomial(g).coeffs
    assert coeffs[0] == 0 and coeffs[1] == 0


def _has_bridge(n, pairs):
    # an edge is a bridge when its endpoints fall apart without it
    for i, (u, v) in enumerate(pairs):
        reach, todo = {u}, [u]
        while todo:
            x = todo.pop()
            for j, (a, b) in enumerate(pairs):
                if j != i and x in (a, b):
                    y = b if x == a else a
                    if y not in reach:
                        reach.add(y)
                        todo.append(y)
        if v not in reach:
            return True
    return False


@pytest.mark.parametrize("corpus", ["simple6", "multi4"])
def test_bridge_route_matches_oracle_and_engine_on_every_edge(corpus):
    # Z splits each bridge of the parallel-reduced graph off as q + w_e;
    # it must agree with deletion-contraction over the input edges and with
    # the edge engine run on every input edge, within the rounding bound
    # gamma M_k, where M_k sums the moduli of the monomials of q^k (the
    # engine on the moduli, whose positive sums do not cancel)
    structures = (families.connected_simple_structures(6) if corpus == "simple6"
                  else families.connected_multigraph_structures(4))
    rng = np.random.default_rng(1)
    bridgeless = 0
    for regime in families.WEIGHT_REGIMES:
        for n, pairs in structures:
            ws = families.sample_weights(len(pairs), regime, rng)
            edges = [(u, v, w) for (u, v), w in zip(pairs, ws)]
            g = build_graph(range(n), edges)
            z = np.asarray(z_polynomial(g).coeffs)
            bound = (4 * (len(edges) + n) * 2.0 ** -53
                     * _kernels.z_coefficients(n, [(u, v, abs(w)) for u, v, w in edges]).real)
            assert np.all(np.abs(z - dc_z_coeffs(n, edges)) <= bound), (regime, n, pairs)
            assert np.all(np.abs(z - _kernels.z_coefficients(n, edges)) <= 2 * bound), (n, pairs)
            reduced = parallel_reduce(g).edges
            if not _has_bridge(n, sorted({(u, v) for u, v, _ in reduced})):
                # a bridgeless graph is its own core: the engine's own bits
                bridgeless += 1
                want = _kernels.z_coefficients(n, reduced)
                assert z.tobytes() == want.tobytes(), (n, pairs)
    assert bridgeless > 0


def _oracle_structures():
    """The connected simple structures to 6 vertices, then seeded simple
    graphs on 2-9 vertices, many with isolated vertices and several
    components, with shuffled edges and endpoints."""
    out = list(families.connected_simple_structures(6))
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        every = list(itertools.combinations(range(n), 2))
        keep = [p for p in every if rng.random() < rng.uniform(0.05, 0.6)]
        pairs = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in (keep[i] for i in rng.permutation(len(keep)))]
        out.append((n, tuple(pairs)))
    return out


def _nx_components(n, pairs):
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    return list(nx.connected_components(g))


def test_bridge_split_matches_networkx():
    # networkx is a test oracle only: its bridges, and the components of
    # the bridge subgraph numbered by lowest vertex, must be the split's
    import networkx as nx

    seen = {"bridged": 0, "disconnected": 0, "isolated": 0}
    for n, pairs in _oracle_structures():
        bridges, core_n, core, core_pairs = _bridge_split(n, pairs)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        want = {frozenset(e) for e in nx.bridges(g)}
        assert bridges == tuple(i for i, p in enumerate(pairs) if frozenset(p) in want)
        classes = sorted(_nx_components(n, [pairs[i] for i in bridges]), key=min)
        label = {x: c for c, cls in enumerate(classes) for x in cls}
        assert core_n == len(classes)
        assert core == tuple((i, label[u], label[v])
                             for i, (u, v) in enumerate(pairs) if i not in bridges)
        assert core_pairs == (tuple((u, v) for _, u, v in core) if bridges else pairs)
        seen["bridged"] += bool(bridges)
        seen["disconnected"] += nx.number_connected_components(g) > 1
        seen["isolated"] += nx.number_of_isolates(g) > 0
    assert min(seen.values()) >= 50, seen


def test_component_counts_match_networkx():
    # parallel copies and zero weights on the same structures: k(A) for
    # the whole edge set and for a random subset, and k(E+), against the
    # components of the networkx multigraph
    rng = np.random.default_rng(4)
    for n, pairs in _oracle_structures():
        edges = []
        for u, v in pairs:
            for _ in range(int(rng.integers(1, 4))):
                w = 0j if rng.random() < 0.3 else complex(rng.normal(), rng.normal())
                edges.append((u, v, w))
        g = build_graph(range(n), edges)
        epairs = [(u, v) for u, v, _ in g.edges]
        full = (1 << g.m) - 1
        mask = sum(1 << i for i in range(g.m) if rng.random() < 0.5)
        for m in (full, mask):
            chosen = [p for i, p in enumerate(epairs) if m >> i & 1]
            assert component_count(n, epairs, m) == len(_nx_components(n, chosen))
        nonzero = [(u, v) for u, v, w in g.edges if w != 0]
        assert nonzero_component_count(g) == len(_nx_components(n, nonzero))


def _bits(table):
    return [(x.real.hex(), x.imag.hex()) for x in table]


def test_exact_table_matches_fraction_reference():
    # the scaled-integer route against Gaussian rationals with Fraction
    # parts: on the graphs of the polymer corpora whose float table
    # cancels, and on random graphs with weight moduli 10^U(-300, 300),
    # zeros and subnormals among them, where both must overflow alike
    rng = np.random.default_rng(3)
    cases = []
    for structures in (families.connected_simple_structures(6),
                       families.connected_multigraph_structures(4)):
        for n, pairs in structures:
            ws = families.sample_weights(len(pairs), "mixed", rng)
            edges = [(u, v, w) for (u, v), w in zip(pairs, ws)]
            if _kernels._float_table(n, edges, _kernels._induced_connected(n, edges)) is None:
                cases.append((n, edges))
    fallbacks = len(cases)
    for _ in range(120):
        n = int(rng.integers(2, 6))
        edges = []
        for _ in range(int(rng.integers(1, 9))):
            u, v = (int(x) for x in rng.choice(n, 2, replace=False))
            kind = rng.random()
            if kind < 0.1:
                w = 0j
            elif kind < 0.2:
                w = complex(5e-324 * int(rng.integers(1, 9)), float(rng.choice([0.0, -0.0, 1e-310])))
            else:
                w = cmath.rect(10.0 ** rng.uniform(-300, 300), rng.uniform(0, 2 * math.pi))
            edges.append((u, v, w))
        cases.append((n, edges))
    overflows = 0
    for n, edges in cases:
        conn = _kernels._induced_connected(n, edges)
        try:
            want = _bits(fraction_connected_table(n, edges, conn))
        except OverflowError:
            overflows += 1
            with pytest.raises(OverflowError):
                _kernels._exact_table(n, edges, conn)
            continue
        assert _bits(_kernels._exact_table(n, edges, conn)) == want, (n, edges)
    assert fallbacks > 0 and 0 < overflows < len(cases) - fallbacks
