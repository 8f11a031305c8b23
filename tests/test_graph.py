import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttezero import (
    BadIndex,
    DegenerateLambda,
    LoopEdge,
    NonFiniteWeight,
    analyze,
    build_graph,
    degree_quantities,
    delta_prime_a,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    parallel_reduce,
    parse_edge_lines,
)
from tuttezero.errors import OutOfDomain
from tuttezero import families
from tuttezero.families import k2_parallel

from conftest import dc_z_coeffs


def test_build_rejects_loops():
    with pytest.raises(LoopEdge):
        build_graph(range(2), [(1, 1, 1.0)])


def test_build_rejects_bad_endpoint():
    with pytest.raises(BadIndex):
        build_graph(range(2), [(0, 5, 1.0)])


@pytest.mark.parametrize("w", [
    complex(float("nan"), 0.0), complex(0.0, float("nan")),
    complex(float("inf"), 0.0), complex(1.0, -float("inf")),
    # finite parts, but the modulus overflows
    complex(1.7e308, 1.7e308),
])
def test_build_rejects_non_finite_weight(w):
    with pytest.raises(NonFiniteWeight):
        build_graph(range(3), [(0, 1, 1.0), (1, 2, w)])


def test_parallel_reduce_rejects_overflowing_merge():
    # 1e200 + 1e200 + 1e400 is inf; analyze refuses the class before it merges
    g = k2_parallel(2, 1e200)
    with pytest.raises(NonFiniteWeight):
        parallel_reduce(g)
    with pytest.raises(OutOfDomain):
        analyze(g)


def test_basic_attributes(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert triangle.is_simple


def test_multigraph_not_simple():
    g = build_graph(range(2), [(0, 1, 1.0), (0, 1, 2.0)])
    assert not g.is_simple


def test_parallel_reduce_returns_simple_graph_as_is(triangle):
    assert parallel_reduce(triangle) is triangle


def test_parallel_reduce_merges_weights():
    w1, w2 = complex(0.5, 1.0), complex(-0.25, 0.75)
    g = build_graph(range(2), [(0, 1, w1), (0, 1, w2)])
    red = parallel_reduce(g)
    assert red.m == 1
    merged = red.edges[0][2]
    assert cmath.isclose(merged, (1 + w1) * (1 + w2) - 1, rel_tol=1e-14)


@pytest.mark.parametrize("w1, w2", [(1e-12, 1e-12), (1e-9, 3e-9)])
def test_parallel_reduce_keeps_small_weights(w1, w2):
    # (1+w1)(1+w2) - 1 rounds each factor against 1 and keeps few digits
    g = build_graph(range(2), [(0, 1, w1), (0, 1, w2)])
    merged = parallel_reduce(g).edges[0][2]
    a, b = Fraction(w1), Fraction(w2)
    exact = a + b + a * b
    assert merged.imag == 0
    assert abs(Fraction(merged.real) - exact) <= Fraction(2.0 ** -52) * exact


def test_parallel_reduce_preserves_polynomial():
    edges = [(0, 1, 0.5 + 1j), (0, 1, -0.25 + 0.75j), (1, 2, 2.0 + 0j), (0, 2, 1j)]
    g = build_graph(range(3), edges)
    red = parallel_reduce(g)
    a = dc_z_coeffs(3, [(u, v, w) for u, v, w in g.edges])
    b = dc_z_coeffs(3, [(u, v, w) for u, v, w in red.edges])
    assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


_MULTI = [(0, 1, 0.5 + 1j), (0, 1, -0.25 + 0.75j), (1, 2, 2 + 0j), (0, 2, 1j), (2, 3, -1.5 + 0j)]
_LINES = "".join(f"{u} {v} {w.real!r} {w.imag!r}\n" for u, v, w in _MULTI)
_CONSTRUCTORS = {
    "build_graph": lambda: build_graph(range(4), _MULTI),
    "graph_from_json": lambda: graph_from_json(graph_to_json(build_graph(range(4), _MULTI))),
    "parse_edge_lines": lambda: parse_edge_lines(_LINES),
    "parallel_reduce": lambda: parallel_reduce(build_graph(range(4), _MULTI)),
    "induced_subgraph": lambda: induced_subgraph(build_graph(range(4), _MULTI), [0, 2, 3]),
}


@pytest.mark.parametrize("make", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS.keys())
def test_pairs_and_moduli_match_edges_and_are_cached(make):
    g = make()
    assert g.pairs == tuple((u, v) for u, v, _ in g.edges)
    assert g.moduli == tuple((u, v, abs(w), abs(1 + w)) for u, v, w in g.edges)
    assert g.pairs is g.pairs
    assert g.moduli is g.moduli


def test_degree_functions_read_the_graph_moduli(small_weighted):
    with pytest.raises(TypeError):
        degree_quantities(small_weighted, moduli=None)
    with pytest.raises(TypeError):
        delta_prime_a(small_weighted, 0.5, moduli=None)


def test_weight_views_on_one_edge():
    w = complex(3.0, 4.0)  # |1+w| = sqrt(32) > 1
    g = build_graph(range(2), [(0, 1, w)])
    a = abs(1 + w)
    deg = degree_quantities(g)
    assert deg.delta == abs(w)  # raw modulus, as double-prime keeps on root edges
    assert abs(deg.delta_prime - abs(w) / a) < 1e-14
    assert abs(deg.delta_tilde - abs(w) / a ** 0.5) < 1e-14


def test_weight_views_subcritical_no_damping():
    # inside |1+w| <= 1 damping is inert: all magnitudes stay |w|
    w = complex(-0.5, 0.3)
    g = build_graph(range(2), [(0, 1, w)])
    deg = degree_quantities(g)
    assert deg.delta == deg.delta_prime == deg.delta_tilde == abs(w)
    for a in (0.0, 0.5, 1.0):
        assert delta_prime_a(g, a) == abs(w)


def test_interpolated_view_between_endpoints():
    w = complex(3.0, 4.0)
    g = build_graph(range(2), [(0, 1, w)])
    vals = {a: delta_prime_a(g, a) for a in (0.0, 0.5, 1.0)}
    assert abs(vals[0.0] - abs(w) / abs(1 + w)) < 1e-14
    assert abs(vals[1.0] - abs(w) / abs(1 + w) ** 0.5) < 1e-14
    assert vals[0.0] < vals[0.5] < vals[1.0]


@pytest.mark.parametrize("a", [-0.1, 2.0])
def test_delta_prime_a_rejects_a_outside_unit_interval(a):
    g = build_graph(range(2), [(0, 1, 1.0)])
    with pytest.raises(OutOfDomain):
        delta_prime_a(g, a)


def test_degree_quantities_hand_checked():
    w = 1000.0
    g = build_graph(range(2), [(0, 1, w)])
    deg = degree_quantities(g)
    assert deg.delta == w
    assert abs(deg.delta_prime - w / (1 + w)) < 1e-12
    assert abs(deg.delta_tilde - w / (1 + w) ** 0.5) < 1e-9
    assert abs(deg.psi - (1 + w)) < 1e-12
    assert abs(deg.lam - deg.delta_prime / deg.delta_tilde) < 1e-15


def test_degree_lambda_window(small_weighted):
    deg = degree_quantities(small_weighted)
    assert 1.0 / deg.psi ** 0.5 - 1e-12 <= deg.lam <= 1.0 + 1e-12


def test_lambda_degenerate_when_tilde_vanishes():
    g = build_graph(range(2), [(0, 1, 0.0)])
    deg = degree_quantities(g)
    with pytest.raises(DegenerateLambda):
        _ = deg.lam


def test_delta_prime_a_endpoints(small_weighted):
    deg = degree_quantities(small_weighted)
    assert abs(delta_prime_a(small_weighted, 0.0) - deg.delta_prime) < 1e-12
    assert abs(delta_prime_a(small_weighted, 1.0) - deg.delta_tilde) < 1e-12


def test_delta_prime_a_monotone(small_weighted):
    grid = [delta_prime_a(small_weighted, a) for a in np.linspace(0, 1, 9)]
    # weaker damping as a grows, so the interpolated degree cannot shrink
    assert all(x <= y * (1 + 1e-12) for x, y in zip(grid, grid[1:]))


def test_induced_subgraph_keeps_weights(triangle):
    sub = induced_subgraph(triangle, [0, 1])
    assert sub.n == 2
    assert sub.m == 1
    assert sub.edges[0][2] == 1.0


def test_json_round_trip(small_weighted):
    blob = json.dumps(graph_to_json(small_weighted), sort_keys=True)
    back = graph_from_json(json.loads(blob))
    assert back.n == small_weighted.n
    assert back.edges == small_weighted.edges


# finite parts small enough that every modulus stays finite
weight_parts = st.floats(-1e300, 1e300)
edge_tuples = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), weight_parts, weight_parts)
    .filter(lambda e: e[0] != e[1]),
    min_size=1, max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(edges=edge_tuples,
       labels=st.lists(st.integers() | st.text(max_size=4), min_size=6, max_size=6))
def test_json_round_trip_property(edges, labels):
    g = build_graph(labels, [(u, v, complex(re, im)) for u, v, re, im in edges])
    assert graph_from_json(json.loads(json.dumps(graph_to_json(g)))) == g


@settings(max_examples=100, deadline=None)
@given(edges=edge_tuples)
def test_edge_lines_round_trip_property(edges):
    top = max(max(u, v) for u, v, _, _ in edges)
    g = build_graph(range(top + 1), [(u, v, complex(re, im)) for u, v, re, im in edges])
    text = "".join(f"{u} {v} {w.real!r} {w.imag!r}\n" for u, v, w in g.edges)
    assert parse_edge_lines(text) == g


def test_parse_edge_lines_with_comments():
    g = parse_edge_lines("# header\n0 1 2.0 0.5\n\n1 2 -1 0  # tail\n")
    assert g.n == 3
    assert g.edges[0][2] == complex(2.0, 0.5)
    assert g.edges[1][2] == complex(-1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-3, 3, allow_nan=False),
    im=st.floats(-3, 3, allow_nan=False),
)
def test_prime_view_matches_damped_magnitude(re, im):
    w = complex(re, im)
    g = build_graph(range(2), [(0, 1, w)])
    damped = degree_quantities(g).delta_prime
    want = min(abs(w), abs(w) / max(abs(1 + w), 1e-300))
    assert abs(damped - want) <= 1e-12 * (1.0 + want)


# ---------------------------------------------------------------------------
# one-branch degree sums against a _damped-based reference

def _damped_reference(aw, a1, exponent):
    d = a1 ** exponent
    if d <= 1.0:
        return aw
    return aw / d


def _degree_reference(g):
    """degree_quantities as two _damped calls and a max per edge."""
    n = g.n
    s_raw, s_prime, s_tilde, p_psi = [0.0] * n, [0.0] * n, [0.0] * n, [1.0] * n
    for u, v, aw, a1 in g.moduli:
        dp = _damped_reference(aw, a1, 1.0)
        dt = _damped_reference(aw, a1, 0.5)
        mx = a1 if a1 > 1.0 else 1.0
        for x in (u, v):
            s_raw[x] += aw
            s_prime[x] += dp
            s_tilde[x] += dt
            p_psi[x] *= mx
    dprime, dtilde = max(s_prime, default=0.0), max(s_tilde, default=0.0)
    lam = dprime / dtilde if dtilde > 0.0 else None
    return (max(s_raw, default=0.0), dprime, dtilde, max(p_psi, default=1.0),
            tuple(s_raw), lam)


def _delta_prime_a_reference(g, a):
    s = [0.0] * g.n
    for u, v, aw, a1 in g.moduli:
        d = _damped_reference(aw, a1, 1.0 - a / 2.0)
        s[u] += d
        s[v] += d
    return max(s, default=0.0)


def _hex(x):
    if isinstance(x, tuple):
        return tuple(map(_hex, x))
    return None if x is None else x.hex()


_ULP = 2.0 ** -52
# |1+w| at and around the damping threshold, and far from it (2^-27 is
# about 1e-8, and unlike 1e-8 it survives w = 2^-27 - 1 exactly)
_BOUNDARY_MODULI = [0.0, 1.0 - _ULP / 2, 1.0, 1.0 + _ULP, 1.0 + 2e-12, 2.0 ** -27, 1e8]


@st.composite
def _edges_around_the_threshold(draw):
    """Edges whose |1+w| is drawn from _BOUNDARY_MODULI or from (0, 20];
    a real 1 + w keeps the boundary moduli exact."""
    n = draw(st.integers(2, 5))
    edges = []
    for _ in range(draw(st.integers(1, 8))):
        u, v = draw(st.sampled_from([(u, v) for u in range(n) for v in range(n) if u != v]))
        r = draw(st.sampled_from(_BOUNDARY_MODULI) | st.floats(0.0, 20.0))
        phase = draw(st.sampled_from([0.0, math.pi]) | st.floats(0.0, 2 * math.pi))
        one_plus_w = complex(r) if phase == 0.0 else cmath.rect(r, phase)
        edges.append((u, v, one_plus_w - 1.0))
    return n, edges


@settings(max_examples=200, deadline=None)
@given(_edges_around_the_threshold())
def test_one_branch_degree_sums_have_the_damped_bits(data):
    n, edges = data
    g = build_graph(range(n), edges)
    deg = degree_quantities(g)
    got = (deg.delta, deg.delta_prime, deg.delta_tilde, deg.psi, deg.strengths, deg._lam)
    assert _hex(got) == _hex(_degree_reference(g))
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert delta_prime_a(g, a).hex() == _delta_prime_a_reference(g, a).hex()


def test_threshold_moduli_are_exact():
    # the boundary edges of the property test reach the graph as drawn
    g = build_graph(range(2), [(0, 1, complex(r) - 1.0) for r in _BOUNDARY_MODULI])
    assert [a1 for _, _, _, a1 in g.moduli] == _BOUNDARY_MODULI


# ---------------------------------------------------------------------------
# facts set by the construction pass

def _pairs_reference(edges):
    return tuple((u, v) for u, v, _ in edges)


def _is_simple_reference(edges):
    seen = set()
    for u, v, _ in edges:
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


@pytest.mark.parametrize("n, edges", [
    (0, []),
    (3, []),
    (3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5j)]),
    (2, [(0, 1, 1.0), (1, 0, 2.0)]),  # one pair, both orientations
    (3, [(1, 0, 1.0), (2, 1, 1.0), (0, 1, -1.0)]),
    (4, [(0, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0), (0, 1, 0.0)]),
])
def test_construction_sets_pairs_and_is_simple(n, edges):
    g = build_graph(range(n), edges)
    assert g.pairs == _pairs_reference(g.edges)
    assert g.is_simple is _is_simple_reference(g.edges)
    assert "pairs" in vars(g) and "is_simple" in vars(g)
    assert "moduli" not in vars(g)  # computed on first use only


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))))
def test_construction_facts_match_their_definitions(data):
    n, pairs = data
    edges = [(u, v, complex(i, 1)) for i, (u, v) in enumerate(pairs) if u != v]
    g = build_graph(range(n), edges)
    assert g.pairs == _pairs_reference(edges)
    assert g.is_simple is _is_simple_reference(edges)
    if g.is_simple:
        assert parallel_reduce(g) is g


def _first_fault(n, edges):
    """The error that the edge check raised before it set any graph fact."""
    for i, (u, v, w) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return BadIndex, f"edge endpoint out of range: ({u}, {v}) with {n} vertices"
        if u == v:
            return LoopEdge, f"loop at vertex {u} is not allowed"
        if not math.isfinite(math.hypot(w.real, w.imag)):
            return NonFiniteWeight, f"edge {i} has weight {w} of non-finite modulus"
    return None


_BAD_EDGES = [(0, 3, 1.0), (-1, 0, 1.0), (2, 2, 1.0), (0, 1, complex(math.nan, 0.0)),
              (1, 2, complex(1.7e308, 1.7e308)), (0, 2, 1.0), (1, 0, 0.5)]


@pytest.mark.parametrize("order", [(0, 2, 3), (1, 0, 4), (2, 3, 0), (2, 1, 4), (3, 4, 2),
                                   (4, 3, 1)])
def test_first_bad_edge_raises_as_before(order):
    # one good edge ahead of three bad ones of different kinds
    edges = [_BAD_EDGES[5]] + [_BAD_EDGES[i] for i in order] + [_BAD_EDGES[6]]
    kind, message = _first_fault(3, edges)
    with pytest.raises(kind) as info:
        build_graph(range(3), edges)
    assert str(info.value) == message
    pairs = tuple((u, v) for u, v, _ in edges)
    with pytest.raises(kind) as info:
        families.weighted((3, pairs), [w for _, _, w in edges])
    assert str(info.value) == message


def test_weighted_builds_what_build_graph_builds():
    n, pairs = families.connected_simple_structures(4)[-1]
    ws = [np.complex128(0.5 - 0.25j), np.float64(2.0), 3, -1.0 + 0j, 0.0, -0.0j]
    g = families.weighted((n, pairs), ws)
    ref = build_graph(range(n), [(u, v, w) for (u, v), w in zip(pairs, ws)])
    assert g == ref and g.vertices == ref.vertices
    assert [tuple(map(type, e)) for e in g.edges] == [(int, int, complex)] * len(ws)
    assert [w.imag.hex() for w in g.weights()] == [w.imag.hex() for w in ref.weights()]
    assert (g.pairs, g.is_simple) == (ref.pairs, ref.is_simple)
