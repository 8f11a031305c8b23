import numpy as np
import pytest

from tuttezero import analyze, build_graph, example_suite, q_max, q_roots, z_polynomial
from tuttezero.families import (
    complete_graph,
    cycle_graph,
    cycle_one_heavy,
    path_graph,
)


def test_single_edge_root():
    w = complex(3.0, -2.0)
    roots, mult = q_roots(path_graph(2, w))
    assert mult == 1
    assert len(roots) == 1
    assert abs(roots[0] + w) < 1e-10 * abs(w)


def test_path_roots_are_negated_weights():
    w1, w2 = complex(2.0, 1.0), complex(-0.5, 0.8)
    g = build_graph(range(3), [(0, 1, w1), (1, 2, w2)])
    roots, mult = q_roots(g)
    assert mult == 1
    got = sorted(roots, key=lambda z: (z.real, z.imag))
    want = sorted((-w1, -w2), key=lambda z: (z.real, z.imag))
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-9


def test_cycle_one_heavy_closed_form():
    # (q + w)(q + w0)^(n-1) + w w0^(n-1) (q - 1) for the cycle with one
    # heavy edge; checked coefficient by coefficient at n = 4
    n, w, w0 = 4, complex(5.0, 1.0), complex(0.1, -0.3)
    g = cycle_one_heavy(n, w, w0)
    mine = np.asarray(z_polynomial(g).coeffs)
    one = np.array([w0, 1.0])
    closed = np.array([w, 1.0])
    for _ in range(n - 1):
        closed = np.convolve(closed, one)
    closed[0] += -w * w0 ** (n - 1)
    closed[1] += w * w0 ** (n - 1)
    assert np.allclose(mine, closed, rtol=1e-12, atol=1e-12)


def test_roots_reconstruct_coefficients():
    g = complete_graph(5, complex(0.8, 0.6))
    poly = np.asarray(z_polynomial(g).coeffs)
    roots, mult = q_roots(g)
    recon = np.array([1.0 + 0j])
    for r in roots:
        recon = np.convolve(recon, [-r, 1.0])
    recon = np.concatenate([np.zeros(mult, dtype=complex), recon])
    scale = float(np.abs(poly).max())
    assert np.allclose(recon, poly, rtol=0, atol=1e-7 * scale)


def test_zero_multiplicity_counts_components():
    g = build_graph(range(4), [(0, 1, 1.0), (2, 3, 2.0)])
    roots, mult = q_roots(g)
    assert mult == 2
    assert len(roots) == 2


def test_zero_weight_edge_raises_multiplicity():
    g = build_graph(range(3), [(0, 1, 1.0), (1, 2, 0.0)])
    _, mult = q_roots(g)
    assert mult == 2


def test_q_max_triangle(triangle):
    assert abs(q_max(triangle) - 2.0) < 1e-10


def test_analyze_report_fields(triangle):
    rep = analyze(triangle)
    assert rep.n == 3 and rep.m == 3
    assert rep.simple
    assert rep.q_zero_multiplicity == 1
    assert rep.general_disc_verified
    assert rep.simple_disc_verified
    assert rep.margins["general"] > 1.0
    blob = rep.to_json()
    assert {"roots", "bounds", "q_max", "margins"} <= set(blob)


def test_analyze_edgeless():
    g = build_graph(range(3), [])
    rep = analyze(g)
    assert rep.q_zero_multiplicity == 3
    assert rep.roots == ()
    assert rep.q_max == 0.0


def test_aberth_agrees_with_numpy_on_dense_polynomials(rng):
    from tuttezero.zeros import _aberth

    for _ in range(30):
        deg = int(rng.integers(2, 11))
        c = rng.normal(0, 2, deg + 1) + 1j * rng.normal(0, 2, deg + 1)
        c[-1] = 1.0
        got = _aberth(c)
        if got is None:
            continue
        want = np.sort_complex(np.roots(c[::-1]))
        assert np.allclose(np.sort_complex(np.asarray(got)), want, rtol=0, atol=1e-6)


def test_aberth_stops_at_rounding_noise_near_a_root_cluster():
    from tuttezero.zeros import _aberth

    # Z of a tree is q times the product of (q + w_e) over its edges.  With
    # these ten weights four roots lie within 0.25 of 1.4; there the Aberth
    # corrections settle near 1e-12 relative, never pass the 1e-14 step
    # test, and used to run out the iteration budget.
    w = [-1.451 + 0.209j, -1.04 - 0.885j, -1.365 - 0.036j, -1.471 - 3.122j,
         -0.855 - 0.777j, -0.063 - 1.862j, -1.312 - 4.078j, -0.035 - 0.854j,
         -1.228 - 0.14j, -1.506 + 0.094j]
    roots = -np.array(w)
    got = _aberth(np.poly(roots)[::-1])
    assert got is not None
    assert np.allclose(np.sort_complex(got), np.sort_complex(roots), rtol=0, atol=1e-9)


def test_example_suite_shape_and_determinism():
    suite = example_suite(0)
    names = [r["name"] for r in suite]
    assert names == [
        "single_edge", "cycle_one_heavy", "parallel_pair", "uniform_cycle",
        "complete_six", "grid_2x2", "grid_2x3", "grid_3x3",
    ]
    again = example_suite(0)
    assert suite == again
    for rec in suite:
        assert rec["seed"] == 0


def test_example_suite_discs_verified():
    for rec in example_suite(0):
        rep = rec["report"]
        assert rep["general_disc_verified"], rec["name"]
        if rep["simple"]:
            assert rep["simple_disc_verified"], rec["name"]


def test_uniform_cycle_trend_tightens():
    suite = {r["name"]: r for r in example_suite(0)}
    c = suite["uniform_cycle"]["commentary"]
    a10 = c["qmax_over_w_power_at_10"]
    a100 = c["qmax_over_w_power_at_100"]
    assert abs(a100 - 1.0) < abs(a10 - 1.0)
