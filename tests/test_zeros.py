import numpy as np
import pytest

import tuttezero.zeros as zeros
from tuttezero import analyze, build_graph, example_suite, families, q_max, q_roots, z_polynomial
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


def test_cancelled_constant_term_is_a_root_at_zero():
    # every weight -3: the q^1 coefficient 3*9 - 27 cancels exactly, so
    # Z = q^3 - 9 q^2 has a zero root beyond the one forced by connectivity
    g = complete_graph(3, -3.0)
    roots, mult = q_roots(g)
    assert mult == 1
    assert len(roots) + mult == 3
    assert roots[0] == 0 and abs(roots[1] - 9) < 1e-12
    assert analyze(g).q_max == abs(roots[1])


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


def test_start_puts_points_on_newton_polygon_circles():
    # two roots at each of three moduli; the hull puts two start points
    # within a factor sqrt(2) of each modulus
    roots = [1e-3, 1e-3j, 1.0, -1.0, 1e3, 1e3j]
    z = zeros._start(np.poly(roots)[::-1])
    radii = np.sort(np.abs(z))
    for pair, r in zip(radii.reshape(3, 2), (1e-3, 1.0, 1e3)):
        assert np.all((r / 2 < pair) & (pair < 2 * r))


def _guard_graphs():
    rng = np.random.default_rng(0)
    out = [cycle_one_heavy(6, 1e6, 1e-6), cycle_one_heavy(12, 1e4, 1e-4)]
    for n in (11, 12):
        for _ in range(3):
            tree = [(int(rng.integers(k)), k) for k in range(1, n)]
            out.append(families.weighted((n, tree), families.sample_weights(n - 1, "mixed", rng)))
            ring = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
            absent = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
            chords = [absent[i] for i in rng.choice(len(absent), 3, replace=False)]
            pairs = ring + chords
            out.append(families.weighted((n, pairs), families.sample_weights(len(pairs), "mixed", rng)))
    return out


def test_root_finder_work_stays_small(monkeypatch):
    # Polynomial evaluations over a fixed set of wide graphs: 406 with the
    # Newton-polygon start, 1807 with a single start circle of radius
    # 0.7 (1 + max|c_k|).  The bound leaves 50% headroom over the former.
    calls = [0]
    evaluate = zeros._poly_eval_many

    def counted(c, z):
        calls[0] += 1
        return evaluate(c, z)

    def no_fallback(*args):
        raise AssertionError("the np.roots fallback ran")

    monkeypatch.setattr(zeros, "_poly_eval_many", counted)
    monkeypatch.setattr(np, "roots", no_fallback)
    for g in _guard_graphs():
        analyze(g)
    assert calls[0] <= 600


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
