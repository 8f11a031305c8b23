import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

from tuttezero import (
    BadLambda,
    NoConvergence,
    OutOfDomain,
    analyze,
    build_graph,
    f_closed,
    f_lambda_series,
    f_lambda_variational,
    g_ratio,
    graph_bounds,
    kstar_lambda,
    kstar_psi,
    lambert_w,
    sokal_K,
)
from tuttezero import bounds, families
from tuttezero.bounds import _minimize_bounded
from tuttezero.families import cycle_graph, path_graph
from tuttezero.verify import BETA_GRID, LAMBDA_GRID


def variational_objective(lam: float, beta: float, y: float) -> float:
    """The inner objective of the variational route, in y."""
    if not (1.0 < y < 1.0 + beta):
        raise OutOfDomain(f"y must lie in (1, 1+beta), got {y}")
    return beta * y ** lam / ((1.0 + beta - y) * math.log(y))


def brent_f_lambda(lam: float, beta: float) -> float:
    """F_lambda(beta) by Brent's bounded minimizer on the objective in
    v = log y, with the ends and tolerance of the former Brent route.

    The upper end is cut to v = 700/lam where it lies beyond, so that
    e^{lam v} stays finite; the minimizer lies below 1/lam.
    """
    def obj(v: float) -> float:
        return math.exp(lam * v) / ((1.0 - math.expm1(v) / beta) * v)

    lo = math.log1p(1e-12 * min(1.0, beta))
    hi = math.log1p(beta * (1.0 - 1e-12))
    if lam * hi > 700.0:
        hi = 700.0 / lam
    _, fmin = _minimize_bounded(obj, lo, hi, 1e-13 * min(1.0, math.log1p(beta)), 500)
    return fmin


# ---------------------------------------------------------------------------
# the bounded minimizer against scipy's, bit for bit

def assert_matches_scipy(func, lo, hi, xatol, maxiter):
    x, fx = _minimize_bounded(func, lo, hi, xatol, maxiter)
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    assert x == res.x and fx == res.fun
    return x, fx


def test_minimizer_matches_scipy_on_variational_objective():
    for lam in LAMBDA_GRID:
        for beta in BETA_GRID:
            eps = 1e-12 * min(1.0, beta)
            assert_matches_scipy(
                lambda y: variational_objective(lam, beta, y),
                1.0 + eps, 1.0 + beta - eps, 1e-13, 500,
            )
            # the same objective in v = log y, as brent_f_lambda runs it
            assert_matches_scipy(
                lambda v: math.exp(lam * v) / ((1.0 - math.expm1(v) / beta) * v),
                math.log1p(eps), math.log1p(beta * (1.0 - 1e-12)),
                1e-13 * min(1.0, math.log1p(beta)), 500,
            )


def test_minimizer_matches_scipy_on_sokal_objective():
    def obj(a):
        return (a + math.exp(a)) / math.log1p(a * math.exp(-a))

    _, fx = assert_matches_scipy(obj, 1e-8, 10.0, 1e-12, 500)
    assert sokal_K("variational") == fx


def test_minimizer_matches_scipy_on_g_ratio():
    assert_matches_scipy(g_ratio, 2.0, 6.0, 1e-10, 500)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-50, 50),
    width=st.floats(1e-3, 100),
    shift=st.floats(-0.5, 1.5),
    power=st.floats(0.3, 4),
    xatol=st.sampled_from([1e-12, 1e-8, 1e-5, 1e-2]),
)
def test_minimizer_matches_scipy_on_random_unimodal(lo, width, shift, power, xatol):
    hi = lo + width
    c = lo + shift * width
    assert_matches_scipy(lambda x: (x - c) ** 2 + 0.25 * c, lo, hi, xatol, 500)
    assert_matches_scipy(lambda x: abs(x - c) ** power, lo, hi, xatol, 500)
    # flat stretches make ties between function values, where the
    # bookkeeping of the three best points must follow scipy's exactly
    assert_matches_scipy(lambda x: max(abs(x - c), 0.1 * width), lo, hi, xatol, 500)
    assert_matches_scipy(lambda x: math.floor(8.0 * abs(x - c) / width), lo, hi, xatol, 500)


def test_minimizer_matches_scipy_when_cut_by_maxiter():
    calls = []

    def obj(y):
        calls.append(y)
        return variational_objective(0.5, 3.0, y)

    lo, hi = 1.0 + 1e-12, 4.0 - 1e-12
    _minimize_bounded(obj, lo, hi, 1e-13, 500)
    assert len(calls) > 6  # converging takes more evaluations than the cap below
    calls.clear()
    assert_matches_scipy(obj, lo, hi, 1e-13, 6)
    assert len(calls) == 12  # six in each minimizer


def test_log_factorials_match_scipy_gammaln():
    # the series route's lgamma tables, one per truncation order it uses
    for n_top in (300, 900, 2700, 5000):
        table = bounds._log_factorials(n_top)
        assert table is bounds._log_factorials(n_top)
        ref = gammaln(np.arange(2.0, n_top + 1.0))
        assert table.shape == ref.shape and table[0] == ref[0] == 0.0
        assert np.all(np.abs(table - ref) <= 2e-15 * np.abs(ref))


# ---------------------------------------------------------------------------
# Lambert W

def test_lambert_defining_identity_sweep():
    xs = np.concatenate([
        np.linspace(-1 / math.e + 1e-12, 1, 400),
        np.geomspace(1, 1e6, 200),
    ])
    for x in xs:
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-14 * max(1.0, abs(x))


def test_lambert_inverse_of_x_exp_x():
    for v in (-0.9, -0.5, 0.0, 0.3, 1.0, 2.5, 7.0):
        assert abs(lambert_w(v * math.exp(v)) - v) < 1e-13 * max(1.0, abs(v))


def test_lambert_branch_point():
    assert abs(lambert_w(-1 / math.e) + 1.0) < 1e-7
    with pytest.raises(OutOfDomain):
        lambert_w(-0.5)


def test_lambert_known_values():
    assert abs(lambert_w(math.e) - 1.0) < 1e-15
    assert abs(lambert_w(0.0)) == 0.0
    assert abs(lambert_w(1.0) - 0.5671432904097838) < 1e-14


# ---------------------------------------------------------------------------
# the named constants

def test_sokal_constant_value_and_ceiling():
    k = sokal_K()
    assert abs(k - 7.963906075890002502) < 1e-9
    assert k <= 7.963907


def test_sokal_routes_agree():
    assert abs(sokal_K("variational") - sokal_K("series")) < 1e-9


def test_kstar_at_one():
    assert abs(kstar_psi(1.0) - 6.907651697774449218) < 1e-12


def test_kstar_lambda_zero_closed_form():
    w = lambert_w(2 * math.e)
    assert abs(kstar_lambda(0.0) - w / (2 * (w - 1) ** 2)) < 1e-9
    assert abs(kstar_lambda(0.0) - 4.892888) < 1e-5


def test_kstar_psi_routes_agree_spot():
    for psi in (1.0, 2.0, 10.0, 100.0):
        a = kstar_psi(psi)
        b = math.sqrt(psi) * f_lambda_variational(1.0, psi ** -0.5)
        c = math.sqrt(psi) * f_lambda_series(1.0, psi ** -0.5)
        tol = 1e-9 * max(1.0, a)
        assert abs(a - b) < tol and abs(a - c) < tol


def test_kstar_psi_linear_ceiling():
    for psi in (0.5, 1.0, 3.0, 30.0, 1000.0):
        assert kstar_psi(psi) <= 4 * psi + 3 * math.sqrt(psi) + 1e-9


def test_kstar_psi_increasing():
    vals = [kstar_psi(p) for p in np.geomspace(0.2, 200, 25)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_kstar_psi_large_psi_asymptote():
    # Kstar(psi) = 4 psi + 3 sqrt(psi) + O(1), so Kstar/(4 psi) -> 1; W
    # itself rounds to 1 once psi^{-1/2} is below rounding
    for psi in np.geomspace(1e20, 1e300, 57):
        k = kstar_psi(psi)
        assert abs(k / (4 * psi + 3 * math.sqrt(psi)) - 1) < 1e-12
        if psi >= 1e24:
            assert abs(k / (4 * psi) - 1) < 1e-12


def test_kstar_psi_rejects_infinite_psi():
    with pytest.raises(OutOfDomain):
        kstar_psi(math.inf)


def test_kstar_psi_small_psi():
    # W = W(e/(1+b)) is far from 1 here, so the Lambert expression is exact
    # to rounding; W itself is about e psi^{1/2}
    for psi in (1e-2, 1e-20, 1e-40, 1e-300):
        w = lambert_w(math.e / (1 + psi ** -0.5))
        want = w / (1 - w) ** 2
        assert abs(kstar_psi(psi) / want - 1) < 1e-12
        variational = math.sqrt(psi) * f_lambda_variational(1.0, psi ** -0.5)
        assert abs(variational / want - 1) < 1e-12


def test_variational_route_at_large_beta():
    # the minimum sits near y = e^{1/lam}, a vanishing fraction of the
    # interval (1, 1 + beta) once beta is large
    for beta in (1e6, 1e12, 1e20, 1e100, 1e300):
        for lam in (0, 1):
            assert abs(f_lambda_variational(lam, beta) / f_closed(lam, beta) - 1) < 1e-12
    assert abs(f_lambda_variational(1.0, 1e20) - math.e) < 1e-12


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0, 3), decade=st.floats(-300, 300))
@example(lam=2.0, decade=300.0)
@example(lam=0.0, decade=-300.0)
def test_newton_route_matches_brent(lam, decade):
    # Newton finds the minimizer of a convex function, so it never lies
    # above Brent's minimum beyond rounding; where it lies below, by
    # Brent's stopping tolerance, the gap stays small
    beta = 10.0 ** decade
    newton = f_lambda_variational(lam, beta)
    brent = brent_f_lambda(lam, beta)
    assert newton <= brent * (1.0 + 1e-13)
    assert newton >= brent * (1.0 - 1e-12)


def test_variational_route_large_beta_limit():
    # F_lambda(beta) -> min over v of e^{lam v}/v = lam e; Brent's first
    # golden point overflowed exp(lam v) at lam >= 2 here
    for lam in (1.5, 2.0, 3.0):
        assert abs(f_lambda_variational(lam, 1e300) / (lam * math.e) - 1) < 1e-12


def test_variational_route_at_huge_lambda():
    # F_lambda(beta) = lam e (1 + O(1/(lam beta))); lam log1p(beta)
    # overflows at most of these points, which the root finder must not form
    for lam in (1e306, 1e307, 6e307):
        for beta in (1.0, 1e100, 1e300):
            assert abs(f_lambda_variational(lam, beta) / (lam * math.e) - 1) < 1e-14
    with pytest.raises(OutOfDomain):
        f_lambda_variational(1.7e308, 1e300)


@pytest.mark.parametrize("lam, beta", [
    (-0.1, 1.0), (math.inf, 1.0), (math.nan, 1.0),
    (1.0, 0.0), (1.0, -1.0), (1.0, math.inf), (1.0, math.nan),
])
def test_variational_route_domain(lam, beta):
    with pytest.raises(OutOfDomain):
        f_lambda_variational(lam, beta)


def test_analyze_path_does_not_run_brent(monkeypatch):
    # K is computed once per process (sokal_K is cached); every per-graph
    # radius after that comes from the Newton route
    sokal_K()

    def forbidden(*args, **kwargs):
        raise AssertionError("_minimize_bounded called on the analyze path")

    monkeypatch.setattr(bounds, "_minimize_bounded", forbidden)
    for g in (path_graph(2, 10.0), cycle_graph(4, 2.0 + 1.5j), cycle_graph(5, -0.5 + 0.2j),
              build_graph(range(2), [(0, 1, 1.0), (0, 1, 2.0)])):
        rep = analyze(g)
        rep.to_json()


def test_variational_route_at_tiny_beta():
    # F_1(beta) = beta Kstar(beta^-2), and F_1(beta) -> 4/beta as beta -> 0
    for beta in (1e-7, 1e-10, 1e-20, 1e-100):
        assert abs(f_lambda_variational(1.0, beta) / (beta * kstar_psi(beta ** -2.0)) - 1) < 1e-12
        assert abs(f_lambda_variational(0.5, beta) * beta / 4 - 1) < 1e-6


def test_kstar_lambda_affine_ceiling():
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert kstar_lambda(lam) <= 5 + 2 * lam + 1e-9


def test_kstar_lambda_domain():
    with pytest.raises(OutOfDomain):
        kstar_lambda(1.5)
    with pytest.raises(OutOfDomain):
        kstar_lambda(-0.1)


# ---------------------------------------------------------------------------
# F across routes

def test_closed_forms_match_lambert_expressions():
    beta = 0.7
    w0 = lambert_w((1 + beta) * math.e)
    w1 = lambert_w(math.e / (1 + beta))
    assert abs(f_closed(0, beta) - beta / (1 + beta) * w0 / (w0 - 1) ** 2) < 1e-15
    assert abs(f_closed(1, beta) - beta * w1 / (1 - w1) ** 2) < 1e-15


def test_closed_form_needs_integer_ends():
    with pytest.raises(BadLambda):
        f_closed(0.5, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0, 1, allow_nan=False),
    beta=st.floats(0.05, 20, allow_nan=False),
)
# a bisection midpoint 6e-13 from the threshold, inside the decision margin
@example(lam=0.04794005893828192, beta=0.5296205060977487)
def test_series_and_variational_agree_random(lam, beta):
    a = f_lambda_series(lam, beta)
    b = f_lambda_variational(lam, beta)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_variational_profile_is_unimodal():
    # the reduced objective has one interior minimum; scan a fine grid
    lam, beta = 0.6, 1.7
    ys = np.linspace(1 + 1e-6, 1 + beta - 1e-6, 4001)
    vals = [variational_objective(lam, beta, y) for y in ys]
    drops = sum(1 for a, b in zip(vals, vals[1:]) if b < a - 1e-13)
    rises = sum(1 for a, b in zip(vals, vals[1:]) if b > a + 1e-13)
    first_rise = next(i for i, (a, b) in enumerate(zip(vals, vals[1:])) if b > a + 1e-13)
    last_drop = max(i for i, (a, b) in enumerate(zip(vals, vals[1:])) if b < a - 1e-13)
    assert drops and rises
    assert last_drop < first_rise  # every descent precedes every ascent


def test_expansion_residual_order():
    # F1 - (4/b + 3 - 7b/48 + 17b^2/192) should shrink like b^3
    def resid(b):
        return abs(f_closed(1, b) - (4 / b + 3 - 7 * b / 48 + 17 * b * b / 192))

    r1, r2 = resid(0.02), resid(0.04)
    assert 6.0 < r2 / r1 < 10.5


def test_g_ratio_endpoints():
    assert abs(g_ratio(1.0) - 1.0) < 1e-12
    # small lambda: g tends to Kstar_0 / 4
    assert abs(g_ratio(1e-5) - 4.892888 / 4.0) < 1e-3


def test_g_ratio_ceiling_on_unit_interval():
    top = kstar_lambda(1.0) / 4.0
    for lam in np.linspace(0.05, 1.0, 20):
        assert g_ratio(float(lam)) <= top + 1e-9


def test_g_ratio_domain():
    with pytest.raises(OutOfDomain):
        g_ratio(0.0)


# ---------------------------------------------------------------------------
# per-graph bounds

def test_graph_bounds_single_edge_hand_checked():
    w = 10.0
    b = graph_bounds(path_graph(2, w))
    assert abs(b.delta - 10.0) < 1e-15
    assert abs(b.delta_prime - 10.0 / 11.0) < 1e-14
    assert abs(b.psi - 11.0) < 1e-12
    assert abs(b.radius_general - kstar_psi(11.0) * (10.0 / 11.0)) < 1e-9
    assert b.radius_simple is not None
    want = kstar_lambda(b.lam) * math.sqrt(11.0) * b.delta_tilde
    assert abs(b.radius_simple - want) < 1e-9 * want
    assert b.radius_subcritical is None
    assert not b.all_subcritical


def test_graph_bounds_subcritical_cycle():
    g = cycle_graph(4, -0.5 + 0.0j)
    b = graph_bounds(g)
    assert b.all_subcritical
    # two edges of strength 1/2 at each vertex
    assert abs(b.radius_subcritical - sokal_K() * 1.0) < 1e-9


def test_interpolated_radius_endpoints():
    g = cycle_graph(4, 2.0 + 1.5j)
    b = graph_bounds(g)
    assert b.radius_interpolated is not None
    assert abs(b.radius_interpolated(0.0) - b.radius_general) < 1e-6 * b.radius_general
    assert abs(b.radius_interpolated(1.0) - b.radius_simple) < 1e-6 * b.radius_simple


def test_interpolated_radius_profile_smooth():
    # no monotonicity law holds in a (either endpoint can be the sharper
    # one), but the profile is positive and moves gradually
    g = cycle_graph(5, 3.0 - 2.0j)
    b = graph_bounds(g)
    vals = [b.radius_interpolated(a) for a in np.linspace(0, 1, 11)]
    assert all(v > 0 for v in vals)
    assert all(abs(x - y) < 0.2 * max(x, y) for x, y in zip(vals, vals[1:]))


def _contractive_corpus(seed=0, draws=30):
    rng = np.random.default_rng(seed)
    for corpus in (families.connected_simple_structures(5),
                   families.connected_multigraph_structures(3)):
        for n, pairs in corpus:
            for _ in range(draws):
                ws = families.sample_weights(len(pairs), "contractive", rng)
                yield families.weighted((n, pairs), ws)


def test_subcritical_disc_holds_on_contractive_draws():
    # Sokal's regime |1 + w_e| <= 1: no nonzero root lies outside K Delta,
    # and the general disc lies inside it
    seen = 0
    for g in _contractive_corpus():
        rep = analyze(g)
        b = rep.bounds
        assert b.all_subcritical
        assert all(abs(r) < b.radius_subcritical for r in rep.roots)
        if b.delta > 0.0:
            assert b.radius_general <= b.radius_subcritical
            seen += 1
    assert seen > 1000


def test_radius_general_inside_subcritical_ratio():
    # with every |1 + w_e| <= 1, psi = 1 and Delta' = Delta, so the ratio
    # of the general radius to the subcritical one is Kstar(1)/K
    g = cycle_graph(4, -0.5 + 0.2j)
    b = graph_bounds(g)
    assert b.all_subcritical and b.psi == 1.0
    ratio = b.radius_general / b.radius_subcritical
    assert abs(ratio - kstar_psi(1.0) / sokal_K()) < 1e-12
    assert abs(ratio - 0.867) < 1e-3


def test_graph_bounds_rejects_non_finite_radius():
    # psi is finite, Kstar(psi) is not
    g = build_graph(range(2), [(0, 1, 1e154), (0, 1, complex(1.2e154, 1.2e154))])
    with pytest.raises(OutOfDomain):
        graph_bounds(g)


def test_multigraph_has_no_simple_radius():
    g = build_graph(range(2), [(0, 1, 1.0), (0, 1, 2.0)])
    b = graph_bounds(g)
    assert b.radius_simple is None
    assert b.radius_interpolated is None


def test_bound_set_to_json_keys():
    b = graph_bounds(path_graph(3, 1.0 + 1.0j))
    blob = b.to_json()
    for key in ("K", "psi", "delta", "delta_prime", "delta_tilde",
                "radius_general", "radius_simple", "radius_subcritical",
                "radius_interpolated", "all_subcritical", "lambda"):
        assert key in blob
