import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuttezero import (
    NoConvergence,
    OutOfDomain,
    TutteZeroError,
    analyze,
    build_graph,
    example_suite,
    families,
    nonzero_component_count,
    q_max,
    q_roots,
    z_polynomial,
)
from tuttezero import _kernels, zeros
from tuttezero.families import (
    complete_graph,
    cycle_graph,
    cycle_one_heavy,
    path_graph,
)
from tuttezero.graph import parallel_reduce
from tuttezero.zeros import _solve


def test_single_edge_root():
    w = complex(3.0, -2.0)
    roots, mult = q_roots(path_graph(2, w))
    assert mult == 1
    assert len(roots) == 1
    assert abs(roots[0] + w) < 1e-10 * abs(w)


def _engine_coefficients(g):
    """Z_G from the edge engine on the whole parallel-reduced graph, with
    the forced zeros stripped: the coefficients the eigenvalue route saw
    before bridges were split off."""
    z = _kernels.z_coefficients(g.n, parallel_reduce(g).edges).tolist()
    return z[nonzero_component_count(g):]


def _assert_exact_bridge_roots(g):
    # Z of a forest is q^k times the product of (q + w_e) over its edges,
    # and analyze returns each root as -w_e / 1
    want = sorted((-w / (1 + 0j) for _, _, w in parallel_reduce(g).edges),
                  key=lambda z: (z.real, z.imag))
    assert list(analyze(g).roots) == want


def _assert_path_roots(weights):
    # the solver on the expanded q prod (q + w_e), stripped of its zero root
    g = build_graph(range(len(weights) + 1), [(i, i + 1, w) for i, w in enumerate(weights)])
    got = sorted(_solve([_engine_coefficients(g)])[0], key=lambda z: (z.real, z.imag))
    want = sorted((-w for w in weights), key=lambda z: (z.real, z.imag))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-9
    _assert_exact_bridge_roots(g)


def test_path_roots_are_negated_weights():
    _assert_path_roots([complex(2.0, 1.0), complex(-0.5, 0.8)])


def test_aberth_stops_at_rounding_noise_near_a_root_cluster():
    # With these ten weights four roots lie within 0.25 of 1.4. Near such a
    # cluster root corrections settle at rounding noise (about 1e-12
    # relative) and shrink no further; the root finder must still return
    # the roots, within 1e-9, and not fail its residual check. The name is
    # kept from the iterative root finder this case was first written for.
    _assert_path_roots([-1.451 + 0.209j, -1.04 - 0.885j, -1.365 - 0.036j, -1.471 - 3.122j,
                        -0.855 - 0.777j, -0.063 - 1.862j, -1.312 - 4.078j, -0.035 - 0.854j,
                        -1.228 - 0.14j, -1.506 + 0.094j])


# Z of this path is q (q + w_1) ... (q + w_4). Against the spread of its
# weights the eigenvalue solve returns 0 for both small roots, and Newton
# takes both points to -2.2e-25, where each passes its residual check.
WIDELY_SCALED_PATH = [8.6e29, 1.9e5, 1.5e-18, 2.2e-25]


def test_root_lost_to_scaling_raises_no_convergence():
    g = build_graph(range(5), [(i, i + 1, w) for i, w in enumerate(WIDELY_SCALED_PATH)])
    with pytest.raises(NoConvergence):
        _solve([_engine_coefficients(g)])
    # every edge of a path is a bridge, so analyze never solves that product
    _assert_exact_bridge_roots(g)


@pytest.mark.parametrize("edges, root", [
    ([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)], -1.0),
    ([(0, 1, -1e-3), (0, 2, -1e-3), (0, 3, -1e-3), (0, 4, -1e-3)], 1e-3),
    ([(0, 1, 0.1), (0, 1, 0.1), (0, 2, 0.1), (0, 2, 0.1)], -0.21),
], ids=["star_unit", "star_small_negative", "doubled_path"])
def test_multiple_roots_pass_the_root_checks(edges, root):
    # Z of a tree is q prod (q + w_e), and a parallel pair acts as one edge
    # of weight (1 + w)^2 - 1, so equal weights give one root of order m.
    # Its computed copies spread by about 1e-16^(1/m), 1e-4 at m = 4.
    g = build_graph(range(1 + max(v for _, v, _ in edges)), edges)
    roots, = _solve([_engine_coefficients(g)])
    assert len(roots) == g.n - 1
    assert all(abs(r - root) <= 1e-3 * abs(root) for r in roots)
    _assert_exact_bridge_roots(g)


def _log_modulus(z):
    return math.log(math.hypot(z.real, z.imag))


@st.composite
def widely_weighted_graphs(draw):
    """Connected graphs of at most 5 vertices, a random tree plus up to 3
    chords, with weights of modulus 10^U(-300, 300) and uniform phase."""
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    if absent:
        pairs += draw(st.lists(st.sampled_from(absent), unique=True, max_size=3))
    edges = []
    for u, v in pairs:
        modulus = 10.0 ** draw(st.floats(-300, 300))
        edges.append((u, v, cmath.rect(modulus, draw(st.floats(0, 2 * math.pi)))))
    return build_graph(range(n), edges)


@settings(max_examples=150, deadline=None)
@given(widely_weighted_graphs())
def test_widely_scaled_weights_give_whole_root_sets_or_typed_errors(g):
    # any other exception fails the test
    try:
        rep = analyze(g)
    except TutteZeroError:
        return
    c = z_polynomial(g).coeffs[rep.q_zero_multiplicity:]
    low = next(i for i, x in enumerate(c) if x)
    nonzero = [r for r in rep.roots if r != 0]
    assert len(nonzero) == g.n - rep.q_zero_multiplicity - low
    # Vieta: the nonzero roots multiply to the lowest nonzero coefficient.
    # A lost root moves the product by the ratio of two distinct roots.
    # The computed copies of a root of order m spread by about
    # 1e-16^(1/m), 1e-4 at m = 4, and a subnormal coefficient carries an
    # absolute error of a few 2^-1074.
    got = sum(_log_modulus(r) for r in nonzero)
    slack = 1e-3 + 1e-321 / math.hypot(c[low].real, c[low].imag)
    assert abs(got - _log_modulus(c[low])) <= slack


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


def test_roots_agree_with_mpmath_on_dense_graphs(rng):
    mpmath = pytest.importorskip("mpmath")
    from scipy.optimize import linear_sum_assignment

    for n in (5, 6):
        for _ in range(5):
            weights = families.sample_weights(n * (n - 1) // 2, "mixed", rng)
            g = families.weighted((n, complete_graph(n).pairs), weights)
            roots, mult = q_roots(g)
            coeffs = z_polynomial(g).coeffs[mult:]
            with mpmath.workdps(50):
                want = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)],
                                        maxsteps=200, extraprec=100)
            want = np.array([complex(r) for r in want])
            cost = np.abs(np.asarray(roots)[:, None] - want[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert np.all(cost[rows, cols] < 1e-6)


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


def _core_degree(g):
    """Degree of the core's Z once its zero roots are stripped."""
    core = z_polynomial(g).core
    return len(core) - 1 - next(i for i, x in enumerate(core) if x)


def test_root_finder_work_stays_small(monkeypatch):
    # one eigenvalue solve per analyze call whose core has degree 2 or
    # more: no retry, no second route.  The six trees make none.
    calls = [0]
    eigvals = np.linalg.eigvals

    def counted(a):
        calls[0] += 1
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    graphs = _guard_graphs()
    solved = 0
    for g in graphs:
        analyze(g)
        solved += _core_degree(g) >= 2
    assert solved == len(graphs) - 6
    assert calls[0] == solved


def _solver_inputs():
    """The stripped core coefficients of degree 2 or more that _solve sees
    on the guard graphs and on zero-free sweep draws to 5 vertices."""
    rng = np.random.default_rng(1)
    graphs = _guard_graphs()
    for regime in families.WEIGHT_REGIMES:
        for n, pairs in families.connected_simple_structures(5)[::3]:
            ws = families.sample_weights(len(pairs), regime, rng)
            graphs.append(families.weighted((n, pairs), ws))
    out = []
    for g in graphs:
        core = z_polynomial(g).core
        c = core[next(i for i, x in enumerate(core) if x):]
        if len(c) > 2:
            out.append(c)
    return out


def _horner(c, z):
    """|p(z)| and sum |c_k| |z|^k, by Horner's rule as _polish runs it."""
    r = math.hypot(z.real, z.imag)
    p, scale = c[-1], math.hypot(c[-1].real, c[-1].imag)
    for x in c[-2::-1]:
        p = p * z + x
        scale = scale * r + math.hypot(x.real, x.imag)
    return math.hypot(p.real, p.imag), scale


def test_polish_stops_at_the_rounding_floor():
    # a start whose residual is already within the rounding bound of its
    # Horner pass takes no Newton step: it comes back exactly as it went in
    at_floor = 0
    for c in _solver_inputs():
        d = len(c) - 1
        ac = [math.hypot(x.real, x.imag) for x in c]
        for z in zeros._eigenvalues([c])[0]:
            resid, scale = _horner(c, z)
            if resid <= zeros._HORNER_ERR * d * scale:
                at_floor += 1
                assert zeros._polish(c, ac, z)[0] == z, (c, z)
    assert at_floor >= 100


def test_polish_still_converges_from_a_perturbed_start():
    # starts moved by 1e-6 relative come back to the root they left, to
    # within the error bounds of both polished points
    checked = 0
    for c in _solver_inputs():
        ac = [math.hypot(x.real, x.imag) for x in c]
        for k, z in enumerate(zeros._eigenvalues([c])[0]):
            root, rho = zeros._polish(c, ac, z)
            moved = zeros._polish(c, ac, z * (1 + 1e-6 * cmath.exp(1j * k)))
            assert moved is not None, (c, z)
            assert abs(moved[0] - root) <= rho + moved[1], (c, z)
            checked += 1
    assert checked >= 100


def _root_bits(roots):
    return [(r.real.hex(), r.imag.hex()) for r in roots]


def test_stacked_solve_gives_each_core_the_bits_of_its_own_solve():
    # the cores come in mixed degrees and in corpus order, so each stack
    # gathers cores from across the list
    cs = _solver_inputs()
    assert len({len(c) for c in cs}) >= 5
    assert [_root_bits(r) for r in _solve(cs)] == [_root_bits(_solve([c])[0]) for c in cs]


def test_root_rows_of_mixed_core_degrees_match_q_roots(monkeypatch):
    # one call on graphs whose stripped cores have degree 0 (an edgeless
    # graph, a path), 1 (the all-(-3) triangle, Z = q^3 - 9 q^2), 2
    # (random triangles, one with a bridge hung on) and 3: one eigvals
    # call for each degree from 2 on, and every graph gets the bits of
    # its own q_roots
    rng = np.random.default_rng(5)
    triangle = (3, [(0, 1), (0, 2), (1, 2)])
    graphs = [build_graph(range(3), []), path_graph(3, 0.5), complete_graph(3, -3.0)]
    graphs += [families.weighted(triangle, families.sample_weights(3, "mixed", rng))
               for _ in range(3)]
    graphs += [build_graph(range(4), [(0, 1, 1.5j), (0, 2, -0.5), (1, 2, 2.0), (2, 3, 0.7)]),
               cycle_graph(4, 0.3), complete_graph(4, 1j), complete_graph(3, 0.25)]
    assert [_core_degree(g) for g in graphs] == [0, 0, 1, 2, 2, 2, 2, 3, 3, 2]
    want = [q_roots(g) for g in graphs]
    shapes = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        shapes.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    got = zeros._q_roots_rows(graphs, [z_polynomial(g) for g in graphs])
    assert shapes == [(5, 2, 2), (2, 3, 3)]
    assert [(_root_bits(r), m) for r, m in got] == [(_root_bits(r), m) for r, m in want]


def test_zero_free_sweep_makes_one_eigvals_call_per_core_degree(monkeypatch):
    # verify_zero_free(5, 15) solves the cores of each (regime, structure)
    # by degree: 69 stacks for 1,035 cores of degree 2 or more
    from tuttezero import verify

    shapes, seen = [], []
    eigvals, sweep_analyze = np.linalg.eigvals, verify.analyze

    def counted(a):
        shapes.append(a.shape)
        return eigvals(a)

    def recorded(g, *args):
        seen.append(g)
        return sweep_analyze(g, *args)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(verify, "analyze", recorded)
    assert verify.verify_zero_free(5, 15)["passed"]
    # the sweep visits the (regime, structure) groups of 15 draws in turn
    want = []
    for i in range(0, len(seen), 15):
        degrees = [_core_degree(g) for g in seen[i:i + 15]]
        want += [(degrees.count(d), d, d) for d in dict.fromkeys(degrees) if d >= 2]
    assert shapes == want
    assert len(shapes) == 69 and sum(k for k, _, _ in shapes) == 1035


# a degree-12 monic polynomial on which LAPACK's QR iteration does not
# converge: eigvals raises LinAlgError("Eigenvalues did not converge")
NONCONVERGENT = [
    3.190487887020784e-271 + 8.570797543194736e-271j, 1.1609783648237074e+151 - 5.4613948753815825e+149j,
    1.4164621323626401e+190 + 4.2288623569019164e+190j, 3.8356386840983195e-77 + 4.20466183264677e-77j,
    3.698635559811102e-133 - 9.032774733942381e-133j, -3.763477981455945e+216 - 3.781924242921664e+216j,
    -4.762732728606684e-228 + 3.6146432394318156e-228j, -179.9234823800456 + 312.14820306870877j,
    7.3671434787879e-301 + 3.2305432300588686e-301j, 9.593336770433954e-245 - 2.2134118948240402e-244j,
    6.820200956767985e-238 - 4.094648230031065e-238j, 1.0558418370986517e-91 + 6.714087398444252e-92j,
    1 + 0j,
]


def test_eigenvalue_solve_that_does_not_converge_raises_no_convergence():
    # typed, and silent: no numpy warning escapes, alone or in a stack
    # with a solvable core of the same degree
    solvable = _engine_coefficients(cycle_graph(13, 0.5))
    assert len(solvable) == len(NONCONVERGENT) and len(_solve([solvable])[0]) == 12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cs in ([NONCONVERGENT], [solvable, NONCONVERGENT], [NONCONVERGENT, [2j, 1 + 0j]]):
            with pytest.raises(NoConvergence, match="eigenvalue solve failed"):
                _solve(cs)


def test_a_failed_eigenvalue_solve_fails_the_whole_stack(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    cores = [_engine_coefficients(cycle_graph(4, w)) for w in (0.5, 2.0)]
    with pytest.raises(NoConvergence, match="did not converge"):
        _solve(cores)
    # a list with no core of degree 2 or more makes no eigenvalue solve
    assert _solve([[2j, 1 + 0j], [1 + 0j]]) == [[-2j], []]


def test_analyze_runs_the_engine_once_and_z_polynomial_once_on_the_whole_graph(monkeypatch):
    engine, seen = [0], []
    z_coefficients, z_polynomial_ = _kernels.z_coefficients, zeros.z_polynomial

    def counted(n, edges, *pairs):
        engine[0] += 1
        return z_coefficients(n, edges, *pairs)

    def recorded(g):
        seen.append(g)
        return z_polynomial_(g)

    monkeypatch.setattr(_kernels, "z_coefficients", counted)
    monkeypatch.setattr(zeros, "z_polynomial", recorded)
    forests = [path_graph(6, 0.5), build_graph(range(5), [(0, 1, 2.0), (2, 3, -1.0)]),
               build_graph(range(3), [(0, 1, 1.0), (0, 1, -0.5), (1, 2, 2.0)])]
    others = [cycle_graph(5, 0.3), complete_graph(4, 1j),
              build_graph(range(3), [(0, 1, 1.0), (0, 1, 0.5), (1, 2, 1.0), (0, 2, 1.0)]),
              build_graph(range(6), [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 4.0),
                                     (3, 4, 1.0), (3, 5, -2.0), (4, 5, 0.5)])]
    for g, engine_calls in [(g, 0) for g in forests] + [(g, 1) for g in others]:
        engine[0], seen[:] = 0, []
        rep = analyze(g)
        assert engine[0] == engine_calls
        assert len(seen) == 1 and seen[0] is g
        assert len(rep.roots) == g.n - rep.q_zero_multiplicity


def test_z_does_not_depend_on_call_history():
    # -1 + 0j and -1 - 0j are equal weights, but Z's coefficients carry
    # the sign of their zero parts: Z of one graph must come out the same
    # bits whatever graph came before it
    def bits(g):
        return [(c.real.hex(), c.imag.hex()) for c in z_polynomial(g).coeffs]

    edge = build_graph(range(2), [(0, 1, complex(-1.0, -0.0))])
    z_polynomial(build_graph(range(2), [(0, 1, complex(-1.0, 0.0))]))
    after_twin = bits(edge)
    z_polynomial(cycle_graph(4, 0.5))
    assert bits(edge) == after_twin


@pytest.mark.parametrize("weights", [
    # q (q + w)^3 with w = 1e-200: the q^1 coefficient w^3 underflows to 0
    [1e-200, 1e-200, 1e-200],
    # w1 w2 is subnormal, and w1 w2 w3 = 2e-115 would keep only a few of
    # its bits, too few to match the exact roots
    [2e-118, 7e-205, 1.5e207],
], ids=["to_zero", "through_subnormal"])
def test_underflowing_bridge_product_is_out_of_domain(weights):
    # Z itself is accurate in absolute terms, but the exact roots -w_e
    # cannot match its lowest coefficient
    g = build_graph(range(len(weights) + 1), [(i, i + 1, w) for i, w in enumerate(weights)])
    assert len(z_polynomial(g).coeffs) == g.n + 1
    with pytest.raises(OutOfDomain):
        analyze(g)


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


@pytest.mark.parametrize("between", ["simple", "general"])
def test_each_disc_flag_reads_its_own_radius(monkeypatch, between):
    # one radius between two root moduli, the other above them all: only
    # the disc whose radius falls short may be refused
    g = cycle_graph(4, complex(2.0, 0.5))
    roots, _ = q_roots(g)
    moduli = sorted(abs(r) for r in roots)
    assert moduli[0] < moduli[-1]
    short = (moduli[0] + moduli[-1]) / 2
    wide = 2 * moduli[-1]
    true_bounds = zeros.graph_bounds(g)
    radii = ({"radius_simple": short, "radius_general": wide} if between == "simple"
             else {"radius_simple": wide, "radius_general": short})
    monkeypatch.setattr(zeros, "graph_bounds",
                        lambda h: dataclasses.replace(true_bounds, **radii))
    rep = analyze(g)
    assert rep.general_disc_verified is (between == "simple")
    assert rep.simple_disc_verified is (between == "general")
