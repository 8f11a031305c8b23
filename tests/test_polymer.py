import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from tuttezero import (
    BadIndex,
    DegenerateWeights,
    OutOfDomain,
    PolymerWeights,
    QPolynomial,
    ZeroQ,
    build_graph,
    connected_by_support,
    gkfp_margin,
    gkfp_optimal,
    kp_margin,
    polymer_partition,
    polymer_profile,
    tutte_polymer_weights,
    z_polynomial,
)
from tuttezero import _kernels, polymer, verify
from tuttezero.families import (
    complete_graph,
    connected_multigraph_structures,
    connected_simple_structures,
    path_graph,
    sample_weights,
    weighted,
)
from tuttezero.polymer import _bisect, _margin_numerators, polymer_size_profile


def brute_partition(pw):
    """Sum over families of pairwise-disjoint polymers, fully unrolled."""
    entries = list(pw.entries)

    def rec(i, used):
        if i == len(entries):
            return 1.0 + 0.0j
        mask, rho = entries[i]
        total = rec(i + 1, used)
        if not mask & used:
            total += rho * rec(i + 1, used | mask)
        return total

    return rec(0, 0)


def test_weights_validation():
    with pytest.raises(BadIndex):
        PolymerWeights.from_sets(3, [([0], 1.0)])  # singleton polymer
    with pytest.raises(BadIndex):
        PolymerWeights.from_sets(3, [([0, 5], 1.0)])
    with pytest.raises(BadIndex):
        PolymerWeights.from_sets(3, [([0, 1], 1.0), ([1, 0], 2.0)])
    # complex activities of one mask: checked before a sort could compare them
    with pytest.raises(BadIndex, match="duplicate"):
        PolymerWeights.from_sets(3, [([0, 1], 1j), ([1, 0], 2j)])
    with pytest.raises(BadIndex, match="empty"):
        PolymerWeights.from_sets(3, [([], 1.0)])
    with pytest.raises(BadIndex, match="not an integer"):
        PolymerWeights.from_sets(3, [([0, 1.5], 1.0)])
    with pytest.raises(BadIndex, match="not an integer"):
        PolymerWeights(3, ((3.0, 1.0),))
    for rho in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(OutOfDomain):
            PolymerWeights.from_sets(3, [([0, 1], rho)])
    # numpy vertex indices build the same masks as Python ints
    pw = PolymerWeights.from_sets(3, [(np.array([2, 0]), 0.5)])
    assert pw.entries == ((0b101, 0.5 + 0j),)
    assert type(pw.entries[0][0]) is int


def test_partition_matches_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        sets = []
        seen = set()
        for _ in range(int(rng.integers(1, 8))):
            size = int(rng.integers(2, n + 1))
            s = tuple(sorted(rng.choice(n, size, replace=False).tolist()))
            if s in seen:
                continue
            seen.add(s)
            sets.append((list(s), complex(*rng.normal(0, 1, 2))))
        pw = PolymerWeights.from_sets(n, sets)
        a = polymer_partition(pw)
        b = brute_partition(pw)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_tutte_weights_on_path():
    w = complex(0.25, -1.0)
    q = complex(2.0, 0.5)
    g = path_graph(3, w)
    pw = tutte_polymer_weights(g, q)
    got = dict(pw.entries)
    # pairs {0,1}, {1,2} carry w/q; the triple needs both edges: w^2/q^2
    assert abs(got[0b011] - w / q) < 1e-14
    assert abs(got[0b110] - w / q) < 1e-14
    assert abs(got[0b111] - w * w / q ** 2) < 1e-14
    assert 0b101 not in got


def test_tutte_weights_reject_zero_q(triangle):
    with pytest.raises(ZeroQ):
        tutte_polymer_weights(triangle, 0.0)
    # q^-2 does not fit in a float; w/q overflows although q^-1 fits
    with pytest.raises(OutOfDomain):
        tutte_polymer_weights(path_graph(3, complex(0.5, 0.2)), 1e-200)
    with pytest.raises(OutOfDomain):
        tutte_polymer_weights(path_graph(2, 1e300), 1e-10)


def test_profile_reproduces_polynomial(rng):
    for n, pairs in (
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
    ):
        ws = [complex(*rng.normal(0, 1, 2)) for _ in pairs]
        g = build_graph(range(n), [(u, v, w) for (u, v), w in zip(pairs, ws)])
        prof = polymer_profile(g)
        zc = z_polynomial(g).coeffs
        # coefficient of q^(n-j) in Z equals the gas coefficient of q^-j
        scale = max(1.0, max(abs(c) for c in zc))
        for j, c in enumerate(prof):
            assert abs(c - zc[n - j]) <= 1e-10 * scale


def test_partition_equals_polynomial_at_point(rng):
    g = complete_graph(4, 0.5 + 0.25j)
    zc = z_polynomial(g).coeffs
    for _ in range(5):
        q = complex(*rng.uniform(0.5, 2.5, 2))
        xi = polymer_partition(tutte_polymer_weights(g, q))
        z = sum(c * q ** i for i, c in enumerate(zc))
        assert abs(xi * q ** 4 - z) <= 1e-10 * max(1.0, abs(z))


def test_profile_scaling_homogeneity():
    # scaling every edge weight by t scales the size-s gas weights by t^...
    # degrees: entry j of the profile collects polymers covering j+k(extra)
    # vertices; doubling q instead divides entry j by 2^j
    g = complete_graph(4, 1.0 + 1.0j)
    prof = polymer_profile(g)
    q = 1.7 - 0.4j
    xi_q = sum(c / q ** j for j, c in enumerate(prof))
    xi_2q = sum(c / (2 * q) ** j for j, c in enumerate(prof))
    direct_q = polymer_partition(tutte_polymer_weights(g, q))
    direct_2q = polymer_partition(tutte_polymer_weights(g, 2 * q))
    assert abs(xi_q - direct_q) < 1e-10 * max(1.0, abs(direct_q))
    assert abs(xi_2q - direct_2q) < 1e-10 * max(1.0, abs(direct_2q))


def test_margin_hand_computed_single_edge():
    w, q = complex(0.0, 3.0), complex(4.0, 0.0)
    pw = tutte_polymer_weights(path_graph(2, w), q)
    alpha = math.log(2.0)
    want = math.exp(2 * alpha) * abs(w / q) / (math.exp(alpha) - 1.0)
    assert abs(gkfp_margin(pw, alpha) - want) < 1e-12
    assert abs(gkfp_margin(pw, alpha) - 4.0 * abs(w) / abs(q)) < 1e-12


def test_margin_alpha_domain(triangle):
    pw = tutte_polymer_weights(triangle, 2.0)
    for margin in (gkfp_margin, kp_margin):
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OutOfDomain):
                margin(pw, alpha)
    # e^{700 |S|} overflows for every polymer of a 3-vertex path
    pw = tutte_polymer_weights(path_graph(3, complex(0.5, 0.2)), 3.0)
    for margin in (gkfp_margin, kp_margin):
        with pytest.raises(OutOfDomain):
            margin(pw, 700.0)


def test_optimal_margin_is_global(rng):
    g = complete_graph(4, complex(0.4, 0.9))
    pw = tutte_polymer_weights(g, complex(3.0, -1.0))
    a_star, margin = gkfp_optimal(pw)
    for alpha in np.geomspace(1e-4, 30, 300):
        assert margin <= gkfp_margin(pw, float(alpha)) * (1 + 1e-9)
    assert abs(gkfp_margin(pw, a_star) - margin) <= 1e-9 * margin


def test_kp_variant_never_beats_gkfp(triangle):
    pw = tutte_polymer_weights(triangle, complex(1.5, 2.0))
    for alpha in (0.1, 0.5, 1.0, 2.0):
        # e^a - 1 >= a, so the classical margin dominates at every alpha
        assert gkfp_margin(pw, alpha) <= kp_margin(pw, alpha) * (1 + 1e-12)


def random_gases(rng, draws=40):
    """Gases of random 3-5-vertex graphs with small weights, at |q| >= 1."""
    for _ in range(draws):
        n = int(rng.integers(3, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = [p for p in pairs if rng.random() < 0.7]
        if len({v for p in keep for v in p}) < n:
            continue
        ws = [complex(*rng.normal(0, 0.4, 2)) for _ in keep]
        g = build_graph(range(n), [(u, v, w) for (u, v), w in zip(keep, ws)])
        q = complex(*rng.normal(0, 6, 2))
        if abs(q) < 1:
            continue
        try:
            pw = tutte_polymer_weights(g, q)
        except ZeroQ:
            continue
        if pw.entries:
            yield pw


def test_margin_below_one_implies_nonvanishing(rng):
    hits = 0
    for pw in random_gases(rng):
        _, margin = gkfp_optimal(pw)
        if margin <= 1.0:
            hits += 1
            assert abs(polymer_partition(pw)) > 1e-12
    assert hits >= 5  # the sweep has to actually exercise the regime


def brentq_optimal(pw):
    """The optimum by scipy: a bounded Brent pass over the margin, then
    brentq on the derivative of the branch that attains the maximum there.

    Returns that derivative, a bracket of its sign change around the Brent
    point, and brentq's root in it.
    """
    profile = [d for d in polymer_size_profile(pw) if d]

    def margin(alpha):
        return _margin_numerators(profile, alpha) / math.expm1(alpha)

    a0 = minimize_scalar(margin, bounds=(1e-6, 50.0), method="bounded",
                         options={"xatol": 1e-10, "maxiter": 500}).x
    vals = [sum(a * math.exp(a0 * size) for size, a in d.items()) for d in profile]
    d = next(d for d, v in zip(profile, vals) if v >= max(vals) * (1 - 1e-9))

    def branch_derivative(alpha):
        ea = math.exp(alpha)
        num = sum(a * math.exp(alpha * size) for size, a in d.items())
        dnum = sum(a * size * math.exp(alpha * size) for size, a in d.items())
        return dnum * (ea - 1.0) - num * ea

    lo, hi = max(1e-9, a0 - 0.1), a0 + 0.1
    return branch_derivative, lo, hi, brentq(branch_derivative, lo, hi, xtol=1e-14)


def test_bisection_polish_matches_brentq(rng, triangle):
    gases = [
        tutte_polymer_weights(complete_graph(4, complex(0.4, 0.9)), complex(3.0, -1.0)),
        tutte_polymer_weights(triangle, complex(1.5, 2.0)),
    ]
    for w, q in ((complex(1.3, -0.4), complex(0.3, 2.1)),
                 (complex(-0.2, 0.9), complex(-1.0, 0.75)),
                 (complex(5.0, 0.0), complex(0.0, -7.0))):
        gases.append(tutte_polymer_weights(path_graph(2, w), q))
    gases.extend(random_gases(rng))  # the gases of the nonvanishing test
    for pw in gases:
        f, lo, hi, a_ref = brentq_optimal(pw)
        assert f(lo) < 0 < f(hi)
        assert abs(_bisect(f, lo, hi) - a_ref) <= 1e-12
        a_star, m = gkfp_optimal(pw)
        # the stationary point of the maximal branch, to brentq's accuracy
        assert abs(a_star - a_ref) <= 1e-12
        m_ref = gkfp_margin(pw, a_ref)
        assert abs(m - m_ref) <= 1e-12 * m_ref


def test_optimal_needs_entries():
    pw = PolymerWeights.from_sets(4, [])
    with pytest.raises(DegenerateWeights):
        gkfp_optimal(pw)


def test_given_table_matches_built_table():
    g = complete_graph(4, complex(0.3, -1.1))
    table = connected_by_support(g)
    assert np.array_equal(polymer_profile(g, table=table), polymer_profile(g))
    q = complex(1.3, 0.8)
    assert tutte_polymer_weights(g, q, table=table) == tutte_polymer_weights(g, q)


class _Gauss:
    """Exact Gaussian rational, built from a float complex."""

    def __init__(self, z, im=None):
        self.re, self.im = (Fraction(z.real), Fraction(z.imag)) if im is None else (z, im)

    def __add__(self, other):
        return _Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _Gauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _Gauss(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _profile_dp(n, table, zero, one):
    """The gas profile by the textbook DP, in whatever arithmetic table holds."""
    f = [[zero] * n for _ in range(1 << n)]
    f[0][0] = one
    for mask in range(1, 1 << n):
        acc = list(f[mask & (mask - 1)])
        for s, c in table.items():
            if s & mask & -mask and s & mask == s:
                shift = bin(s).count("1") - 1
                for j in range(n - shift):
                    acc[j + shift] = acc[j + shift] + c * f[mask ^ s][j]
        f[mask] = acc
    return f[-1]


def _partition_dp(n, entries, zero, one):
    f = [one] + [zero] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        acc = f[mask & (mask - 1)]
        for s, rho in entries:
            if s & mask & -mask and s & mask == s:
                acc = acc + rho * f[mask ^ s]
        f[mask] = acc
    return f[-1]


def test_list_dps_against_exact_arithmetic():
    # the C table in exact Gaussian rationals, rounded, is fed to the float
    # DPs and to the same DPs in exact arithmetic; the DP on moduli bounds
    # every term, so it sets the scale of the rounding error
    rng = np.random.default_rng(0)
    corpus = connected_simple_structures(5) + connected_multigraph_structures(3)
    one, zero = _Gauss(1.0), _Gauss(0.0)
    for n, pairs in corpus:
        g = weighted((n, pairs), sample_weights(len(pairs), "mixed", rng))
        exact = _kernels._exact_table(n, g.edges, _kernels._induced_connected(n, g.edges))
        table = {s: c for s, c in enumerate(exact) if c != 0 and s & (s - 1)}
        want = _profile_dp(n, {s: _Gauss(c) for s, c in table.items()}, zero, one)
        scale = _profile_dp(n, {s: abs(c) for s, c in table.items()}, 0.0, 1.0)
        got = polymer_profile(g, table=table)
        assert len(got) == n
        for x, w, sc in zip(got.tolist(), want, scale):
            assert abs(complex(_Gauss(x) - w)) <= 1e-13 * sc
        for q in (complex(1.3, -0.7), complex(-2.1, 0.4)):
            pw = tutte_polymer_weights(g, q, table=table)
            w = _partition_dp(n, [(s, _Gauss(r)) for s, r in pw.entries], zero, one)
            sc = _partition_dp(n, [(s, abs(r)) for s, r in pw.entries], 0.0, 1.0)
            assert abs(complex(_Gauss(polymer_partition(pw)) - w)) <= 1e-13 * sc


@functools.cache
def bit_corpus():
    """The simple structures to 6 vertices and the multigraphs to 4, one
    mixed draw each from default_rng(0), with their tables."""
    rng = np.random.default_rng(0)
    out = []
    for n, pairs in connected_simple_structures(6) + connected_multigraph_structures(4):
        g = weighted((n, pairs), sample_weights(len(pairs), "mixed", rng))
        out.append((g, connected_by_support(g)))
    return out


def _bits(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def test_dps_match_the_textbook_dps_bit_for_bit():
    # the textbook DPs visit the polymers of each mask in table order, as
    # the plan does, so every sum is the same
    for g, table in bit_corpus():
        want = _profile_dp(g.n, table, 0j, 1.0 + 0j)
        assert _bits(polymer_profile(g, table=table).tolist()) == _bits(want)
        for q in (complex(1.3, -0.7), complex(-2.1, 0.4)):
            pw = tutte_polymer_weights(g, q, table=table)
            want = _partition_dp(g.n, pw.entries, 0j, 1.0 + 0j)
            assert _bits([polymer_partition(pw)]) == _bits([want])


def _proper_subsets_with_low(s):
    """Yield (T, S minus T) for every T strictly inside S holding low(S)."""
    low = s & -s
    rest = s ^ low
    sub = rest
    while sub:
        sub = (sub - 1) & rest
        yield low | sub, rest ^ sub


def _reference_table(n, edges):
    """connected_by_support's float pass and exact redo, with T drawn from
    the subset generator; returns (table, whether the exact route ran)."""
    conn = _kernels._induced_connected(n, edges)
    f = _kernels._support_products(n, edges)
    a_f = [abs(x) for x in f]
    u, mul = 2.0 ** -53, 3.0 * 2.0 ** -53
    rel_f = len(edges) * (u + mul)
    c, w_c = [0j] * (1 << n), [0.0] * (1 << n)
    for s in range(1, 1 << n):
        if not conn[s]:
            continue
        acc, err = f[s], rel_f * a_f[s]
        for t, r in _proper_subsets_with_low(s):
            if conn[t]:
                acc -= c[t] * f[r]
                err += w_c[t] * a_f[r] + u * abs(acc)
        mod = abs(acc)
        if err > _kernels.CANCEL_TOL * mod:
            break
        c[s] = acc
        w_c[s] = (mul + rel_f) * mod + (1.0 + rel_f) * err
    else:
        return [0j if s & (s - 1) == 0 else x for s, x in enumerate(c)], False
    # the exact route: Gaussian integers scaled by 2^(sh e(S))
    sh = max((x.as_integer_ratio()[1].bit_length() - 1
              for _, _, w in edges for x in (w.real, w.imag)), default=0)
    lifted = [(u, v, _kernels._scaled(w.real, sh) + (1 << sh), _kernels._scaled(w.imag, sh))
              for u, v, w in edges]
    f_re, f_im, e = [1] * (1 << n), [0] * (1 << n), [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        rest = m ^ low
        x, y, k = f_re[rest], f_im[rest], e[rest]
        for a, b, p, q in lifted:
            a, b = min(a, b), max(a, b)
            if 1 << a == low and rest >> b & 1:
                x, y, k = x * p - y * q, x * q + y * p, k + 1
        f_re[m], f_im[m], e[m] = x, y, k
    c_re, c_im, out = [0] * (1 << n), [0] * (1 << n), [0j] * (1 << n)
    for m in range(1, 1 << n):
        if not conn[m]:
            continue
        x, y = f_re[m], f_im[m]
        for t, r in _proper_subsets_with_low(m):
            if conn[t]:
                shift = sh * (e[m] - e[t] - e[r])
                a, b, p, q = c_re[t], c_im[t], f_re[r], f_im[r]
                x -= (a * p - b * q) << shift
                y -= (a * q + b * p) << shift
        c_re[m], c_im[m] = x, y
        if m & (m - 1):
            out[m] = complex(x / (1 << sh * e[m]), y / (1 << sh * e[m]))
    return out, True


def test_support_tables_match_the_generator_reference_bit_for_bit():
    routes = set()
    for g, _ in bit_corpus():
        want, exact = _reference_table(g.n, g.edges)
        routes.add(exact)
        got = _kernels.connected_by_support(g.n, g.edges)
        assert _bits(got.tolist()) == _bits(want)
    assert routes == {False, True}  # both the float pass and the exact redo


def test_plan_lists_the_fitting_polymers_in_the_given_order(rng):
    for n in (3, 5, 7):
        masks = [m for m in range(1 << n) if m & (m - 1) and rng.random() < 0.5]
        rng.shuffle(masks)
        masks = tuple(masks)
        shifts, inside = polymer._build_plan(n, masks)
        assert shifts == tuple(bin(s).count("1") - 1 for s in masks)
        assert inside == tuple(
            tuple(i for i, s in enumerate(masks) if s & m == s and s & m & -m)
            for m in range(1 << n))


def test_a_graph_builds_one_plan_for_its_profile_and_partitions():
    g = complete_graph(5, complex(0.3, -0.8))
    table = connected_by_support(g)
    polymer._cached_plan.cache_clear()
    polymer_profile(g, table=table)
    for q in (complex(1.3, -0.7), complex(-2.1, 0.4)):
        polymer_partition(tutte_polymer_weights(g, q, table=table))
    info = polymer._cached_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_multigraphs_build_no_more_plans_than_skeletons():
    corpus = connected_multigraph_structures(4)
    skeletons = {(n, frozenset(pairs)) for n, pairs in corpus}
    assert len(skeletons) < len(corpus)
    rng = np.random.default_rng(0)
    polymer._cached_plan.cache_clear()
    for n, pairs in corpus:
        g = weighted((n, pairs), sample_weights(len(pairs), "mixed", rng))
        table = connected_by_support(g)
        polymer_profile(g, table=table)
        polymer_partition(tutte_polymer_weights(g, 2.0 - 1.0j, table=table))
    assert polymer._cached_plan.cache_info().misses <= len(skeletons)


def _deep_size(obj):
    """Bytes of nested tuples of small ints, counting each object once."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        total += sys.getsizeof(x)
        if isinstance(x, tuple):
            todo.extend(x)
    return total


def test_plan_cache_holds_its_byte_bound():
    # K7 has every polymer mask of 7 vertices, so its plan is the largest
    # the cache can hold; every int in it is one of CPython's shared small
    # ints, so none adds to the bound
    masks = tuple(m for m in range(1 << 7) if m & (m - 1))
    shifts, inside = polymer._build_plan(7, masks)
    assert max(max(shifts), max(map(max, filter(None, inside)))) <= 256
    entry = _deep_size(((7, masks), (shifts, inside))) - sum(
        sys.getsizeof(i) for i in set(masks) | set(shifts) | {7}
        | {i for t in inside for i in t})
    assert entry <= 16 * 1024
    assert polymer._cached_plan.cache_info().maxsize * 16 * 1024 <= 1 << 20
    # past PLAN_VERTICES no plan is cached
    polymer._cached_plan.cache_clear()
    polymer_partition(PolymerWeights.from_sets(8, [([0, 7], 0.5)]))
    assert polymer._cached_plan.cache_info().currsize == 0
    assert polymer.PLAN_VERTICES == 7


def test_dps_raise_when_they_overflow():
    # 1e160 * 1e160 overflows in the gas coefficient of both edges together;
    # the weak middle edge makes a finite fourth coefficient, 1e120
    for extra in ([], [(1, 2, 1e-200)]):
        g = build_graph(range(4), [(0, 1, 1e160), (2, 3, 1e160)] + extra)
        table = connected_by_support(g)
        with pytest.raises(OutOfDomain, match="gas profile"):
            polymer_profile(g, table=table)
        pw = tutte_polymer_weights(g, 1.0, table=table)
        with pytest.raises(OutOfDomain, match="gas partition"):
            polymer_partition(pw)
        with pytest.raises(OutOfDomain):
            z_polynomial(g)


def test_dps_on_zero_and_one_vertex():
    for n in (0, 1):
        g = build_graph(range(n), [])
        assert polymer_profile(g).tolist() == [1.0 + 0j]
        pw = tutte_polymer_weights(g, 2.0 - 1.0j)
        assert pw.entries == ()
        assert polymer_partition(pw) == 1.0 + 0j


# ---------------------------------------------------------------------------
# the identity sweep: one table per graph, and a failure path that reports


def test_polymer_sweep_builds_one_table_per_graph(monkeypatch):
    counts = {"table": 0, "z": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_kernels, "connected_by_support",
                        counted("table", _kernels.connected_by_support))
    monkeypatch.setattr(verify, "z_polynomial", counted("z", verify.z_polynomial))
    r = verify.verify_polymer_identity(max_simple=4, max_multi=3, n_q=4, seed=0)
    assert r["passed"]
    assert counts["z"] > 0
    assert counts["table"] == counts["z"]


def test_polymer_sweep_reports_a_scaled_profile(monkeypatch):
    profile = verify.polymer_profile

    def scaled(g, **kwargs):
        p = profile(g, **kwargs)
        return p * (1 + 1e-6) if g.n == 4 else p

    monkeypatch.setattr(verify, "polymer_profile", scaled)
    r = verify.verify_polymer_identity(4, 0, n_q=5, seed=0)
    # 6 four-vertex structures, each off at all 5 points and both activity points
    assert not r["passed"]
    assert r["checked"] == 70
    assert r["failure_count"] == 42
    star = "identity off at n=4, edges=((0, 3), (1, 3), (2, 3)), q="
    assert r["failures"][:2] == [
        star + "(2.652678663038987-0.8093389905310286j)",
        star + "(-2.367028322578623+0.7746489092382554j)",
    ]
    assert r["failures"][5:7] == [
        "activity route differs at n=4, q=(2.652678663038987-0.8093389905310286j)",
        "activity route differs at n=4, q=(-2.367028322578623+0.7746489092382554j)",
    ]
    assert r["failures"][7] == (
        "identity off at n=4, edges=((0, 1), (0, 3), (1, 2)), "
        "q=(1.2668572679384988+2.592358119680269j)"
    )


def test_polymer_sweep_reports_a_perturbed_polynomial(monkeypatch):
    z_poly = verify.z_polynomial

    def perturbed(g):
        c = list(z_poly(g).coeffs)
        c[1] *= 1 + 1e-6
        return QPolynomial(tuple(c))

    monkeypatch.setattr(verify, "z_polynomial", perturbed)
    r = verify.verify_polymer_identity(4, 0, n_q=5, seed=0)
    # every structure is off at every point; the activity route never sees Z
    assert r["checked"] == 70
    assert r["failure_count"] == 50
    assert not any(f.startswith("activity") for f in r["failures"])
    assert r["failures"][0] == (
        "identity off at n=1, edges=(), q=(0.8217701239287258-1.3812797174167781j)"
    )


# ---------------------------------------------------------------------------
# the batched identity check against the per-graph loop it replaced


def per_graph_polymer_identity(max_simple, max_multi, n_q, seed):
    """The identity check one graph at a time, every q of a graph as one
    array, with np.polyval for Horner; calls go through the verify
    namespace, so a fault patched in there reaches both routes."""
    rng = np.random.default_rng(seed)
    failures = []
    checked = 0
    corpora = [connected_simple_structures(max_simple)]
    if max_multi:
        corpora.append(connected_multigraph_structures(max_multi))
    for corpus in corpora:
        for n, pairs in corpus:
            ws = sample_weights(len(pairs), "mixed", rng)
            g = weighted((n, pairs), ws)
            table = verify.connected_by_support(g)
            zc = np.asarray(verify.z_polynomial(g).coeffs)
            prof = verify.polymer_profile(g, table=table)
            qs = rng.uniform(-3.0, 3.0, (n_q, 2))
            q = qs[:, 0] + 1j * qs[:, 1]
            q = np.where(np.abs(q) < 0.2, q + 0.5, q)
            xi = np.polyval(prof[::-1], 1.0 / q)
            lhs = xi * q**n
            rhs = np.polyval(zc[::-1], q)
            scale = np.polyval(np.abs(zc)[::-1], np.abs(q))
            checked += n_q
            off = np.abs(lhs - rhs) > 1e-10 * np.maximum(scale, 1e-300)
            for i in np.flatnonzero(off):
                failures.append(f"identity off at n={n}, edges={pairs}, q={complex(q[i])}")
            if n <= 6:
                for qi, xi_q in zip(q[:2].tolist(), xi[:2].tolist()):
                    xi2 = verify.polymer_partition(
                        verify.tutte_polymer_weights(g, qi, table=table))
                    checked += 1
                    if abs(xi2 - xi_q) > 1e-10 * max(1.0, abs(xi_q)):
                        failures.append(f"activity route differs at n={n}, q={qi}")
    return verify._finish("polymer_identity", not failures, checked, failures, 0.0, seed=seed)


@pytest.fixture
def sweep_pair(monkeypatch):
    """Both routes of one configuration, as dicts without elapsed.

    _finish also keeps every failure line, not only the first eight, and
    connected_by_support is memoized on the graph, so the second route
    does not repeat the exact-arithmetic fallback of 7-vertex graphs.
    """
    finish = verify._finish

    def finish_all(name, passed, checked, failures, t0, **extra):
        return finish(name, passed, checked, failures, t0,
                      every_failure=[str(f) for f in failures], **extra)

    tables = {}
    build = verify.connected_by_support

    def memo(g):
        key = (g.n, g.edges)
        if key not in tables:
            tables[key] = build(g)
        return tables[key]

    monkeypatch.setattr(verify, "_finish", finish_all)
    monkeypatch.setattr(verify, "connected_by_support", memo)

    def run(*config):
        got = verify.verify_polymer_identity(*config)
        want = per_graph_polymer_identity(*config)
        for r in (got, want):
            del r["elapsed"]
        return got, want

    return run


@pytest.mark.parametrize("config", [
    (5, 4, 20, 0), (5, 4, 20, 7), (7, 4, 20, 1), (3, 0, 2, 3), (6, 3, 5, 11),
    (5, 4, 0, 2), (5, 4, 1, 4),
])
def test_batched_identity_matches_per_graph_loop(sweep_pair, config):
    got, want = sweep_pair(*config)
    assert got == want
    assert got["passed"]
    assert got["checked"] > 0 or config[2] == 0


def test_batched_identity_matches_with_z_perturbed_at_two_vertices(sweep_pair, monkeypatch):
    z_poly = verify.z_polynomial

    def perturbed(g):
        c = list(z_poly(g).coeffs)
        if g.n == 2:
            c[1] *= 1 + 1e-6
        return QPolynomial(tuple(c))

    monkeypatch.setattr(verify, "z_polynomial", perturbed)
    for config in ((5, 4, 20, 0), (4, 3, 5, 3)):
        got, want = sweep_pair(*config)
        assert got == want
        assert got["failure_count"] > 0
        assert all(", edges=((0, 1)," in f for f in got["every_failure"])


def test_batched_identity_matches_with_profile_scaled_at_one_vertex(sweep_pair, monkeypatch):
    profile = verify.polymer_profile

    def scaled(g, **kwargs):
        p = profile(g, **kwargs)
        return p * (1 + 1e-6) if g.n == 1 else p

    monkeypatch.setattr(verify, "polymer_profile", scaled)
    for config in ((5, 4, 20, 0), (4, 3, 5, 3)):
        got, want = sweep_pair(*config)
        assert got == want
        assert got["failure_count"] > 0
        assert all("n=1," in f for f in got["every_failure"])


def test_polymer_sweep_rejects_negative_point_count():
    with pytest.raises(OutOfDomain):
        verify.verify_polymer_identity(3, 0, -1)
