import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

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
from tuttezero import _kernels, verify
from tuttezero.bounds import _minimize_bounded
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
    with pytest.raises(OutOfDomain):
        gkfp_margin(pw, 0.0)
    with pytest.raises(OutOfDomain):
        kp_margin(pw, -1.0)


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
    """gkfp_optimal with its polish done by scipy's brentq, as it once was.

    Returns the branch derivative and its bracket with the optimum.
    """
    profile = [d for d in polymer_size_profile(pw) if d]

    def margin(alpha):
        return _margin_numerators(profile, alpha) / math.expm1(alpha)

    a0, _ = _minimize_bounded(margin, 1e-6, 50.0, 1e-10, 500)
    vals = [sum(a * math.exp(a0 * size) for size, a in d.items()) for d in profile]
    d = next(d for d, v in zip(profile, vals) if v >= max(vals) * (1 - 1e-9))

    def branch_derivative(alpha):
        ea = math.exp(alpha)
        num = sum(a * math.exp(alpha * size) for size, a in d.items())
        dnum = sum(a * size * math.exp(alpha * size) for size, a in d.items())
        return dnum * (ea - 1.0) - num * ea

    lo, hi = max(1e-9, a0 - 0.1), a0 + 0.1
    a_star = a0
    if branch_derivative(lo) < 0 < branch_derivative(hi):
        a_star = brentq(branch_derivative, lo, hi, xtol=1e-14)
    if margin(a_star) > margin(a0):
        a_star = a0
    return branch_derivative, lo, hi, a_star, margin(a_star)


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
    polished = 0
    for pw in gases:
        f, lo, hi, a_ref, m_ref = brentq_optimal(pw)
        if f(lo) < 0 < f(hi):
            polished += 1
            assert abs(_bisect(f, lo, hi) - brentq(f, lo, hi, xtol=1e-14)) <= 1e-12
        a_star, m = gkfp_optimal(pw)
        assert abs(m - m_ref) <= 1e-12 * m_ref
        # the margin is flat at its minimum: whether the coarse or the
        # polished point is kept is decided by rounding, and the two lie
        # about 1e-8 apart
        assert abs(a_star - a_ref) <= 1e-7
    assert polished == len(gases)


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
