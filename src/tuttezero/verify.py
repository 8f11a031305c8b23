"""Verification sweeps shared by the command line and the test suite.

Each function runs one family of checks end to end and returns a plain
dict: name, passed, how many instances were checked, a short list of
failure descriptions, elapsed seconds, and any headline values.  The
sweeps are exhaustive over structure corpora and seeded for weights, so
two runs with the same seed agree byte for byte.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import _kernels, counting, families
from .bounds import (
    _golden_min,
    f_closed,
    f_lambda_series,
    f_lambda_variational,
    g_ratio,
    kstar_psi,
    lambert_w,
    sokal_K,
)
from .errors import OutOfDomain
from .graph import build_graph, degree_quantities, induced_subgraph
from .penrose import extended_penrose_bounds, penrose_identity_eval, verify_partition
from .polymer import (
    gkfp_optimal,
    kp_margin,
    polymer_partition,
    polymer_profile,
    tutte_polymer_weights,
)
from .tutte import _z_polynomials, connected_by_support, connected_gen_poly, z_polynomial
from .zeros import _q_roots_rows, analyze, example_suite

LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
BETA_GRID = (0.05, 0.1, 0.3, 1.0, 3.0, 5.0, 10.0, 20.0)

K_REFERENCE = 7.963906075890002502
K_CEILING = 7.963907
KSTAR1_REFERENCE = 6.907651697774449218
KSTAR0_REFERENCE = 4.892888
G_MIN_REFERENCE = 0.930714
G_ARGMIN_REFERENCE = 3.70249


def _finish(name, passed, checked, failures, t0, **extra):
    out = {
        "name": name,
        "passed": bool(passed),
        "checked": int(checked),
        "failures": [str(f) for f in failures[:8]],
        "failure_count": len(failures),
        "elapsed": round(time.perf_counter() - t0, 3),
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# constants

def verify_constants() -> dict:
    """The four headline constants, their routes, and their references."""
    t0 = time.perf_counter()
    failures = []
    k_var = sokal_K("variational")
    k_ser = sokal_K("series")
    if abs(k_var - K_REFERENCE) > 1e-9:
        failures.append(f"K variational {k_var!r} off reference")
    if abs(k_ser - k_var) > 1e-9:
        failures.append(f"K series {k_ser!r} disagrees with variational {k_var!r}")
    if not k_var <= K_CEILING:
        failures.append(f"K {k_var!r} above rigorous ceiling")
    ks1 = kstar_psi(1.0)
    if abs(ks1 - KSTAR1_REFERENCE) > 1e-12:
        failures.append(f"kstar_psi(1) {ks1!r} off reference")
    ks0 = f_closed(0, 1.0)
    w2e = lambert_w(2.0 * math.e)
    ks0_direct = w2e / (2.0 * (w2e - 1.0) ** 2)
    if abs(ks0 - ks0_direct) > 1e-12:
        failures.append(f"f_closed(0,1) {ks0!r} vs direct {ks0_direct!r}")
    if abs(ks0 - KSTAR0_REFERENCE) > 1e-5:
        failures.append(f"f_closed(0,1) {ks0!r} off 4.892888")
    return _finish(
        "constants", not failures, 6, failures, t0,
        values={"K": k_var, "K_series": k_ser, "kstar_1": ks1, "kstar_lambda_0": ks0},
    )


# ---------------------------------------------------------------------------
# route agreement and shape of F

def verify_f_routes(lams=LAMBDA_GRID, betas=BETA_GRID) -> dict:
    """Series, variational, and closed evaluations agree pairwise to 1e-9."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    worst = 0.0
    for lam in lams:
        for beta in betas:
            v = f_lambda_variational(lam, beta)
            s = f_lambda_series(lam, beta)
            tol = 1e-9 * max(1.0, abs(v))
            gap = abs(s - v)
            worst = max(worst, gap / max(1.0, abs(v)))
            if gap > tol:
                failures.append(f"series vs variational at ({lam},{beta}): {s!r} vs {v!r}")
            if lam in (0.0, 1.0):
                c = f_closed(int(lam), beta)
                if abs(c - v) > tol or abs(c - s) > tol:
                    failures.append(f"closed form at ({lam},{beta}): {c!r} vs {v!r}/{s!r}")
            checked += 1
    return _finish("f_routes", not failures, checked, failures, t0, worst_gap=worst)


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def _series_inv(a: list[Fraction], order: int) -> list[Fraction]:
    """Reciprocal of a power series with nonzero constant term."""
    out = [Fraction(0)] * (order + 1)
    out[0] = 1 / a[0]
    for k in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, k + 1):
            if j < len(a):
                s += a[j] * out[k - j]
        out[k] = -s / a[0]
    return out


def _w_shift_series(rhs: list[Fraction], order: int) -> list[Fraction]:
    """Solve (1+V) e^V = rhs(beta) for V as a power series, V(0) = 0.

    Order by order: with V correct below degree k, the degree-k defect is
    linear in the unknown coefficient with slope (2+V)e^V at 0, i.e. 2.
    This is the Taylor shift of the Lambert function about its value 1.
    """
    v = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        ev = [Fraction(0)] * (order + 1)
        ev[0] = Fraction(1)
        power = [Fraction(1)] + [Fraction(0)] * order
        for m in range(1, order + 1):
            power = _series_mul(power, v, order)
            fm = Fraction(1, math.factorial(m))
            for i in range(order + 1):
                ev[i] += fm * power[i]
        total = _series_mul([Fraction(1)] + v[1:], ev, order)
        v[k] = (rhs[k] - total[k]) / 2
    return v


def _expansion_coefficients(lam01: int, n_coeffs: int = 6) -> list[Fraction]:
    """Exact leading expansion coefficients of F about beta = 0.

    Works in rational arithmetic: the Lambert shift series V solves its
    defining equation, and F = beta (1+V) / ((1+beta)^s V^2) reduces to a
    Laurent series whose coefficients come out as exact fractions.  The
    first entry is the 1/beta coefficient.
    """
    order = n_coeffs + 2
    if lam01 == 0:
        rhs = [Fraction(1), Fraction(1)] + [Fraction(0)] * (order - 1)
    else:
        rhs = [Fraction((-1) ** k) for k in range(order + 1)]
    v = _w_shift_series(rhs, order)
    # V = c1 b + c2 b^2 + ...; V^2 = b^2 * u with u invertible
    shifted = v[1:] + [Fraction(0)]
    u = _series_mul(shifted, shifted, order)
    s = _series_mul([Fraction(1)] + v[1:], _series_inv(u, order), order)
    if lam01 == 0:
        s = _series_mul(s, _series_inv(rhs, order), order)
    return s[:n_coeffs]


EXPANSION_F0 = tuple(
    float(f) for f in (4, 1, Fraction(-7, 48), Fraction(11, 192),
                       Fraction(-443, 15360), Fraction(607, 36864))
)
EXPANSION_F1 = tuple(
    float(f) for f in (4, 3, Fraction(-7, 48), Fraction(17, 192),
                       Fraction(-923, 15360), Fraction(8113, 184320))
)


def verify_f_properties() -> dict:
    """Monotonicity, convexity, comparison, ceiling, and expansion checks."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    slack = 1e-10

    table = {
        (lam, beta): f_lambda_variational(lam, beta)
        for lam in LAMBDA_GRID
        for beta in BETA_GRID
    }
    # increasing in lambda, decreasing in beta
    for beta in BETA_GRID:
        for a, b in zip(LAMBDA_GRID, LAMBDA_GRID[1:]):
            checked += 1
            if table[(a, beta)] > table[(b, beta)] * (1 + slack):
                failures.append(f"F not increasing in lambda at beta={beta}")
    for lam in LAMBDA_GRID:
        for a, b in zip(BETA_GRID, BETA_GRID[1:]):
            checked += 1
            if table[(lam, a)] < table[(lam, b)] * (1 - slack):
                failures.append(f"F not decreasing in beta at lambda={lam}")
    # beta * F increasing in both
    for beta in BETA_GRID:
        for a, b in zip(LAMBDA_GRID, LAMBDA_GRID[1:]):
            checked += 1
            if beta * table[(a, beta)] > beta * table[(b, beta)] * (1 + slack):
                failures.append(f"beta*F not increasing in lambda at beta={beta}")
    for lam in LAMBDA_GRID:
        for a, b in zip(BETA_GRID, BETA_GRID[1:]):
            checked += 1
            if a * table[(lam, a)] > b * table[(lam, b)] * (1 + slack):
                failures.append(f"beta*F not increasing in beta at lambda={lam}")
    # F/lambda decreasing in both (positive lambda only)
    pos = [x for x in LAMBDA_GRID if x > 0]
    for beta in BETA_GRID:
        for a, b in zip(pos, pos[1:]):
            checked += 1
            if table[(a, beta)] / a < table[(b, beta)] / b * (1 - slack):
                failures.append(f"F/lambda not decreasing in lambda at beta={beta}")
    for lam in pos:
        for a, b in zip(BETA_GRID, BETA_GRID[1:]):
            checked += 1
            if table[(lam, a)] / lam < table[(lam, b)] / lam * (1 - slack):
                failures.append(f"F/lambda not decreasing in beta at lambda={lam}")
    # log F convex in log beta
    geo = np.geomspace(0.05, 20.0, 13)
    for lam in LAMBDA_GRID:
        logf = [math.log(f_lambda_variational(lam, b)) for b in geo]
        for i in range(1, len(geo) - 1):
            checked += 1
            second = logf[i - 1] - 2 * logf[i] + logf[i + 1]
            if second < -1e-8:
                failures.append(f"log-log convexity fails at lambda={lam}, i={i}")
    # comparison inequality between lambda levels
    for lam, lam2 in combinations(LAMBDA_GRID, 2):
        r = (1 + 2 * lam) / (1 + 2 * lam2)
        for beta in BETA_GRID:
            checked += 1
            lhs = table[(lam, beta)]
            rhs = r * f_lambda_variational(lam2, r * beta)
            if lhs > rhs * (1 + 1e-9):
                failures.append(f"comparison fails at ({lam},{lam2},{beta})")
    # simple ceiling on [0, 1]
    for lam in LAMBDA_GRID:
        for beta in BETA_GRID:
            checked += 1
            if table[(lam, beta)] > 4.0 / beta + 1.0 + 2.0 * lam + 1e-12:
                failures.append(f"ceiling 4/beta+1+2lambda fails at ({lam},{beta})")
    # expansion coefficients about beta = 0
    got0 = _expansion_coefficients(0)
    got1 = _expansion_coefficients(1)
    for tag, got, want in (("F0", got0, EXPANSION_F0), ("F1", got1, EXPANSION_F1)):
        for i, (a, b) in enumerate(zip(got, want)):
            checked += 1
            if abs(a - b) > 1e-6:
                failures.append(f"{tag} coefficient {i}: {float(a)!r} vs {b!r}")
    return _finish(
        "f_properties", not failures, checked, failures, t0,
        expansion_f0=[float(c) for c in got0],
        expansion_f1=[float(c) for c in got1],
    )


# ---------------------------------------------------------------------------
# parallel combination inequalities

def verify_parallel_reduction(samples: int = 10_000, seed: int = 0) -> dict:
    """Amplification and damping inequalities for merged parallel edges."""
    if samples < 0:
        raise OutOfDomain(f"samples must be >= 0, got {samples}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    def draw(k):
        theta = rng.uniform(0.0, 2.0 * math.pi, k)
        coin = rng.random(k) < 0.5
        r = np.where(coin, np.sqrt(rng.random(k)), 10.0 ** rng.random(k))
        return -1.0 + r * np.exp(1j * theta)

    w1 = draw(samples)
    w2 = draw(samples)
    w3 = (1 + w1) * (1 + w2) - 1

    def amp(w):
        return np.maximum(1.0, np.abs(1 + w))

    def damp(w):
        a = np.maximum(np.abs(1 + w), 1e-300)
        return np.minimum(np.abs(w), np.abs(w) / a)

    failures = []
    bad = amp(w3) > amp(w1) * amp(w2) * (1 + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        failures.append(f"amplification fails at w1={w1[i]}, w2={w2[i]}")
    bad = damp(w3) > damp(w1) + damp(w2) + 1e-12 * (damp(w1) + damp(w2) + 1)
    if np.any(bad):
        i = int(np.argmax(bad))
        failures.append(f"damping fails at w1={w1[i]}, w2={w2[i]}")
    # merging preserves the polynomial itself: z_polynomial sums over the
    # merged class, the edge engine here over every input edge
    for k in (2, 3):
        g = families.k2_parallel(k, complex(0.8, -1.7))
        zr = z_polynomial(g).coeffs
        zm = _kernels.z_coefficients(g.n, g.edges)
        if any(abs(a - b) > 1e-12 * max(1, abs(b)) for a, b in zip(zr, zm)):
            failures.append(f"merge changes the polynomial at k={k}")
    return _finish(
        "parallel_reduction", not failures, 2 * samples + 2, failures, t0, seed=seed
    )


# ---------------------------------------------------------------------------
# interval partition and tree-sum chains

def verify_penrose_partition(max_vertices: int = 6) -> dict:
    """Exhaustive partition check, every structure and every root."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    spot = {}
    for n, pairs in families.connected_simple_structures(max_vertices):
        g = build_graph(range(n), [(u, v, 1.0) for u, v in pairs])
        for root in range(n):
            rep = verify_partition(g, root)
            checked += 1
            if not rep.passed:
                failures.append(f"partition fails: n={n}, edges={pairs}, root={root}")
        if n == 3 and len(pairs) == 3:
            spot["triangle"] = (rep.tree_count, rep.connected_count)
        if n == 4 and len(pairs) == 6:
            spot["four_clique"] = (rep.tree_count, rep.connected_count)
    if spot.get("triangle") != (3, 4):
        failures.append(f"triangle spot values {spot.get('triangle')}")
    if spot.get("four_clique") != (16, 38):
        failures.append(f"four-clique spot values {spot.get('four_clique')}")
    return _finish("penrose_partition", not failures, checked, failures, t0, spot=spot)


def verify_penrose_chains(max_vertices: int = 5, draws: int = 100, seed: int = 0) -> dict:
    """Tree-sum identity plus both bound chains under random weights."""
    if draws < 0:
        raise OutOfDomain(f"draws must be >= 0, got {draws}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    checked = 0
    for n, pairs in families.connected_simple_structures(max_vertices):
        for _ in range(draws):
            ws = families.sample_weights(len(pairs), "mixed", rng)
            g = families.weighted((n, pairs), ws)
            c = connected_gen_poly(g)
            pe = penrose_identity_eval(g, 0)
            denom = max(abs(c), abs(pe), 1e-300)
            checked += 1
            if abs(pe - c) > 1e-10 * denom:
                failures.append(f"identity off at n={n}, edges={pairs}: {pe!r} vs {c!r}")
            for root in range(n):
                b = extended_penrose_bounds(g, root)
                chain = b.chain_all()
                checked += 1
                if any(
                    chain[i] > chain[i + 1] * (1 + 1e-9) + 1e-300
                    for i in range(len(chain) - 1)
                ):
                    failures.append(f"damped chain fails at n={n}, root={root}")
                rooted = b.chain_rooted()
                checked += 1
                if any(
                    rooted[i] > rooted[i + 1] * (1 + 1e-9) + 1e-300
                    for i in range(len(rooted) - 1)
                ):
                    failures.append(f"rooted chain fails at n={n}, root={root}")
    return _finish("penrose_chains", not failures, checked, failures, t0, seed=seed)


# ---------------------------------------------------------------------------
# polymer gas

def _polyval(c, x):
    """Row k of c (highest power first) at every point of row k of x, by
    Horner's rule as np.polyval computes it, without its argument
    handling.  Rows of lower degree are padded with leading zeros, which
    leave every value's bits as they are."""
    y = np.zeros_like(x)
    for k in range(c.shape[1]):
        y = y * x + c[:, k, None]
    return y


def _padded(rows):
    """Coefficient lists, ascending by power, as one matrix with a row per
    list, highest power first, padded with leading zeros."""
    width = max(map(len, rows), default=1)
    return np.array(
        [[0j] * (width - len(r)) + r[::-1] for r in rows], dtype=np.complex128
    ).reshape(len(rows), width)


def verify_polymer_identity(
    max_simple: int = 7, max_multi: int = 4, n_q: int = 20, seed: int = 0
) -> dict:
    """The gas partition function times q^n equals the polynomial.

    The first pass walks the corpus: per graph it draws the weights, builds
    the connected_by_support table once for the profile and the activity
    route, draws the n_q points and runs the activity route at the first
    two.  The second pass checks every graph at every point at once, as
    (graphs, n_q) arrays, and reports in corpus order.
    """
    if n_q < 0:
        raise OutOfDomain(f"n_q must be >= 0, got {n_q}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    checked = 0
    graphs = []  # (n, pairs, activity-route values)
    zcs, profs, draws = [], [], []
    corpora = [families.connected_simple_structures(max_simple)]
    if max_multi:
        corpora.append(families.connected_multigraph_structures(max_multi))
    for corpus in corpora:
        for n, pairs in corpus:
            ws = families.sample_weights(len(pairs), "mixed", rng)
            g = families.weighted((n, pairs), ws)
            table = connected_by_support(g)
            zcs.append(list(z_polynomial(g).coeffs))
            profs.append(polymer_profile(g, table=table).tolist())
            qs = rng.uniform(-3.0, 3.0, (n_q, 2))
            draws.append(qs)
            # direct activity-route evaluation at two points for n <= 6,
            # each point as the array expression below makes it
            routed = []
            if n <= 6:
                for a, b in qs[:2].tolist():
                    qi = complex(a, b)
                    if abs(qi) < 0.2:
                        qi += 0.5
                    routed.append(polymer_partition(tutte_polymer_weights(g, qi, table=table)))
            graphs.append((n, pairs, routed))

    q = np.array(draws).reshape(len(graphs), n_q, 2)
    q = q[..., 0] + 1j * q[..., 1]
    q = np.where(np.abs(q) < 0.2, q + 0.5, q)
    ns = np.array([n for n, _, _ in graphs])
    qn = np.empty_like(q)
    for n in set(ns.tolist()):
        # a Python int exponent, as per graph: an array of exponents
        # moves q**n in the last bits
        rows = ns == n
        qn[rows] = q[rows] ** n
    zc = _padded(zcs)
    prof = _padded(profs)
    # Horner in 1/q for the gas side, in q for the polynomial
    xi = _polyval(prof, 1.0 / q)
    lhs = xi * qn
    rhs = _polyval(zc, q)
    scale = _polyval(np.abs(zc), np.abs(q))
    off = np.abs(lhs - rhs) > 1e-10 * np.maximum(scale, 1e-300)
    for (n, pairs, routed), q_k, off_k, xi_k in zip(
        graphs, q.tolist(), off.tolist(), xi[:, :2].tolist()
    ):
        checked += n_q
        failures += [f"identity off at n={n}, edges={pairs}, q={qi}"
                     for qi, o in zip(q_k, off_k) if o]
        for qi, xi_q, xi_a in zip(q_k, xi_k, routed):
            checked += 1
            if abs(xi_a - xi_q) > 1e-10 * max(1.0, abs(xi_q)):
                failures.append(f"activity route differs at n={n}, q={qi}")
    return _finish("polymer_identity", not failures, checked, failures, t0, seed=seed)


def verify_gkfp_pair() -> dict:
    """Single-edge specialization: optimum, boundary, and the two margins."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for w, q in (
        (complex(1.3, -0.4), complex(0.3, 2.1)),
        (complex(-0.2, 0.9), complex(-1.0, 0.75)),
        (complex(5.0, 0.0), complex(0.0, -7.0)),
    ):
        g = families.path_graph(2, w)
        pw = tutte_polymer_weights(g, q)
        a_star, margin = gkfp_optimal(pw)
        checked += 3
        if abs(a_star - math.log(2.0)) > 1e-9:
            failures.append(f"optimal alpha {a_star!r} off log 2 at w={w}, q={q}")
        want = 4.0 * abs(w) / abs(q)
        if abs(margin - want) > 1e-9 * max(1.0, want):
            failures.append(f"margin {margin!r} off 4|w|/|q| at w={w}, q={q}")
        # the margin crosses one exactly at |q| = 4|w|
        boundary = abs(q) * margin
        if abs(boundary - 4.0 * abs(w)) > 1e-9 * max(1.0, 4.0 * abs(w)):
            failures.append(f"boundary modulus {boundary!r} off 4|w| at w={w}")
        # the alpha-denominator variant at its own best point
        kp = kp_margin(pw, 0.5)
        checked += 1
        want_kp = 2.0 * math.e * abs(w) / abs(q)
        if abs(kp - want_kp) > 1e-9 * max(1.0, want_kp):
            failures.append(f"alpha-variant margin {kp!r} off 2e|w|/|q|")
    return _finish("gkfp_pair", not failures, checked, failures, t0)


# ---------------------------------------------------------------------------
# counting bounds

def verify_counting(max_vertices: int = 6, m_max: int = 8, seed: int = 0) -> dict:
    """Ordering of the subgraph counts under both ceilings, plus identities."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    checked = 0
    for n, pairs in families.connected_simple_structures(max_vertices):
        drawn = families.sample_weights(len(pairs), "mixed", rng)
        for ws in ([1.0] * len(pairs), drawn):
            g = families.weighted((n, pairs), ws)
            deg = degree_quantities(g)
            for x in range(n):
                values = counting.c_m_table(g, x, m_max)
                d = deg.strengths[x]
                if n >= 2:
                    rest = induced_subgraph(g, [v for v in range(n) if v != x])
                    big_d = degree_quantities(rest).delta
                else:
                    big_d = 0.0
                for m in range(m_max + 1):
                    rooted = counting.counting_bound_rooted(d, big_d, m)
                    blanket = counting.counting_bound_sokal(deg.delta, m)
                    checked += 1
                    if values[m] > rooted * (1 + 1e-9) + 1e-300:
                        failures.append(f"c_m above rooted bound: n={n}, x={x}, m={m}")
                    if rooted > blanket * (1 + 1e-9) + 1e-300:
                        failures.append(f"rooted above blanket bound: n={n}, x={x}, m={m}")
    # convolution identity for integer kappa
    for k in range(1, 5):
        for m in range(9):
            total = 0.0
            for comp in counting._compositions(m, k):
                p = 1.0
                for mi in comp:
                    p *= counting.cmk(mi, 1.0)
                total += p
            want = counting.cmk(m, float(k))
            checked += 1
            if abs(total - want) > 1e-9 * max(1.0, want):
                failures.append(f"convolution identity off at k={k}, m={m}")
    # shift identity on sampled real parameters
    for _ in range(40):
        kappa = rng.uniform(0.2, 5.0)
        z = rng.uniform(-1.5, kappa)
        m = int(rng.integers(0, 11))
        total = 0.0
        for f in range(m + 1):
            total += z ** f / math.factorial(f) * counting.cmk(m - f, kappa - z + f)
        want = counting.cmk(m, kappa)
        checked += 1
        if abs(total - want) > 1e-9 * max(1.0, abs(want)):
            failures.append(f"shift identity off at kappa={kappa}, z={z}, m={m}")
    # subset weight ceiling
    for _ in range(40):
        k = int(rng.integers(1, 9))
        ws = list(rng.uniform(0.0, 2.0, k))
        f = int(rng.integers(0, k + 1))
        lhs = counting.subset_weight_sum(ws, f)
        rhs = sum(ws) ** f / math.factorial(f)
        checked += 1
        if lhs > rhs * (1 + 1e-12) + 1e-300:
            failures.append(f"subset weight ceiling off at k={k}, f={f}")
    # removal recursion dominates on small graphs
    for n, pairs in families.connected_simple_structures(4):
        ws = families.sample_weights(len(pairs), "mixed", rng)
        g = families.weighted((n, pairs), ws)
        for x in range(n):
            table = counting.c_m_table(g, x, 5)
            for m in range(1, 6):
                lhs = table[m]
                rhs = counting.counting_recursion_rhs(g, x, m)
                checked += 1
                if lhs > rhs * (1 + 1e-9) + 1e-300:
                    failures.append(f"recursion fails: n={n}, x={x}, m={m}")
    return _finish("counting", not failures, checked, failures, t0, seed=seed)


# ---------------------------------------------------------------------------
# zero-free sweeps

def verify_zero_free(
    max_vertices: int = 5, draws: int = 50, seed: int = 0, max_multi: int = 0
) -> dict:
    """Every nonzero root sits inside every applicable disc.

    With max_multi, multigraphs up to that many vertices follow the simple
    corpus; only the general disc applies to them.  The draws of one
    structure are solved together: one engine pass gives the Z of all of
    them, and one root solve, with one eigvals call per core degree,
    gives every draw's roots, which analyze then places against the
    draw's disc radii.  Every report is the one analyze(g) gives alone.
    """
    if draws < 0:
        raise OutOfDomain(f"draws must be >= 0, got {draws}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    checked = 0
    multi_checked = 0
    corpora = [families.connected_simple_structures(max_vertices)]
    if max_multi:
        corpora.append(families.connected_multigraph_structures(max_multi))
    for corpus in corpora:
        for regime in families.WEIGHT_REGIMES:
            for n, pairs in corpus:
                # every draw's weights from one call, the values that one
                # call per draw would give; the Z of all draws in one engine
                # pass, and their roots from one solve
                m = len(pairs)
                ws = families.sample_weights(m * draws, regime, rng)
                gs = [families.weighted((n, pairs), ws[i * m:(i + 1) * m])
                      for i in range(draws)]
                solved = _q_roots_rows(gs, _z_polynomials(gs))
                for i, (g, roots) in enumerate(zip(gs, solved)):
                    rep = analyze(g, roots)
                    checked += 1
                    multi_checked += not rep.simple
                    if not rep.general_disc_verified:
                        failures.append(
                            f"general disc misses a root: {regime}, n={n}, draw={i}")
                    if rep.simple_disc_verified is False:
                        failures.append(
                            f"simple disc misses a root: {regime}, n={n}, draw={i}")
                    if i % 10 == 0 and rep.bounds.radius_interpolated is not None:
                        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                            checked += 1
                            if rep.q_max >= rep.bounds.radius_interpolated(a):
                                failures.append(
                                    f"interpolated disc misses at a={a}: {regime}, n={n}"
                                )
    return _finish(
        "zero_free", not failures, checked, failures, t0,
        seed=seed, multigraph_checked=multi_checked,
    )


# ---------------------------------------------------------------------------
# worked examples

def examples_check(seed: int = 0) -> dict:
    """Headline ratios of the example suite against their limits.

    The single-edge general-disc margin at weight 1000 sits 2.4 percent
    above 4 (the gap closes like 3 psi^{-1/2}, which crosses 2 percent
    only past weight 1408); it is reported as its own sub-check.
    """
    t0 = time.perf_counter()
    failures = []
    suite = example_suite(seed)
    by_name = {r["name"]: r for r in suite}

    sub = {}
    c = by_name["single_edge"]["commentary"]
    sub["single_edge_general"] = abs(c["margin_general"] / 4.0 - 1.0) <= 0.02
    sub["single_edge_simple"] = abs(c["margin_simple"] / KSTAR0_REFERENCE - 1.0) <= 0.02
    c = by_name["cycle_one_heavy"]["commentary"]
    sub["heavy_cycle_ratio"] = abs(c["radius_ratio"] / c["radius_ratio_limit"] - 1.0) <= 0.02
    c = by_name["parallel_pair"]["commentary"]
    sub["parallel_quotient"] = abs(c["margin_quotient"] / c["margin_quotient_limit"] - 1.0) <= 0.05
    c = by_name["uniform_cycle"]["commentary"]
    sub["cycle_trend"] = (
        abs(c["qmax_over_w_power_at_100"] - 1.0) < abs(c["qmax_over_w_power_at_10"] - 1.0)
    )

    g_argmin, g_min = _golden_min(g_ratio, 2.0, 6.0, 1e-10)
    sub["g_minimum"] = (
        abs(g_min - G_MIN_REFERENCE) <= 1e-4 and abs(g_argmin - G_ARGMIN_REFERENCE) <= 1e-3
    )

    for name, ok in sub.items():
        if not ok:
            failures.append(f"example check failed: {name}")
    return _finish(
        "examples", not failures, len(sub), failures, t0,
        seed=seed, sub_checks=sub, g_minimum=g_min, g_argmin=g_argmin,
        known_structural_gap="single_edge_general",
    )
