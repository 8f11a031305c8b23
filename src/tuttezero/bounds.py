"""Disc constants and radii for the zero-free regions.

The partition function of a weighted graph has no zeros in q outside a
disc whose radius is a universal constant times a weighted maximum
degree.  Three families of constants appear:

* K, for graphs with every |1+w_e| <= 1, via the classical condition
  with denominator alpha,
* Kstar(psi), valid for arbitrary complex weights, scaling the damped
  degree Delta' and growing linearly in the vertex factor psi,
* Kstar_lambda, the sharper constant for simple graphs, indexed by the
  degree ratio lambda = Delta'/Delta~.

Each constant is the least L for which an inner infimum over a free
parameter alpha of a weighted exponential series drops below a target.
The series route evaluates that definition directly with a certified
geometric tail bound.  The variational route reduces the infimum to a
one-dimensional minimization in y, whose logarithm is convex in
v = log y, so Newton's method on its derivative finds the minimum with
no tolerance to tune; at lambda in {0, 1} the minimum collapses to an
expression in the real Lambert W function.  All routes agree to 1e-9
and the tests insist on it.  Brent's bounded minimizer remains for K's
objective, the series route, the polymer margin and the g_ratio
minimum, none of which is evaluated per graph.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BadLambda, NoConvergence, OutOfDomain
from .graph import WeightedGraph, degree_quantities, delta_prime_a, edge_moduli

_E = math.e
_SERIES_CAP = 5000
_NEWTON_CAP = 100


# ---------------------------------------------------------------------------
# Lambert W, principal branch on the real axis

def lambert_w(x: float) -> float:
    """Principal-branch W(x) for real x >= -1/e, by Halley iteration.

    Initial guesses: the branch-point square-root series near -1/e, the
    Maclaurin series up to x <= 1, and log x - log log x beyond.  The
    defining residual w e^w - x is driven to machine precision.
    """
    x = float(x)
    xmin = -1.0 / _E
    if x < xmin - 1e-14:
        raise OutOfDomain(f"lambert_w needs x >= -1/e, got {x}")
    if x < xmin:
        x = xmin
    s2 = 2.0 * (_E * x + 1.0)
    if s2 < 0.0:
        s2 = 0.0
    if s2 < 1e-12:
        s = math.sqrt(s2)
        return -1.0 + s - s2 / 6.0 + (11.0 / 72.0) * s * s2 / 2.0
    if x < -0.3:
        w = -1.0 + math.sqrt(s2) - s2 / 6.0
    elif x <= 1.0:
        w = x * (1.0 + x * (-1.0 + x * (1.5 - (8.0 / 3.0) * x)))
        if w <= -1.0:
            w = -0.99
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    prev = prev2 = math.nan
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denom
        prev2, prev = prev, w
        w -= step
        # the iteration can land in a one-ulp two-cycle; both states are done
        if abs(step) <= 1e-16 * (1.0 + abs(w)) or w == prev or w == prev2:
            return w
    raise NoConvergence(f"lambert_w failed to converge at x = {x}")


# ---------------------------------------------------------------------------
# bounded scalar minimization

def _minimize_bounded(func: Callable[[float], float], lo: float, hi: float,
                      xatol: float, maxiter: int) -> tuple[float, float]:
    """Brent's bounded minimizer on [lo, hi]; returns (x, func(x)).

    Golden-section steps, replaced by parabolic interpolation through the
    three best points whenever the parabola's step is acceptable (R. P.
    Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).
    Stops when the bracket around the best point x is within
    2 (sqrt(eps) |x| + xatol/3) or after maxiter evaluations.  The steps
    follow scipy's minimize_scalar(method="bounded") operation for
    operation, so both return the same x and func(x) bit for bit.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # try a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # accept the parabola's step only inside the bracket and when
            # it is less than half the step before last
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break

    return xf, fx


# ---------------------------------------------------------------------------
# series route: least L with  inf_alpha  sum / denom(alpha) <= target

@lru_cache(maxsize=4)
def _log_factorials(N: int) -> np.ndarray:
    """log (n-1)! = lgamma(n) for n = 2..N, built once per N (read-only)."""
    table = np.array([math.lgamma(n) for n in range(2, N + 1)])
    table.setflags(write=False)
    return table


def _series_partial_tail(alpha: float, L: float, lam: float, N: int):
    """Partial sum over n = 2..N of e^{alpha n} a_n / L^{n-1} with
    a_n = (1+(n-1)lam)^{n-2} / (n-1)!, plus a certified tail bound.

    log (n-1)! comes from a math.lgamma table cached per N; N only takes
    the values 300, 900, 2700 and _SERIES_CAP, so at most four are built.
    The coefficient ratio a_{n+1}/a_n never exceeds e*(lam + 1/n), so from
    N on the term ratio is at most rho = e^{alpha} * e * (lam+1/N) / L
    and the tail beyond N is at most t_N * rho / (1 - rho) when rho < 1.
    """
    n = np.arange(2.0, N + 1.0)
    logt = (
        n * alpha
        + (n - 2.0) * np.log1p((n - 1.0) * lam)
        - _log_factorials(N)
        - (n - 1.0) * math.log(L)
    )
    t = np.exp(logt)
    partial = float(np.sum(t))
    rho = math.exp(alpha) * _E * (lam + 1.0 / N) / L
    if rho < 1.0:
        tail = float(t[-1]) * rho / (1.0 - rho)
    else:
        tail = math.inf
    return partial, tail


def _series_decision(L: float, lam: float, denom_kind: str, target: float) -> str:
    """Certified three-way answer to: is inf_alpha sum/denom <= target?

    The objective is log-convex in alpha, so Brent's bounded minimizer
    (_minimize_bounded) on the truncated sum is trusted to locate the
    infimum; the tail bound then settles the comparison, or reports
    "ambiguous" when it cannot.
    """
    denom = math.expm1 if denom_kind == "expm1" else float

    N = 300
    while True:
        arg = L / (_E * (lam + 1.0 / N))
        alpha_hi = min(50.0, math.log(arg) - 1e-12) if arg > 0 else -math.inf
        if alpha_hi <= 1e-6:
            if lam > 0.0 and L <= lam * _E:
                return "no"  # divergent for every alpha
        else:
            def lower_obj(a: float) -> float:
                p, _ = _series_partial_tail(a, L, lam, N)
                return p / denom(a)

            a_star, _ = _minimize_bounded(lower_obj, 1e-6, alpha_hi, 1e-12, 300)
            p, tail = _series_partial_tail(a_star, L, lam, N)
            d = denom(a_star)
            if (p + tail) / d <= target:
                return "yes"
            if p / d > target * (1.0 + 1e-12):
                return "no"
        if N >= _SERIES_CAP:
            return "ambiguous"
        N = min(_SERIES_CAP, 3 * N)


def _series_threshold(lam: float, denom_kind: str, target: float) -> float:
    """Bisection on L down to relative width 1e-13 (at most 80 steps)."""
    lo = max(1e-9, lam * _E * (1.0 + 1e-12))
    hi = 4.0 / target + 2.0 + 2.0 * lam
    for _ in range(60):
        if _series_decision(hi, lam, denom_kind, target) == "yes":
            break
        hi *= 2.0
    else:
        raise NoConvergence("series threshold: no upper bracket found")
    if _series_decision(lo, lam, denom_kind, target) == "yes":
        raise NoConvergence("series threshold: lower bracket already satisfies")
    for _ in range(80):
        if hi - lo <= 1e-11 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        d = _series_decision(mid, lam, denom_kind, target)
        if d == "yes":
            hi = mid
        elif d == "no":
            lo = mid
        elif hi - lo <= 1e-9 * max(1.0, hi):
            break  # undecidable only inside the agreement tolerance
        else:
            # mid sits within the decision margin of the threshold; two
            # points just beside it can still bracket the threshold tightly
            below, above = mid * (1.0 - 1e-10), mid * (1.0 + 1e-10)
            if (_series_decision(below, lam, denom_kind, target) != "no"
                    or _series_decision(above, lam, denom_kind, target) != "yes"):
                raise NoConvergence(
                    f"series threshold: tail bound cannot certify at L = {mid}"
                )
            lo, hi = below, above
    return 0.5 * (lo + hi)


def f_lambda_series(lam: float, beta: float) -> float:
    """F_lambda(beta) straight from its series definition.

    Least L such that some alpha > 0 puts
    (e^alpha - 1)^{-1} sum_{n>=2} e^{alpha n} L^{-(n-1)}
    (1+(n-1)lam)^{n-2}/(n-1)!  at or below beta.
    """
    if lam < 0.0:
        raise OutOfDomain(f"lambda must be >= 0, got {lam}")
    if beta <= 0.0:
        raise OutOfDomain(f"beta must be > 0, got {beta}")
    return _series_threshold(lam, "expm1", beta)


# ---------------------------------------------------------------------------
# variational route

def f_lambda_variational(lam: float, beta: float) -> float:
    """F_lambda(beta) = min over 1 < y < 1+beta of beta y^lam / ((1+beta-y) log y).

    In v = log y on (0, log1p(beta)) the objective's logarithm is

        g(v) = lam v - log(1 - expm1(v)/beta) - log v,

    the sum of a linear term, -log of a positive concave function and
    -log v, so g is strictly convex and its minimizer is the one root of

        g'(v) = lam - 1/v + e^v / (beta - expm1(v)),

    found by Newton's method (_log_convex_argmin).  Only the minimizer is
    exponentiated: e^{lam v} / ((1 - expm1(v)/beta) v) is taken once
    there, where lam v < 1, so nothing overflows for beta from 1e-300 to
    1e300.  The minimum sits near v = beta/2 as beta -> 0 and, for
    lam > 0, near v = 1/lam as beta grows.  F_lambda(beta) = lam e
    (1 + O(1/(lam beta))) for large lam, so the value itself overflows
    past lam of about 6.6e307; that raises OutOfDomain.
    """
    if not (0.0 <= lam < math.inf):
        raise OutOfDomain(f"lambda must be finite and >= 0, got {lam}")
    if not (0.0 < beta < math.inf):
        raise OutOfDomain(f"beta must be finite and > 0, got {beta}")
    v = _log_convex_argmin(lam, beta)
    value = math.exp(lam * v) / ((1.0 - math.expm1(v) / beta) * v)
    if value == math.inf:
        raise OutOfDomain(f"F_lambda overflows at lambda = {lam}, beta = {beta}")
    return value


def _log_convex_argmin(lam: float, beta: float) -> float:
    """The root v of g'(v) in (0, log1p(beta)), for f_lambda_variational.

    Works in t = v / L in (0, 1), L = log1p(beta), on

        f(t) = t L g'(v) = lam L t - 1 + t e^v r,   r = L / (beta - expm1(v)),

    which has the same root.  e^v r = L x/(1-x) with x = e^v/(1+beta) is
    positive, increasing and convex in t, so f is increasing and convex,
    with derivative f'(t) = lam L + e^v r + t (e^v r) ((1+beta) r).  These
    factors neither overflow nor underflow from beta = 1e-300 to 1e300
    (a squared denominator would underflow near beta = 1e-200).

    The root lies left of t = 1/(lam L), which is below the normal range
    of floats once lam L passes 1/DBL_MIN (and lam L itself overflows a
    little later).  There the unit L is replaced by U = 1/lam < L: t = v/U
    has its root in (0, 1) as well, f keeps its form with U for L, and the
    start is t = 1.

    Newton's method on a convex increasing function falls monotonically
    onto the root from any start right of it, so the iteration starts
    there and never nears the pole of f at t = 1, where the steps would
    shrink with the distance to the pole rather than to the root.  The
    root of f at lam = 0 solves v + log1p(v) = L, and lam > 0 moves the
    root left of it and left of 1/lam.  Both sqrt(1+beta) - 1 and
    L - log1p(L - log1p(L)) lie right of that solution, so the start is
    the least of the three points.  The signs of f keep a bracket; a step
    that leaves it, or a point where rounding makes beta - expm1(v)
    nonpositive, falls back to bisection.  Stops once a step is below
    1e-9 t, after taking it; the convergence is quadratic there.
    """
    L = math.log1p(beta)
    lam_l = lam * L
    if lam_l * sys.float_info.min < 1.0:
        unit = L
        v0 = min(beta / (1.0 + math.sqrt(1.0 + beta)), L - math.log1p(L - math.log1p(L)))
        t = v0 / L
        if lam_l > 1.0:
            t = min(t, 1.0 / lam / L)
    else:
        unit = 1.0 / lam
        lam_l = lam * unit
        t = 1.0
    lo, hi = 0.0, 1.0
    for _ in range(_NEWTON_CAP):
        em = math.expm1(t * unit)
        den = beta - em
        if den > 0.0:
            r = unit / den
            ev_r = (em + 1.0) * r
            f = lam_l * t - 1.0 + t * ev_r
            if f < 0.0:
                lo = t
            else:
                hi = t
            step = f / (lam_l + ev_r + t * ev_r * ((1.0 + beta) * r))
            if abs(step) <= 1e-9 * t:
                return (t - step) * unit
            t -= step
            if lo < t < hi:
                continue
        else:
            hi = t
        t = 0.5 * (lo + hi)
    raise NoConvergence(f"F_lambda failed to converge at lambda = {lam}, beta = {beta}")


def f_closed(lam: float, beta: float) -> float:
    """Lambert-form values F_0 and F_1; other lambda raise BadLambda.

    F_0(beta) = beta/(1+beta) * W((1+beta)e) / (W((1+beta)e) - 1)^2
    F_1(beta) = beta * W(e/(1+beta)) / (1 - W(e/(1+beta)))^2

    Both are evaluated as written, with lambert_w, so they check the
    routes independently of kstar_psi's solver.  The F_1 form loses
    accuracy to cancellation in 1 - W as beta -> 0 (F_1(beta) equals
    beta Kstar(beta^-2), which kstar_psi evaluates without it).
    """
    if beta <= 0.0:
        raise OutOfDomain(f"beta must be > 0, got {beta}")
    if lam == 0:
        w = lambert_w((1.0 + beta) * _E)
        return beta / (1.0 + beta) * w / (w - 1.0) ** 2
    if lam == 1:
        w = lambert_w(_E / (1.0 + beta))
        return beta * w / (1.0 - w) ** 2
    raise BadLambda(f"closed form exists only at lambda 0 or 1, got {lam}")


# ---------------------------------------------------------------------------
# the named constants

def _neg_log_w(b: float) -> float:
    """s = -log W(e/(1+b)) for b > 0, the root in (0, inf) of
    h(s) = s - expm1(-s) - log1p(b).

    Both W = e^{-s} and 1 - W = -expm1(-s) follow from s without
    cancellation, whether W is near 1 (large psi) or near 0 (small psi).
    h is increasing and concave, so Newton steps from a start left of the
    root rise monotonically onto it; with lb = log1p(b), the start
    max(lb/2, lb-1) has h <= 0 since 1 - e^{-s} <= min(s, 1).  The
    iteration stops at a nonnegative residual or at the first step that
    no longer moves s up (rounding noise).
    """
    lb = math.log1p(b)
    s = max(0.5 * lb, lb - 1.0)
    for _ in range(100):
        r = lb - (s - math.expm1(-s))
        if r <= 0.0:
            return s
        nxt = s + r / (1.0 + math.exp(-s))
        if not nxt > s:
            return s
        s = nxt
    raise NoConvergence(f"kstar_psi failed to converge at b = {b}")


def kstar_psi(psi: float) -> float:
    """Kstar(psi), the disc constant multiplying Delta' for vertex factor psi.

    Kstar(psi) = sqrt(psi) F_1(psi^{-1/2}) = W / (1-W)^2 at
    W = W(e/(1+psi^{-1/2})), evaluated by solving for s = -log W
    (_neg_log_w) so that neither cancellation in 1 - W at large psi nor
    rounding of W at small psi limits it.  The variational and series
    routes for F_1 agree with it to 1e-9, and
    Kstar(psi) <= 4 psi + 3 sqrt(psi).
    """
    if not (0.0 < psi < math.inf):
        raise OutOfDomain(f"psi must be finite and > 0, got {psi}")
    s = _neg_log_w(psi ** -0.5)
    m = -math.expm1(-s)
    return math.exp(-s) / m / m


def kstar_lambda(lam: float) -> float:
    """Kstar_lambda = F_lambda(1), the simple-graph constant; 0 <= lambda <= 1.

    Satisfies Kstar_lambda <= 5 + 2 lambda, with Kstar_0 about 4.892888
    and Kstar_1 = Kstar(1) about 6.907652.
    """
    if not (0.0 <= lam <= 1.0):
        raise OutOfDomain(f"lambda must lie in [0, 1], got {lam}")
    return f_lambda_variational(lam, 1.0)


@lru_cache(maxsize=8)
def sokal_K(route: str = "variational") -> float:
    """The classical constant K for the regime with every |1+w_e| <= 1.

    "variational": min over a > 0 of (a + e^a) / log(1 + a e^{-a}).
    "series": least L with inf_alpha alpha^{-1} sum_{n>=2} e^{alpha n}
    L^{-(n-1)} n^{n-1}/n! <= 1.  Both give 7.963906075890... and the
    value is below the rigorous ceiling 7.963907.
    """
    if route == "variational":
        def obj(a: float) -> float:
            return (a + math.exp(a)) / math.log1p(a * math.exp(-a))

        _, fmin = _minimize_bounded(obj, 1e-8, 10.0, 1e-12, 500)
        return fmin
    if route == "series":
        return _series_threshold(1.0, "alpha", 1.0)
    raise OutOfDomain(f"unknown route {route!r}")


def g_ratio(lam: float) -> float:
    """g(lambda) = F_lambda(1) / (lambda F_1(lambda)), for lambda > 0.

    Compares the simple-graph disc against the general disc when the
    degree ratio equals lambda.  Tends to Kstar_0/4 as lambda -> 0+, dips
    below 1 near lambda 3.7, and returns to 1 from below as lambda grows.
    """
    if lam <= 0.0:
        raise OutOfDomain(f"g_ratio needs lambda > 0, got {lam}")
    return f_lambda_variational(lam, 1.0) / (lam * f_closed(1, lam))


# ---------------------------------------------------------------------------
# per-graph radii

@dataclass(frozen=True)
class BoundSet:
    """Zero-free disc data for one weighted graph.

    radius_general = Kstar(psi) * Delta' always holds; radius_simple =
    Kstar_lambda * sqrt(psi) * Delta~ needs a simple graph and is None
    otherwise (also when Delta~ = 0, where no nonzero roots exist).
    radius_interpolated(a) sweeps a one-parameter family between the two;
    it is None unless the graph is simple with some nonzero weight.
    """

    K: float
    kstar_psi: float
    kstar_lambda: float | None
    psi: float
    delta: float
    delta_prime: float
    delta_tilde: float
    lam: float | None
    radius_general: float
    radius_simple: float | None
    radius_interpolated: Callable[[float], float] | None
    all_subcritical: bool
    radius_subcritical: float | None

    def to_json(self) -> dict:
        interp = None
        if self.radius_interpolated is not None:
            interp = {str(a): self.radius_interpolated(a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)}
        return {
            "K": self.K,
            "kstar_psi": self.kstar_psi,
            "kstar_lambda": self.kstar_lambda,
            "psi": self.psi,
            "delta": self.delta,
            "delta_prime": self.delta_prime,
            "delta_tilde": self.delta_tilde,
            "lambda": self.lam,
            "radius_general": self.radius_general,
            "radius_simple": self.radius_simple,
            "radius_interpolated": interp,
            "all_subcritical": self.all_subcritical,
            "radius_subcritical": self.radius_subcritical,
        }


def graph_bounds(g: WeightedGraph) -> BoundSet:
    """Evaluate every applicable zero-free disc radius for g.

    The edge moduli |w| and |1+w| are taken once and shared by the degree
    quantities, the subcritical test and the interpolated radii.  Raises
    OutOfDomain when Kstar(psi) or a radius is not finite, where a disc
    check would hold vacuously.
    """
    mods = edge_moduli(g)
    deg = degree_quantities(g, mods)
    K = sokal_K()
    kpsi = kstar_psi(deg.psi)
    r_general = kpsi * deg.delta_prime

    lam = deg._lam
    klam = None
    r_simple = None
    if g.is_simple and lam is not None:
        klam = kstar_lambda(lam)
        r_simple = klam * math.sqrt(deg.psi) * deg.delta_tilde

    interp = None
    if g.is_simple and deg.delta_prime > 0.0:
        psi = deg.psi
        dprime = deg.delta_prime

        def radius_interpolated(a: float) -> float:
            da = delta_prime_a(g, a, mods)
            if da <= 0.0:
                return 0.0
            lam_a = dprime / da
            beta_a = psi ** (-(1.0 - a) / 2.0)
            return _finite(f"radius_interpolated({a})",
                           da * math.sqrt(psi) * f_lambda_variational(lam_a, beta_a))

        interp = radius_interpolated

    subcrit = all(a1 <= 1.0 + 1e-12 for _, _, _, a1 in mods)
    r_subcritical = K * deg.delta if subcrit else None
    for name, x in (("kstar_psi", kpsi), ("radius_general", r_general),
                    ("radius_simple", r_simple), ("radius_subcritical", r_subcritical)):
        if x is not None:
            _finite(name, x)

    return BoundSet(
        K=K,
        kstar_psi=kpsi,
        kstar_lambda=klam,
        psi=deg.psi,
        delta=deg.delta,
        delta_prime=deg.delta_prime,
        delta_tilde=deg.delta_tilde,
        lam=lam,
        radius_general=r_general,
        radius_simple=r_simple,
        radius_interpolated=interp,
        all_subcritical=subcrit,
        radius_subcritical=r_subcritical,
    )


def _finite(name: str, x: float) -> float:
    """x itself, or OutOfDomain when it is not finite."""
    if not math.isfinite(x):
        raise OutOfDomain(f"{name} = {x} does not fit in floating point")
    return x
