"""Roots of the partition function in q, and disc-containment reports.

The polynomial is monic of degree |V| with a zero of known multiplicity
at q = 0 (one per component left by the nonzero-weight edges); that
factor, and any further zero root left by exact cancellation of weights,
is stripped exactly before handing the rest to a simultaneous
Aberth iteration.  The iteration starts from the Newton polygon of the
coefficient moduli, one circle of points per edge of the upper convex
hull of (k, log|c_k|) (Bini, Numer. Algorithms 13, 1996), so the start
radii follow the root moduli even when they span many decades.  Roots
that fail a scaled residual check are recomputed as companion-matrix
eigenvalues.  An analysis report places every nonzero root against the
disc radii of graph_bounds, and the example suite reproduces the named
small-graph phenomena end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundSet, f_closed, graph_bounds
from .errors import NoConvergence
from .graph import WeightedGraph, parallel_reduce
from .tutte import nonzero_component_count, z_polynomial
from . import families


_EPS = float(np.finfo(np.float64).eps)
# Aberth steps before giving up, and the residual a root must meet
# relative to sum |c_k| |z|^k
_ABERTH_MAX_ITER = 500
_RESIDUAL_TOL = 1e-8


def _poly_eval_many(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    p = np.full_like(z, c[-1])
    for k in range(len(c) - 2, -1, -1):
        p = p * z + c[k]
    return p


def _residual_ok(c: np.ndarray, roots: np.ndarray) -> bool:
    if len(roots) == 0:
        return True
    scale = _poly_eval_many(np.abs(c), np.abs(roots))
    resid = np.abs(_poly_eval_many(c, roots))
    # an infinite scale bounds nothing, so it fails like a non-finite residual
    return bool(np.all(np.isfinite(scale)) and np.all(np.isfinite(resid))
                and np.all(resid <= _RESIDUAL_TOL * scale))


def _newton(c: np.ndarray, z: np.ndarray, steps: int) -> np.ndarray:
    """steps Newton steps on every point; a point with p' = 0 stays put."""
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1)
    for _ in range(steps):
        p = _poly_eval_many(c, z)
        dp = _poly_eval_many(dc, z) if d > 1 else np.full_like(z, c[1])
        step = np.where(np.abs(dp) > 1e-300, p / dp, 0.0)
        z = z - step
    return z


def _start(c: np.ndarray) -> np.ndarray:
    """Aberth start points from the Newton polygon of the coefficients.

    Each edge (a, b) of the upper convex hull of the points (k, log|c_k|)
    puts b - a points on the circle of radius (|c_a|/|c_b|)^{1/(b-a)}, a
    good guess at the moduli of that many roots (Bini 1996).  Zero
    coefficients are skipped; c_0 and c_d are nonzero.
    """
    d = len(c) - 1
    ks = np.flatnonzero(c).tolist()
    logs = np.log(np.abs(c[ks])).tolist()
    hull: list[tuple[int, float]] = []
    for k, y in zip(ks, logs):
        # drop the last vertex while it lies on or below the chord to (k, y)
        while len(hull) >= 2 and (
                (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                <= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((k, y))
    log_r: list[float] = []
    turns: list[float] = []
    for (a, ya), (b, yb) in zip(hull, hull[1:]):
        log_r += [(ya - yb) / (b - a)] * (b - a)
        # fixed phase offset, irrational spacing against symmetric stalls;
        # each circle is turned by a/d of a turn so the circles do not line up
        turns += [(j + 0.400137) / (b - a) + a / d for j in range(b - a)]
    return np.exp(np.array(log_r)) * np.exp(2j * np.pi * np.array(turns) + 0.19j)


def _aberth(c: np.ndarray) -> np.ndarray | None:
    """Simultaneous iteration on a monic coefficient array, or None.

    The points start on the Newton-polygon circles of _start.  The
    iteration stops when the largest correction falls below 1e-14
    relative, or when it stops shrinking while every |p(z)| is within the
    rounding error of evaluating p; then three Newton steps polish the
    points.  None means no stop within _ABERTH_MAX_ITER steps, or a
    non-finite p, p' or correction (an overflowing polynomial).
    """
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1)
    z = _start(c)
    # the largest start radius scales the nudges off a vanishing denominator
    radius = float(np.max(np.abs(z)))
    abs_c = np.abs(c)
    last_step = np.inf
    for _ in range(_ABERTH_MAX_ITER):
        p = _poly_eval_many(c, z)
        dp = _poly_eval_many(dc, z) if d > 1 else np.full_like(z, c[1])
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(dp))):
            return None
        bad = np.abs(dp) < 1e-300
        if np.any(bad):
            z = z + 1e-6 * radius * (1 + 1j) * bad
            continue
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        if np.any(np.abs(denom) < 1e-300):
            z = z + 1e-6 * radius
            continue
        corr = w / denom
        step = float(np.max(np.abs(corr)))
        if not np.isfinite(step):
            return None
        # A step no smaller than the last means the iteration is still
        # searching or has reached rounding noise, as near a cluster of
        # roots whose corrections never fall below the test further down.
        # It is noise when every |p(z)| is within the rounding error of
        # evaluating p at z; later steps would only move z within it.
        at_noise = step >= last_step and bool(
            np.all(np.abs(p) <= 4 * d * _EPS * _poly_eval_many(abs_c, np.abs(z))))
        z = z - corr
        if at_noise or step <= 1e-14 * (1.0 + float(np.max(np.abs(z)))):
            break
        last_step = step
    else:
        return None
    return _newton(c, z, 3)


def q_roots(g: WeightedGraph) -> tuple[list[complex], int]:
    """Roots other than the forced zeros, and the multiplicity of those.

    The forced multiplicity at q = 0 is the component count of the
    subgraph kept by the nonzero-weight edges, an exact integer.  Weights
    can cancel further low coefficients exactly (the triangle with every
    weight -3 has Z = q^3 - 9 q^2); each such coefficient is one more
    root at 0, listed with the others, so the list always has n - mult
    entries.  The factor left for the root finder is monic with a nonzero
    constant term.
    """
    zp = z_polynomial(g)
    mult = nonzero_component_count(g)
    c = np.asarray(zp.coeffs, dtype=np.complex128)[mult:]
    extra = int(np.flatnonzero(c)[0])
    c = c[extra:]
    d = len(c) - 1
    if d <= 1:
        roots = [-c[0] / c[1]] if d == 1 else []
    else:
        # overflow shows as a non-finite value, which _aberth and
        # _residual_ok catch themselves; numpy's warnings would only
        # repeat it on stderr
        with np.errstate(all="ignore"):
            roots = _aberth(c)
            if roots is None or not _residual_ok(c, roots):
                # companion-matrix eigenvalues, then a touch of Newton
                alt = _newton(c, np.roots(c[::-1]), 5)
                if not _residual_ok(c, alt):
                    raise NoConvergence("root finder failed the residual check")
                roots = alt
    found = [0j] * extra + [complex(r) for r in roots]
    return sorted(found, key=lambda r: (r.real, r.imag)), mult


def q_max(g: WeightedGraph) -> float:
    """Largest modulus of any root of the partition function in q."""
    roots, _ = q_roots(g)
    if not roots:
        return 0.0
    return max(abs(r) for r in roots)


@dataclass(frozen=True)
class ZeroFreeReport:
    """Roots of one weighted graph next to its disc radii."""

    n: int
    m: int
    simple: bool
    roots: tuple[complex, ...]
    q_zero_multiplicity: int
    q_max: float
    bounds: BoundSet
    general_disc_verified: bool
    simple_disc_verified: bool | None

    @property
    def margins(self) -> dict[str, float | None]:
        """Radius over q_max for each applicable disc; None when vacuous."""
        out: dict[str, float | None] = {"general": None, "simple": None}
        if self.q_max > 0:
            out["general"] = self.bounds.radius_general / self.q_max
            if self.bounds.radius_simple is not None:
                out["simple"] = self.bounds.radius_simple / self.q_max
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "simple": self.simple,
            "roots": [[r.real, r.imag] for r in self.roots],
            "q_zero_multiplicity": self.q_zero_multiplicity,
            "q_max": self.q_max,
            "bounds": self.bounds.to_json(),
            "general_disc_verified": self.general_disc_verified,
            "simple_disc_verified": self.simple_disc_verified,
            "margins": self.margins,
        }


def analyze(g: WeightedGraph) -> ZeroFreeReport:
    """Roots, radii, and containment flags for one weighted graph."""
    roots, mult = q_roots(g)
    b = graph_bounds(g)
    qmx = max((abs(r) for r in roots), default=0.0)
    general_ok = all(abs(r) < b.radius_general for r in roots)
    simple_ok = None
    if b.radius_simple is not None:
        simple_ok = all(abs(r) < b.radius_simple for r in roots)
    return ZeroFreeReport(
        n=g.n,
        m=g.m,
        simple=g.is_simple,
        roots=tuple(roots),
        q_zero_multiplicity=mult,
        q_max=qmx,
        bounds=b,
        general_disc_verified=general_ok,
        simple_disc_verified=simple_ok,
    )


# ---------------------------------------------------------------------------
# worked examples

def example_suite(seed: int = 0) -> list[dict]:
    """Reports and commentary for the named small families.

    Entirely deterministic; the seed is echoed into the records so CLI
    output stays byte-stable under the determinism contract.
    """
    records: list[dict] = []

    # single edge, large weight: both margins approach their constants
    w = 1000.0
    rep = analyze(families.path_graph(2, w))
    records.append({
        "name": "single_edge",
        "params": {"w": w},
        "seed": seed,
        "report": rep.to_json(),
        "commentary": {
            "margin_general": rep.margins["general"],
            "margin_general_limit": 4.0,
            "margin_simple": rep.margins["simple"],
            "margin_simple_limit": f_closed(0, 1.0),
        },
    })

    # cycle with one heavy edge: the simple-graph disc exceeds the
    # general one by a factor approaching f_closed(0,1)/4
    n, wh, wr = 4, 1000.0, 1e-3
    rep = analyze(families.cycle_one_heavy(n, wh, wr))
    ratio = rep.bounds.radius_simple / rep.bounds.radius_general
    records.append({
        "name": "cycle_one_heavy",
        "params": {"n": n, "w_heavy": wh, "w_rest": wr},
        "seed": seed,
        "report": rep.to_json(),
        "commentary": {
            "radius_ratio": ratio,
            "radius_ratio_limit": f_closed(0, 1.0) / 4.0,
        },
    })

    # parallel pair: reduction tightens the disc by about a factor k
    k, w = 3, 1000.0
    multi = families.k2_parallel(k, w)
    reduced = parallel_reduce(multi)
    rep_multi = analyze(multi)
    rep_red = analyze(reduced)
    records.append({
        "name": "parallel_pair",
        "params": {"k": k, "w": w},
        "seed": seed,
        "report": rep_red.to_json(),
        "commentary": {
            "margin_before_reduce": rep_multi.margins["general"],
            "margin_after_reduce": rep_red.margins["general"],
            "margin_quotient": rep_multi.margins["general"] / rep_red.margins["general"],
            "margin_quotient_limit": float(k),
        },
    })

    # uniform cycle: largest root grows like |w|^{n/(n-1)}
    n = 4
    trend = {}
    for w in (10.0, 100.0):
        qmx = q_max(families.cycle_graph(n, w))
        trend[w] = qmx / w ** (n / (n - 1))
    records.append({
        "name": "uniform_cycle",
        "params": {"n": n, "w_values": [10.0, 100.0]},
        "seed": seed,
        "report": analyze(families.cycle_graph(n, 100.0)).to_json(),
        "commentary": {
            "qmax_over_w_power_at_10": trend[10.0],
            "qmax_over_w_power_at_100": trend[100.0],
            "trend_note": "ratio approaches 1 as the weight grows",
        },
    })

    # complete graph at unit weight: all roots inside the simple disc
    rep = analyze(families.complete_graph(6, 1.0))
    records.append({
        "name": "complete_six",
        "params": {"n": 6, "w": 1.0},
        "seed": seed,
        "report": rep.to_json(),
        "commentary": {
            "general_disc_verified": rep.general_disc_verified,
            "simple_disc_verified": rep.simple_disc_verified,
        },
    })

    # small grids, one real and one complex weight
    for rows, cols, w in ((2, 2, 1.0), (2, 3, complex(-0.5, 0.8)), (3, 3, 0.75)):
        rep = analyze(families.grid_graph(rows, cols, w))
        records.append({
            "name": f"grid_{rows}x{cols}",
            "params": {"rows": rows, "cols": cols, "w": [complex(w).real, complex(w).imag]},
            "seed": seed,
            "report": rep.to_json(),
            "commentary": {
                "general_disc_verified": rep.general_disc_verified,
                "simple_disc_verified": rep.simple_disc_verified,
            },
        })

    return records
