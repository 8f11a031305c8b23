"""Roots of the partition function in q, and disc-containment reports.

The polynomial is monic of degree |V| with a zero of known multiplicity
at q = 0 (one per component left by the nonzero-weight edges); that
factor, and any further zero root left by exact cancellation of weights,
is stripped exactly.  Each bridge e of the parallel-reduced graph is a
factor q + w_e, whose root -w_e is exact, so only the polynomial of the
core, the graph with every bridge contracted, goes to the solver.  Its
roots start as the eigenvalues of its companion matrix, which are
backward stable and which LAPACK balances against badly scaled
coefficients (Edelman and Murakami, Math. Comp. 64, 1995).  The solver
takes a list of cores, every draw of a structure in the zero-free sweep
and a list of one for a single graph; the companion matrices of the
cores of one degree are built in place as one stack, with one eigvals
call per degree, which solves each matrix as it would alone.  Newton
steps in scalar complex arithmetic polish each root, since numpy's
per-call cost dominates at these degrees, and stop once |p| is within
the rounding bound of the Horner pass that computed it (Bini, Numer.
Algorithms 13, 1996), which most eigenvalues meet at once.  Two checks
per core reject a root set that still misses: a scaled residual per
root, and the product of (q - r) over all roots against the
coefficients, which catches two roots on one root of the polynomial
while another is lost.
An analysis report places every nonzero root against the disc radii of
graph_bounds, and the example suite reproduces the named small-graph
phenomena end to end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import BoundSet, f_closed, graph_bounds
from .errors import NoConvergence, OutOfDomain
from .graph import WeightedGraph, parallel_reduce
from .tutte import QPolynomial, nonzero_component_count, z_polynomial


# the most Newton steps after the eigenvalue solve, and the residual a
# root must meet relative to sum |c_k| |z|^k
_NEWTON_STEPS = 3
_RESIDUAL_TOL = 1e-8
# the rounding error of a complex Horner pass of degree d is at most
# d * _HORNER_ERR * sum |c_k| |z|^k (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 5, with complex products)
_HORNER_ERR = 4 * 2.0 ** -53


def _eigenvalues(cs: list[list[complex]]) -> list[list[complex]]:
    """Eigenvalues of the companion matrix np.roots builds for each of cs,
    polynomials of one degree d >= 2, in one eigvals call on a (k, d, d)
    stack.

    The stack is built in place: ones below each diagonal, and a first
    row of -c_k / c_d from the highest power down.  eigvals solves each
    matrix of a stack as it solves that matrix alone, so each core gets
    the bits of its own solve.
    """
    k, d = len(cs), len(cs[0]) - 1
    a = np.zeros((k, d, d), dtype=np.complex128)
    a.reshape(k, d * d)[:, d::d + 1] = 1
    a[:, 0] = [[-x / c[d] for x in c[d - 1::-1]] for c in cs]
    return np.linalg.eigvals(a).tolist()


def _polish(c: list[complex], ac: list[float], z: complex) -> tuple[complex, float] | None:
    """Newton steps from z; then z and a bound on its error, or None.

    ac holds the moduli |c_k|.  Each pass of Horner's rule gives p, p'
    and sum |c_k| |z|^k.  Once |p| is within the pass's own rounding
    bound, _HORNER_ERR d sum |c_k| |z|^k, the polish ends without a step:
    no step taken from there can be told apart from noise, so an
    eigenvalue that already meets the bound costs one pass.  A step that
    does not lower |p| is undone and ends the polish: close to a root |p|
    is rounding noise, and near a multiple root a step driven by that
    noise can throw the point far off.  A point with p' = 0 stays put.
    None means z fails the residual check: |p(z)| against
    sum |c_k| |z|^k, which cannot cancel, and which bounds nothing when
    it is infinite.

    The error bound holds for the nearest root of c: since p'/p is the
    sum of 1/(z - root), some root lies within d |p/p'|, and since c is
    monic, some root lies within |p|^(1/d).  |p| counts its rounding
    error in both.
    """
    d = len(c) - 1
    floor = _HORNER_ERR * d
    last = None
    for step in range(_NEWTON_STEPS + 1):
        r = math.hypot(z.real, z.imag)
        p, dp, scale = c[d], 0j, ac[d]
        for k in range(d - 1, -1, -1):
            dp = dp * z + p
            p = p * z + c[k]
            scale = scale * r + ac[k]
        resid = math.hypot(p.real, p.imag)
        slope = math.hypot(dp.real, dp.imag)
        if last and not resid <= last[1]:
            z, resid, scale, slope = last
            break
        if step == _NEWTON_STEPS or resid <= floor * scale or not slope > 1e-300:
            break
        last = z, resid, scale, slope
        z -= p / dp
    if not (math.isfinite(scale) and resid <= _RESIDUAL_TOL * scale):
        return None
    bound = resid + floor * scale
    return z, min(bound ** (1 / d), d * bound / slope if slope else math.inf)


def _expansion_ok(c: list[complex], polished: list[tuple[complex, float]]) -> bool:
    """Whether prod (q - r) over the roots gives back c.

    Each root can pass its own residual check while two of them sit on
    one simple root of c and another root of c has none; the product
    then misses c.  If the roots match those of c one to one, each within
    its error bound rho, coefficient k of the product moves by at most
    hi_k - lo_k, where lo and hi are the same product over -|r| and over
    -(|r| + rho), which cannot cancel.  Each coefficient must match c to
    within that plus _RESIDUAL_TOL lo_k.
    """
    d = len(polished)
    e, lo, hi = [0j] * d + [1 + 0j], [0.0] * d + [1.0], [0.0] * d + [1.0]
    # after j roots, each product's coefficients fill positions d - j to d
    for j, (r, rho) in enumerate(polished):
        a = math.hypot(r.real, r.imag)
        b = a + rho
        for k in range(d - j - 1, d):
            e[k] -= r * e[k + 1]
            lo[k] += a * lo[k + 1]
            hi[k] += b * hi[k + 1]
    return all(math.isfinite(h) and math.hypot((x - y).real, (x - y).imag) <= _RESIDUAL_TOL * l + (h - l)
               for x, y, l, h in zip(e, c, lo, hi))


def _solve(cs: list[list[complex]]) -> list[list[complex]]:
    """The roots of each monic polynomial of cs, ascending by power, whose
    constant terms are nonzero.

    Degree 1 gives -c0/c1.  From degree 2 on, the roots start as the
    eigenvalues of the companion matrices, one eigvals call for all the
    polynomials of one degree; each is polished by up to _NEWTON_STEPS
    Newton steps in scalar complex arithmetic, which stop at the rounding
    floor of Horner's rule.
    NoConvergence is raised when an eigenvalue solve fails (for the whole
    call, since one failing matrix fails its stack), when a root fails
    its residual check, or when the product of (q - r) over the roots
    misses the coefficients; the checks run in the order of cs.
    """
    by_degree: dict[int, list[int]] = {}
    for i, c in enumerate(cs):
        if len(c) > 2:
            by_degree.setdefault(len(c), []).append(i)
    starts = {}
    for rows in by_degree.values():
        # eigvals ignores overflow itself, so an overflowing solve returns
        # non-finite points, which fail the residual check; a QR iteration
        # that does not converge, or a non-finite matrix, raises
        try:
            starts.update(zip(rows, _eigenvalues([cs[i] for i in rows])))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"root finder's eigenvalue solve failed: {exc}") from exc
    out = []
    for i, c in enumerate(cs):
        if len(c) <= 2:
            out.append([-c[0] / c[1]] if len(c) == 2 else [])
            continue
        ac = [math.hypot(x.real, x.imag) for x in c]
        polished = [_polish(c, ac, z) for z in starts[i]]
        if None in polished:
            raise NoConvergence("root finder failed the residual check")
        if not _expansion_ok(c, polished):
            raise NoConvergence("root finder lost a root: the roots' product misses the coefficients")
        out.append([r for r, _ in polished])
    return out


def q_roots(g: WeightedGraph) -> tuple[list[complex], int]:
    """Roots other than the forced zeros, and the multiplicity of those.

    The forced multiplicity mult at q = 0 is nonzero_component_count(g),
    the component count of the nonzero-weight edges, an exact integer
    read off the edges.  Weights can cancel further low coefficients
    exactly (the triangle with every weight -3 has Z = q^3 - 9 q^2); each
    such coefficient is one more root at 0, read from Z_G and listed with
    the others, so the list always has n - mult entries.

    Z_G is the product of q + w_e over the bridges of the parallel-reduced
    graph and of the Z of its core, the graph with every bridge
    contracted; z_polynomial returns both factors with it.  A bridge
    with w_e != 0 gives the root -w_e; the core's coefficients, stripped
    of their zero roots, go to _solve, which raises NoConvergence on a
    root set that misses them.  The lowest nonzero coefficient of Z_G is
    the core's times the nonzero bridge weights, in edge order.  When the
    core's or a partial product falls below the normal floating-point
    range, Z_G keeps too few of its bits, or none, to match the exact
    bridge roots, and OutOfDomain is raised.
    """
    return _q_roots_rows([g], [z_polynomial(g)])[0]


def _q_roots_rows(
    gs: list[WeightedGraph], zs: list[QPolynomial]
) -> list[tuple[list[complex], int]]:
    """q_roots of each graph of gs, whose z_polynomial are zs.

    Every graph's bridge roots and stripped core go to one _solve call,
    so the cores of one degree share one eigenvalue solve: the zero-free
    sweep solves all draws of a structure at once.  Each graph gets the
    bits of its own q_roots call.  OutOfDomain is raised for the first
    graph whose bridge product underflows, before any root is solved.
    """
    polys, spans = [], []
    for g, zp in zip(gs, zs):
        core = zp.core
        mult = nonzero_component_count(g)
        extra = next(i for i, x in enumerate(zp.coeffs[mult:]) if x)
        low = next(i for i, x in enumerate(core) if x)
        chain = [core[low]]
        for w in zp.bridges:
            if w:
                chain.append(w * chain[-1])
        if len(chain) > 1 and min(math.hypot(x.real, x.imag) for x in chain) < sys.float_info.min:
            raise OutOfDomain("a partition-function coefficient underflows floating point")
        start = len(polys)
        polys += [[w, 1 + 0j] for w in zp.bridges if w]
        polys.append(core[low:])
        spans.append((start, len(polys), extra, g.n - mult, mult))
    solved = _solve(polys)
    out = []
    for start, stop, extra, count, mult in spans:
        found = [0j] * extra + [r for roots in solved[start:stop] for r in roots]
        assert len(found) == count
        out.append((sorted(found, key=lambda r: (r.real, r.imag)), mult))
    return out


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


def analyze(
    g: WeightedGraph, solved: tuple[list[complex], int] | None = None
) -> ZeroFreeReport:
    """Roots, radii, and containment flags for one weighted graph.

    solved, if given, is q_roots(g), computed already: the zero-free
    sweep solves all draws of a structure together.
    """
    roots, mult = q_roots(g) if solved is None else solved
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
    from . import families  # only the examples need it; keep it off import

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
