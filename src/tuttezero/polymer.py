"""Hard-core polymer gas built on the connected-subgraph weights.

Dividing the partition function by q^{|V|} turns it into a gas of
pairwise-disjoint vertex sets: each connected S with |S| >= 2 carries
activity rho(S) = q^{-(|S|-1)} C_{G[S]}(w), and

    Z_G(q, w) = q^{|V|} * Xi(rho)

where Xi sums the products of activities over collections of disjoint
polymers.  Xi is evaluated here exactly by dynamic programming over
vertex subsets.  The DPs run over at most 2^12 masks, so they keep their
tables in Python lists of complex, where one step costs less than the
per-element call of a numpy array.  The classical convergence
certificates bound, per vertex, the activity mass seen at scale alpha;
margin at most one guarantees Xi does not vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _minimize_bounded
from .errors import (
    BadIndex,
    DegenerateWeights,
    EmptySet,
    OutOfDomain,
    TooLarge,
    ZeroQ,
)
from .graph import WeightedGraph
from .tutte import MAX_SUPPORT_VERTICES as MAX_POLYMER_VERTICES, connected_by_support


@dataclass(frozen=True)
class PolymerWeights:
    """Activity map for a polymer gas on host vertices 0..n-1.

    entries holds (vertex_mask, activity) pairs, sorted by mask, one per
    polymer; singleton and empty masks are rejected, as is a mask that
    leaves the host's range.
    """

    host_vertex_count: int
    entries: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        n = self.host_vertex_count
        if n < 0:
            raise BadIndex(f"vertex count must be >= 0, got {n}")
        if n > MAX_POLYMER_VERTICES:
            raise TooLarge(f"{n} vertices exceeds polymer limit {MAX_POLYMER_VERTICES}")
        seen = set()
        for mask, _ in self.entries:
            if mask <= 0 or mask >> n:
                raise BadIndex(f"polymer mask {mask} outside host range")
            if mask & (mask - 1) == 0:
                raise BadIndex(f"polymer mask {mask} is a singleton")
            if mask in seen:
                raise BadIndex(f"duplicate polymer mask {mask}")
            seen.add(mask)
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_sets(cls, n: int, pairs) -> "PolymerWeights":
        entries = []
        for s, rho in pairs:
            mask = 0
            for v in s:
                if not (0 <= v < n):
                    raise BadIndex(f"vertex {v} outside 0..{n - 1}")
                mask |= 1 << v
            entries.append((mask, complex(rho)))
        return cls(n, tuple(entries))


def tutte_polymer_weights(
    g: WeightedGraph, q: complex, table: dict[int, complex] | None = None
) -> PolymerWeights:
    """Activities rho(S) = q^{-(|S|-1)} C_{G[S]}(w) for connected |S| >= 2.

    table is g's connected_by_support table; it is built when not given,
    so a caller evaluating several q on one graph can build it once.
    """
    q = complex(q)
    if q == 0:
        raise ZeroQ("activities are undefined at q = 0")
    if g.n > MAX_POLYMER_VERTICES:
        raise TooLarge(f"{g.n} vertices exceeds polymer limit {MAX_POLYMER_VERTICES}")
    if table is None:
        table = connected_by_support(g)
    powers = [q ** -j for j in range(g.n)]
    entries = tuple(
        (mask, c * powers[bin(mask).count("1") - 1]) for mask, c in table.items()
    )
    return PolymerWeights(g.n, entries)


def polymer_partition(pw: PolymerWeights) -> complex:
    """Xi(rho): sum over collections of pairwise-disjoint polymers.

    Dynamic programming over the set of still-available vertices; the
    lowest available vertex is either left bare or covered by one of the
    polymers containing it.
    """
    n = pw.host_vertex_count
    if n == 0:
        return 1.0 + 0j
    by_low: list[list[tuple[int, complex]]] = [[] for _ in range(n)]
    for mask, rho in pw.entries:
        low = (mask & -mask).bit_length() - 1
        by_low[low].append((mask, rho))
    f = [0j] * (1 << n)
    f[0] = 1.0 + 0j
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        acc = f[mask & (mask - 1)]
        for smask, rho in by_low[low]:
            if smask & mask == smask:
                acc += rho * f[mask ^ smask]
        f[mask] = acc
    return complex(f[-1])


def polymer_profile(
    g: WeightedGraph, table: dict[int, complex] | None = None
) -> np.ndarray:
    """Coefficients p_j with Xi(q) = sum_j p_j q^{-j}, j = 0..n-1.

    Same dynamic programming as polymer_partition, but each activity is
    carried as its connected value times a shift by |S| - 1 in j, so the
    q-dependence stays symbolic.  Multiplying by q^n aligns p_j with the
    coefficient of q^{n-j} in the partition function; the tests compare
    them coefficient by coefficient.  table is g's connected_by_support
    table, built when not given, as in tutte_polymer_weights.
    """
    n = g.n
    if n == 0:
        return np.ones(1, dtype=np.complex128)
    if n > MAX_POLYMER_VERTICES:
        raise TooLarge(f"{n} vertices exceeds polymer limit {MAX_POLYMER_VERTICES}")
    if table is None:
        table = connected_by_support(g)
    by_low: list[list[tuple[int, int, complex]]] = [[] for _ in range(n)]
    for mask, c in table.items():
        low = (mask & -mask).bit_length() - 1
        by_low[low].append((mask, bin(mask).count("1") - 1, c))
    f = [[0j] * n for _ in range(1 << n)]
    f[0][0] = 1.0 + 0j
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        acc = f[mask & (mask - 1)][:]
        for smask, shift, c in by_low[low]:
            if smask & mask == smask:
                acc[shift:] = [a + c * x for a, x in zip(acc[shift:], f[mask ^ smask])]
        f[mask] = acc
    return np.array(f[-1], dtype=np.complex128)


def polymer_size_profile(pw: PolymerWeights) -> list[dict]:
    """Per-vertex activity mass grouped by polymer size, for the margins."""
    n = pw.host_vertex_count
    by_vertex: list[dict[int, float]] = [dict() for _ in range(n)]
    for mask, rho in pw.entries:
        size = bin(mask).count("1")
        a = abs(rho)
        for v in range(n):
            if mask >> v & 1:
                d = by_vertex[v]
                d[size] = d.get(size, 0.0) + a
    return by_vertex


def _margin_numerators(profile: list[dict], alpha: float) -> float:
    """Largest per-vertex activity mass at scale alpha over a size profile."""
    worst = 0.0
    for d in profile:
        s = sum(a * math.exp(alpha * size) for size, a in d.items())
        worst = max(worst, s)
    return worst


def gkfp_margin(pw: PolymerWeights, alpha: float) -> float:
    """sup_x sum_{S owning x} e^{alpha |S|} |rho(S)|, over e^alpha - 1.

    At most one certifies that the gas partition function cannot vanish.
    """
    if alpha <= 0:
        raise OutOfDomain(f"alpha must be > 0, got {alpha}")
    return _margin_numerators(polymer_size_profile(pw), alpha) / math.expm1(alpha)


def kp_margin(pw: PolymerWeights, alpha: float) -> float:
    """Same numerator over the smaller denominator alpha."""
    if alpha <= 0:
        raise OutOfDomain(f"alpha must be > 0, got {alpha}")
    return _margin_numerators(polymer_size_profile(pw), alpha) / alpha


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The sign change of f in [lo, hi], where f(lo) < 0 < f(hi), by
    bisection to a bracket of 1e-14 (about 44 halvings of a 0.2 bracket)."""
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gkfp_optimal(pw: PolymerWeights) -> tuple[float, float]:
    """Minimizing alpha and minimum of the certificate margin.

    The margin is a maximum of log-convex functions of alpha, hence
    unimodal; Brent's bounded minimizer (bounds._minimize_bounded)
    brackets the optimum, and the stationary point of the branch that
    attains the maximum there is then polished by bisection on the sign
    change of its derivative, to a bracket of 1e-14.  The polished point
    is kept only when its margin is no worse.
    """
    if not pw.entries:
        raise DegenerateWeights("no polymers: margin vanishes identically")
    profile = [d for d in polymer_size_profile(pw) if d]
    if not profile:
        raise EmptySet("no vertex meets any polymer")

    def margin(alpha: float) -> float:
        return _margin_numerators(profile, alpha) / math.expm1(alpha)

    a0, _ = _minimize_bounded(margin, 1e-6, 50.0, 1e-10, 500)

    # identify the active vertex branch at the coarse optimum
    vals = []
    for d in profile:
        vals.append(sum(a * math.exp(a0 * size) for size, a in d.items()))
    top = max(vals)
    active = [d for d, v in zip(profile, vals) if v >= top * (1 - 1e-9)]
    d = active[0]

    def branch_derivative(alpha: float) -> float:
        ea = math.exp(alpha)
        num = sum(a * math.exp(alpha * size) for size, a in d.items())
        dnum = sum(a * size * math.exp(alpha * size) for size, a in d.items())
        return dnum * (ea - 1.0) - num * ea

    lo, hi = max(1e-9, a0 - 0.1), a0 + 0.1
    a_star = a0
    if branch_derivative(lo) < 0 < branch_derivative(hi):
        a_star = _bisect(branch_derivative, lo, hi)
    if margin(a_star) > margin(a0):
        a_star = a0
    return a_star, margin(a_star)
