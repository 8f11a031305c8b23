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

Which polymers fit inside which vertex mask depends on the polymer masks
alone, not on the activities, and the sweeps meet the same mask sets
again and again: a graph's profile and its partitions share one, and so
do the multigraphs of one skeleton.  So the masks go through one plan
(_plan): each polymer's size shift |S| - 1 and, for every vertex mask,
the indices of the polymers inside it that hold its lowest vertex, in
the order the masks are given, which is ascending for every table and
every PolymerWeights.  The DPs walk that plan, in the order they
visited the polymers when they filtered them mask by mask, so every sum
keeps its bits.  A plan holds tuples of small ints only.  Plans of at
most PLAN_VERTICES = 7 vertices are cached, 64 of them at most 16 KB
each, so the cache holds at most 1 MB (measured in _cached_plan); larger
plans are built on every call.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

# Plans of hosts with at most this many vertices are cached; larger ones
# are built on every call.
PLAN_VERTICES = 7


def _mask_shifts(n: int, masks: tuple) -> tuple[int, ...]:
    """|S| - 1 for every polymer mask S, after checking that each mask is
    nonempty, inside the host's n vertices, not a singleton, and met once."""
    seen = set()
    for mask in masks:
        if mask == 0:
            raise BadIndex("polymer mask 0 is empty")
        if mask < 0 or mask >> n:
            raise BadIndex(f"polymer mask {mask} outside host range")
        if mask & (mask - 1) == 0:
            raise BadIndex(f"polymer mask {mask} is a singleton")
        if mask in seen:
            raise BadIndex(f"duplicate polymer mask {mask}")
        seen.add(mask)
    return tuple(mask.bit_count() - 1 for mask in masks)


def _build_plan(n: int, masks: tuple) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(shifts, inside) for polymer masks on n host vertices.

    shifts[i] is |S| - 1 for the mask S = masks[i]; inside[m] holds, in
    increasing i, every i whose mask lies inside the vertex mask m and
    holds its lowest vertex.  Each S is added to every m it can serve:
    S with any set of the vertices above low(S) that S leaves out, so the
    work is the size of the plan.  Raises BadIndex as _mask_shifts does.
    """
    shifts = _mask_shifts(n, masks)
    full = (1 << n) - 1
    inside: list[list[int]] = [[] for _ in range(1 << n)]
    for i, s in enumerate(masks):
        free = full & ~(s | ((s & -s) - 1))
        x = free
        while True:
            inside[s | x].append(i)
            if not x:
                break
            x = (x - 1) & free
    return shifts, tuple(map(tuple, inside))


@functools.lru_cache(maxsize=64)
def _cached_plan(n: int, masks: tuple) -> tuple:
    """_build_plan, for hosts of at most PLAN_VERTICES vertices.

    A plan holds tuples of small ints only, which CPython shares, so its
    size is that of its tuples: on 7 vertices at most 120 shifts and 128
    index tuples, with one index per pair of a vertex mask and a polymer
    that fits in it and holds its lowest vertex, 966 in all for K7.  That
    plan takes 14.7 KB, 15.8 KB with its key (CPython 3.11); K5's takes
    2.8 KB.  The cache is bounded by 64 x 16 KB = 1 MB.  The polymer
    sweep to 5 vertices with multigraphs to 4 meets 31 mask sets, so
    every plan after its first unit is a hit; the 853 structures of 7
    vertices cycle past the cache, one plan each.
    """
    return _build_plan(n, masks)


def _plan(n: int, masks: tuple) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The plan of polymer masks on n host vertices, from the cache when
    n <= PLAN_VERTICES."""
    return _cached_plan(n, masks) if n <= PLAN_VERTICES else _build_plan(n, masks)


def _shifts(n: int, masks: tuple) -> tuple[int, ...]:
    """The checked shifts of polymer masks: from the cached plan when
    n <= PLAN_VERTICES, so the checks run once per mask set, and without
    a plan past it."""
    return _cached_plan(n, masks)[0] if n <= PLAN_VERTICES else _mask_shifts(n, masks)


@dataclass(frozen=True)
class PolymerWeights:
    """Activity map for a polymer gas on host vertices 0..n-1.

    entries holds (vertex_mask, activity) pairs, sorted by mask, one per
    polymer.  A mask that is not an int, is empty or a singleton, leaves
    the host's range or comes twice raises BadIndex, and an activity that
    is not finite raises OutOfDomain; both are checked before sorting.
    """

    host_vertex_count: int
    entries: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        n = self.host_vertex_count
        if n < 0:
            raise BadIndex(f"vertex count must be >= 0, got {n}")
        if n > MAX_POLYMER_VERTICES:
            raise TooLarge(f"{n} vertices exceeds polymer limit {MAX_POLYMER_VERTICES}")
        masks = tuple([mask for mask, _ in self.entries])
        # int masks only: 3.0 would find the cached plan of 3
        if not all(map(isinstance, masks, itertools.repeat(int))):
            bad = next(m for m in masks if not isinstance(m, int))
            raise BadIndex(f"polymer mask {bad!r} is not an integer")
        if not all(map(cmath.isfinite, [rho for _, rho in self.entries])):
            mask, rho = next(e for e in self.entries if not cmath.isfinite(e[1]))
            raise OutOfDomain(f"activity {rho!r} of polymer mask {mask} is not finite")
        _shifts(n, masks)
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_sets(cls, n: int, pairs) -> "PolymerWeights":
        entries = []
        for s, rho in pairs:
            mask = 0
            for v in s:
                try:
                    v = operator.index(v)
                except TypeError:
                    raise BadIndex(f"vertex {v!r} is not an integer") from None
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
    Raises OutOfDomain when an activity does not fit in floating point.
    """
    q = complex(q)
    n = g.n
    if q == 0:
        raise ZeroQ("activities are undefined at q = 0")
    if n > MAX_POLYMER_VERTICES:
        raise TooLarge(f"{n} vertices exceeds polymer limit {MAX_POLYMER_VERTICES}")
    if table is None:
        table = connected_by_support(g)
    try:
        powers = [q ** -j for j in range(n)]
    except (ZeroDivisionError, OverflowError):
        raise OutOfDomain(f"q^-{n - 1} does not fit in floating point at q = {q}") from None
    shifts = _shifts(n, tuple(table))
    rhos = [c * powers[s] for c, s in zip(table.values(), shifts)]
    return PolymerWeights(n, tuple(zip(table, rhos)))


def polymer_partition(pw: PolymerWeights) -> complex:
    """Xi(rho): sum over collections of pairwise-disjoint polymers.

    Dynamic programming over the set of still-available vertices; the
    lowest available vertex is either left bare or covered by one of the
    polymers of the plan that fit in the set and hold it.  Raises
    OutOfDomain when Xi does not fit in floating point.
    """
    n = pw.host_vertex_count
    if n == 0:
        return 1.0 + 0j
    masks = tuple([mask for mask, _ in pw.entries])
    rhos = [rho for _, rho in pw.entries]
    _, inside = _plan(n, masks)
    f = [0j] * (1 << n)
    f[0] = 1.0 + 0j
    for mask in range(1, 1 << n):
        acc = f[mask & (mask - 1)]
        for i in inside[mask]:
            acc += rhos[i] * f[mask ^ masks[i]]
        f[mask] = acc
    xi = complex(f[-1])
    if not cmath.isfinite(xi):
        raise OutOfDomain("the gas partition function does not fit in floating point")
    return xi


def polymer_profile(
    g: WeightedGraph, table: dict[int, complex] | None = None
) -> np.ndarray:
    """Coefficients p_j with Xi(q) = sum_j p_j q^{-j}, j = 0..n-1.

    Same dynamic programming as polymer_partition, but each activity is
    carried as its connected value times a shift by |S| - 1 in j, so the
    q-dependence stays symbolic.  Multiplying by q^n aligns p_j with the
    coefficient of q^{n-j} in the partition function; the tests compare
    them coefficient by coefficient.  table is g's connected_by_support
    table, built when not given, as in tutte_polymer_weights; its masks
    are checked as PolymerWeights checks them.  Raises OutOfDomain when
    a coefficient does not fit in floating point.
    """
    n = g.n
    if n == 0:
        return np.ones(1, dtype=np.complex128)
    if n > MAX_POLYMER_VERTICES:
        raise TooLarge(f"{n} vertices exceeds polymer limit {MAX_POLYMER_VERTICES}")
    if table is None:
        table = connected_by_support(g)
    masks = tuple(table)
    cs = list(table.values())
    shifts, inside = _plan(n, masks)
    f = [[]] * (1 << n)
    f[0] = [1.0 + 0j] + [0j] * (n - 1)
    for mask in range(1, 1 << n):
        acc = f[mask & (mask - 1)][:]
        for i in inside[mask]:
            shift, c = shifts[i], cs[i]
            acc[shift:] = [a + c * x for a, x in zip(acc[shift:], f[mask ^ masks[i]])]
        f[mask] = acc
    if not all(map(cmath.isfinite, f[-1])):
        raise OutOfDomain("a gas profile coefficient does not fit in floating point")
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


def _scaled_margin(pw: PolymerWeights, alpha: float, denom: Callable[[float], float]) -> float:
    """The largest per-vertex activity mass at scale alpha, over denom(alpha)."""
    if not (0.0 < alpha < math.inf):
        raise OutOfDomain(f"alpha must be finite and > 0, got {alpha}")
    try:
        return _margin_numerators(polymer_size_profile(pw), alpha) / denom(alpha)
    except OverflowError:
        raise OutOfDomain(f"the margin overflows at alpha = {alpha}") from None


def gkfp_margin(pw: PolymerWeights, alpha: float) -> float:
    """sup_x sum_{S owning x} e^{alpha |S|} |rho(S)|, over e^alpha - 1.

    At most one certifies that the gas partition function cannot vanish.
    """
    return _scaled_margin(pw, alpha, math.expm1)


def kp_margin(pw: PolymerWeights, alpha: float) -> float:
    """Same numerator over the smaller denominator alpha."""
    return _scaled_margin(pw, alpha, float)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The sign change of f in [lo, hi], where f(lo) < 0 < f(hi), by
    bisection to a bracket of 1e-14 (52 halvings of [1e-6, 50])."""
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

    The margin is a maximum of log-convex branches, one per vertex.  A
    branch attaining it decreases left of the minimizer and increases
    right of it, so its derivative changes sign once, at the minimizer,
    even where that is a kink.  Bisection on that sign over [1e-6, 50]
    (the margin's log-slope is below -1e5 at 1e-6 and above 0.9 at 50,
    as every polymer has two or more vertices) finds it to 1e-14.
    """
    if not pw.entries:
        raise DegenerateWeights("no polymers: margin vanishes identically")
    profile = [d for d in polymer_size_profile(pw) if d]
    if not profile:
        raise EmptySet("no vertex meets any polymer")

    def maximal_branch_slope(alpha: float) -> float:
        d = max(profile, key=lambda d: sum(a * math.exp(alpha * size) for size, a in d.items()))
        ea = math.exp(alpha)
        num = sum(a * math.exp(alpha * size) for size, a in d.items())
        dnum = sum(a * size * math.exp(alpha * size) for size, a in d.items())
        return dnum * (ea - 1.0) - num * ea

    a_star = _bisect(maximal_branch_slope, 1e-6, 50.0)
    return a_star, _margin_numerators(profile, a_star) / math.expm1(a_star)
