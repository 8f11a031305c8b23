"""Weighted counts of connected subgraphs through a fixed vertex.

c_m(x) adds up prod |w_e| over connected subgraphs with exactly m edges
containing x (vertex set = edge endpoints plus x, so c_0 = 1).  Two
closed-form ceilings cap it: the degree-only bound (m+1)^{m-1}/m! * Delta^m
and a sharper rooted bound d(d+mD)^{m-1}/m! that separates the root's own
weighted degree d from the maximum D elsewhere.  The combinatorial glue
is the family C(m, kappa) = kappa (m+kappa)^{m-1}/m!, a rescaled slice of
the tree function T(x) = sum n^{n-1}/n! x^n.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import BadIndex, OutOfDomain, TooLarge
from .graph import WeightedGraph, induced_subgraph
from .tutte import MAX_ENUM_EDGES

_E = math.e


def _connected_mask_levels(g: WeightedGraph, x: int, m_max: int) -> list[set[int]]:
    """Edge masks of connected subgraphs through x, grouped by edge count.

    Frontier expansion: a subgraph at level i+1 is a level-i subgraph
    plus one new edge incident to its vertex set.  Every connected
    subgraph through x arises this way, since removing a non-bridge or a
    leaf edge away from x keeps it connected and through x.
    """
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v, _) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    levels: list[set[int]] = [{0}]
    support = {0: 1 << x}
    for _ in range(m_max):
        nxt: set[int] = set()
        for mask in levels[-1]:
            sup = support[mask]
            for y in range(g.n):
                if sup >> y & 1:
                    for i in incident[y]:
                        if mask >> i & 1:
                            continue
                        new = mask | 1 << i
                        if new not in nxt:
                            nxt.add(new)
                            u, v, _ = g.edges[i]
                            support[new] = sup | 1 << u | 1 << v
        levels.append(nxt)
        if not nxt:
            break
    while len(levels) < m_max + 1:
        levels.append(set())
    return levels


def c_m(g: WeightedGraph, x: int, m: int) -> float:
    """Weighted count of m-edge connected subgraphs containing x."""
    if m < 0:
        raise OutOfDomain(f"m must be >= 0, got {m}")
    return c_m_table(g, x, m)[m]


def c_m_table(g: WeightedGraph, x: int, m_max: int) -> list[float]:
    """c_m(g, x, m) for every m = 0..m_max in one frontier sweep."""
    if not (0 <= x < g.n):
        raise BadIndex(f"vertex {x} outside 0..{g.n - 1}")
    if g.m > MAX_ENUM_EDGES:
        raise TooLarge(f"{g.m} edges exceeds enumeration limit {MAX_ENUM_EDGES}")
    absw = [abs(w) for w in g.weights()]
    levels = _connected_mask_levels(g, x, min(m_max, g.m))
    out = []
    for m in range(m_max + 1):
        if m > g.m:
            out.append(0.0)
            continue
        total = 0.0
        for mask in sorted(levels[m]):
            p = 1.0
            for i in range(g.m):
                if mask >> i & 1:
                    p *= absw[i]
            total += p
        out.append(total)
    return out


def counting_bound_sokal(delta: float, m: int, weak: bool = False) -> float:
    """(m+1)^{m-1}/m! * delta^m, or the weaker (e*delta)^m when weak."""
    if delta < 0:
        raise OutOfDomain(f"delta must be >= 0, got {delta}")
    if m < 0:
        raise OutOfDomain(f"m must be >= 0, got {m}")
    if weak:
        return (_E * delta) ** m
    return cmk(m, 1.0) * delta ** m


def counting_bound_rooted(d: float, big_d: float, m: int) -> float:
    """d(d + m D)^{m-1}/m! with D the largest weighted degree off the root."""
    if d < 0 or big_d < 0:
        raise OutOfDomain("degrees must be >= 0")
    if m < 0:
        raise OutOfDomain(f"m must be >= 0, got {m}")
    if m == 0:
        return 1.0
    if m <= 20:
        return d * (d + m * big_d) ** (m - 1) / math.factorial(m)
    if d == 0.0:
        return 0.0
    return math.exp(
        math.log(d) + (m - 1) * math.log(d + m * big_d) - math.lgamma(m + 1)
    )


def cmk(m: int, kappa: float) -> float:
    """C(m, kappa) = kappa (m + kappa)^{m-1} / m!, with C(0, kappa) = 1."""
    if m < 0:
        raise OutOfDomain(f"m must be >= 0, got {m}")
    if m == 0:
        return 1.0
    if m <= 20:
        return kappa * (m + kappa) ** (m - 1) / math.factorial(m)
    if kappa > 0 and m + kappa > 0:
        return math.exp(
            math.log(kappa) + (m - 1) * math.log(m + kappa) - math.lgamma(m + 1)
        )
    return kappa * (m + kappa) ** (m - 1) / math.factorial(m)


def tree_function(x: float, n_terms: int = 200_000) -> float:
    """T(x) = sum_{n>=1} n^{n-1}/n! x^n, the inverse of c -> c e^{-c}.

    Converges on [0, 1/e]; at the endpoint the terms decay like n^{-3/2},
    so the truncation error with N terms is about 2/sqrt(2 pi N).  Terms
    are evaluated in log space and summed with numpy.
    """
    if x < 0 or x > 1.0 / _E + 1e-15:
        raise OutOfDomain(f"tree function needs 0 <= x <= 1/e, got {x}")
    if n_terms < 1:
        raise OutOfDomain(f"n_terms must be >= 1, got {n_terms}")
    if x == 0.0:
        return 0.0
    from scipy.special import gammaln

    n = np.arange(1.0, n_terms + 1.0)
    logt = (n - 1) * np.log(n) - gammaln(n + 1.0) + n * math.log(x)
    return float(np.sum(np.exp(logt)))


def tree_function_u(z: float, n_terms: int = 200_000) -> float:
    """U(z) = T(z)/z, continued by U(0) = 1."""
    if z == 0.0:
        return 1.0
    return tree_function(z, n_terms) / z


def _compositions(total: int, parts: int):
    """All tuples of nonnegative ints of given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def counting_recursion_rhs(g: WeightedGraph, x: int, m: int) -> float:
    """Right side of the root-removal recursion that dominates c_m(x).

    Sums over nonempty subsets F of the root's edges: the weight of F
    times, for each way of splitting the remaining m - |F| edges among
    the far endpoints of F, the product of their counts inside g - x.
    """
    if not (0 <= x < g.n):
        raise BadIndex(f"vertex {x} outside 0..{g.n - 1}")
    if m < 1:
        raise OutOfDomain(f"recursion needs m >= 1, got {m}")
    if g.n < 2:
        return 0.0
    keep = [v for v in range(g.n) if v != x]
    remap = {v: i for i, v in enumerate(keep)}
    rest = induced_subgraph(g, keep)
    root_edges = g.edges_at(x)
    tables: dict[int, list[float]] = {}
    total = 0.0
    for f in range(1, len(root_edges) + 1):
        for chosen in combinations(root_edges, f):
            if f > m:
                continue
            wprod = 1.0
            far = set()
            for i in chosen:
                u, v, w = g.edges[i]
                wprod *= abs(w)
                far.add(remap[v if u == x else u])
            ys = sorted(far)
            for y in ys:
                if y not in tables:
                    tables[y] = c_m_table(rest, y, m)
            inner = 0.0
            for comp in _compositions(m - f, len(ys)):
                p = 1.0
                for y, mi in zip(ys, comp):
                    p *= tables[y][mi]
                inner += p
            total += wprod * inner
    return total


def subset_weight_sum(weights: list[float], f: int) -> float:
    """Sum over f-element subsets of the product of their entries."""
    if f < 0:
        raise OutOfDomain(f"subset size must be >= 0, got {f}")
    if f > len(weights):
        return 0.0
    total = 0.0
    for chosen in combinations(weights, f):
        p = 1.0
        for w in chosen:
            p *= w
        total += p
    return total
