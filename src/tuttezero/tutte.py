"""Multivariate partition polynomials of small weighted graphs.

For a weighted graph G the central object is

    Z_G(q) = sum over A subset of E of q^{k(A)} * prod_{e in A} w_e,

where k(A) counts connected components of (V, A), isolated vertices
included.  Z_G is a monic polynomial of degree |V| in q.  The companion
quantities are the connected generating value C_G(w) (the coefficient of
q^1) and the spanning-tree generating value T_G(w).

Z_G is computed by enumerating the edge subsets, in blocks of masks that
the vectorized engine in _kernels handles a whole block at a time;
exactness at desk scale is the point, so inputs are capped at 24 edges.
C_G is read off as its q^1 coefficient (at unit weights it counts the
connected spanning edge sets).  T_G walks the spanning trees.  The
connected values of all induced subgraphs at once (connected_by_support)
come instead from a recursion over vertex subsets, guarded against
cancellation by a rounding bound and an exact rational fallback; it stays
independent of Z_G, so the polymer identity checks one route against the
other.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import _kernels
from .errors import TooLarge
from .graph import WeightedGraph

MAX_ENUM_EDGES = 24
# connected_by_support takes O(3^n) time whatever the edge count
MAX_SUPPORT_VERTICES = 12


@dataclass(frozen=True)
class QPolynomial:
    """Polynomial in q with complex coefficients, ascending by power."""

    coeffs: tuple[complex, ...]


def _check_size(g: WeightedGraph) -> None:
    if g.m > MAX_ENUM_EDGES:
        raise TooLarge(f"{g.m} edges exceeds the enumeration cap of {MAX_ENUM_EDGES}")


def z_polynomial(g: WeightedGraph) -> QPolynomial:
    """The full polynomial Z_G(q), exact up to floating-point rounding.

    The leading coefficient (power |V|) is exactly 1 from the empty edge
    subset, and coefficients below the component count of the nonzero-
    weight edge set are exact zeros.  Weights whose products overflow
    raise OutOfDomain.
    """
    _check_size(g)
    coeffs = _kernels.z_coefficients(g.n, g.edges)
    return QPolynomial(tuple(complex(c) for c in coeffs))


def connected_gen_poly(g: WeightedGraph) -> complex:
    """C_G(w): sum of prod w_e over edge subsets connecting all of V.

    Equals the q^1 coefficient of Z_G; a single-vertex graph gives 1 and
    a disconnected graph gives 0.
    """
    _check_size(g)
    if g.n == 0:
        return 1 + 0j
    coeffs = _kernels.z_coefficients(g.n, g.edges)
    return complex(coeffs[1])


def connected_by_support(g: WeightedGraph) -> dict[int, complex]:
    """C values of all induced sub-systems in one sweep.

    Returns {vertex_bitmask: C} where C sums prod w_e over edge subsets
    with endpoint support exactly that bitmask, connected on it.  Masks
    with no connecting subset are absent.  Singletons are absent too; the
    convention C = 1 for a single vertex is the caller's concern.

    The table comes from the set-partition recursion over vertex subsets
    in _kernels.connected_by_support, in O(3^n) time, so n is capped at
    MAX_SUPPORT_VERTICES as well as m at MAX_ENUM_EDGES.  Each entry
    carries a rounding bound; when any bound exceeds 1e-12 of its entry
    (heavy and light weights mixed), the whole table is recomputed in
    exact Gaussian rationals, exact for the float weights as given.  Masks
    whose induced subgraph is disconnected get an exact zero, which is
    what drops them here.  A value that overflows floating point raises
    OutOfDomain.
    """
    _check_size(g)
    if g.n > MAX_SUPPORT_VERTICES:
        raise TooLarge(
            f"{g.n} vertices exceeds the vertex-subset cap of {MAX_SUPPORT_VERTICES}")
    table = _kernels.connected_by_support(g.n, g.edges)
    return {int(s): complex(c) for s, c in enumerate(table) if c != 0}


@functools.lru_cache(maxsize=4096)
def _spanning_tree_masks_cached(n: int, edge_pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    m = len(edge_pairs)
    if n <= 1:
        return (0,)
    out = []
    for combo in itertools.combinations(range(m), n - 1):
        parent = list(range(n))
        ok = True
        for e in combo:
            u, v = edge_pairs[e]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                ok = False
                break
            parent[u] = v
        if ok:
            mask = 0
            for e in combo:
                mask |= 1 << e
            out.append(mask)
    return tuple(out)


def spanning_tree_masks(n: int, edge_pairs) -> list[int]:
    """Bitmasks of all spanning trees (edge-index sets of size n-1).

    Enumerates size-(n-1) edge combinations and keeps the acyclic
    connected ones.  For n <= 1 the empty set is the single tree.
    Results are memoized on the structure, which the sweep harnesses
    revisit once per weight draw.
    """
    return list(_spanning_tree_masks_cached(n, tuple(tuple(p) for p in edge_pairs)))


def spanning_tree_gen_poly(g: WeightedGraph) -> complex:
    """T_G(w): sum of prod w_e over spanning trees of G (0 if disconnected)."""
    _check_size(g)
    pairs = [(u, v) for u, v, _ in g.edges]
    w = g.weights()
    total = 0j
    for mask in spanning_tree_masks(g.n, pairs):
        pr = 1 + 0j
        mm = mask
        e = 0
        while mm:
            if mm & 1:
                pr *= w[e]
            mm >>= 1
            e += 1
        total += pr
    return total


def component_count(n: int, edge_pairs: list[tuple[int, int]], mask: int) -> int:
    """k(A) for the edge subset given as a bitmask over edge_pairs."""
    parent = list(range(n))
    k = n
    e = 0
    mm = mask
    while mm:
        if mm & 1:
            u, v = edge_pairs[e]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u != v:
                parent[u] = v
                k -= 1
        mm >>= 1
        e += 1
    return k


def nonzero_component_count(g: WeightedGraph) -> int:
    """k(E+): components of (V, edges with nonzero weight).

    Z_G is divisible by q to exactly this combinatorial power, so it is
    the multiplicity of the root q = 0 used when stripping zero roots.
    """
    pairs = [(u, v) for u, v, w in g.edges if w != 0]
    mask = (1 << len(pairs)) - 1
    return component_count(g.n, pairs, mask)
