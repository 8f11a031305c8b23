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
connected spanning edge sets).  Z_G and C_G of a multigraph come from its
parallel-reduced graph, which has the same partition function and at
most n(n-1)/2 edges; the cap still counts the input edges, and a simple
graph is its own reduction.  Each bridge e of that graph is a factor
q + w_e of Z_G, so the engine runs only on the core, the graph with every
bridge contracted, and not at all on a forest; a bridgeless graph is its
own core, so its Z_G keeps the engine's bits.  The zero-free sweep
computes the Z_G of every weight draw of one structure at once
(_z_polynomials): one bridge split, and one engine pass with a row of
core weights per draw, which gives each draw the bits of its own
z_polynomial call.  T_G, and the
Penrose tree sums built on spanning_tree_masks, walk the spanning trees
over every edge, since a tree sum is not invariant under the reduction.
The connected values of all induced subgraphs at once
(connected_by_support) come instead from a recursion over vertex
subsets, guarded against cancellation by a rounding bound and an exact
rational fallback; it keeps every edge and stays independent of Z_G, so
the polymer identity checks one route against the other.  One union-find,
_classes, answers every connectivity question here: k(A) and k(E+), the
bridges and the core's vertex classes, and which n - 1 edges form a tree.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

from . import _kernels
from .errors import OutOfDomain, TooLarge
from .graph import MAX_ENUM_EDGES, MAX_SUPPORT_VERTICES, WeightedGraph, parallel_reduce


@dataclass(frozen=True)
class QPolynomial:
    """Polynomial in q with complex coefficients, ascending by power.

    z_polynomial also fills in what Z_G is built from: bridges, the
    weights of the bridges of the parallel-reduced graph in edge order,
    and core, the coefficients of the Z of its core, the graph with every
    bridge contracted.
    """

    coeffs: tuple[complex, ...]
    bridges: tuple[complex, ...] = ()
    core: tuple[complex, ...] = ()


def _check_size(g: WeightedGraph) -> None:
    if g.m > MAX_ENUM_EDGES:
        raise TooLarge(f"{g.m} edges exceeds the enumeration cap of {MAX_ENUM_EDGES}")


def _classes(n: int, pairs) -> tuple[list[int], list[int]]:
    """Union-find over the pairs, joined in order.

    Returns the parent list and the indices of the pairs that joined two
    classes.  The lower root becomes the root of a join, so the root of
    a class is its lowest vertex and parent[x] <= x.  The joining pairs
    form a spanning forest, so there are n minus its length classes.
    """
    parent = list(range(n))
    forest = []
    for i, (u, v) in enumerate(pairs):
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u < v:
            parent[v] = u
            forest.append(i)
        elif v < u:
            parent[u] = v
            forest.append(i)
    return parent, forest


@functools.lru_cache(maxsize=4096)
def _bridge_split(n: int, pairs: tuple[tuple[int, int], ...]):
    """The bridges of a simple graph, and its core: every bridge contracted.

    Returns the bridge indices, the vertex count of the core, for each
    other edge its index and its endpoints in the core, in edge order, and
    the core's endpoint pairs as one tuple (pairs itself when there is no
    bridge), which the edge engine takes as its structure key.  An edge is
    a bridge when deleting it adds a component; only an edge of a
    spanning forest can, since any other edge closes a cycle.  Contracting
    a bridge makes no loop and, since a bridge lies on no cycle, no
    parallel edge either, so the core is simple.  Core vertices are
    numbered in the order of their lowest original vertex, which keeps a
    bridgeless graph exactly as it is.  Memoized on the structure, as the
    sweeps revisit it once per weight draw.
    """
    _, forest = _classes(n, pairs)
    bridges = tuple(i for i in forest
                    if len(_classes(n, pairs[:i] + pairs[i + 1:])[1]) < len(forest))
    parent, _ = _classes(n, [pairs[i] for i in bridges])
    # parent[x] < x off the roots, so one ascending pass labels every class
    label = [0] * n
    core_n = 0
    for x in range(n):
        if parent[x] == x:
            label[x], core_n = core_n, core_n + 1
        else:
            label[x] = label[parent[x]]
    core = tuple((i, label[u], label[v]) for i, (u, v) in enumerate(pairs) if i not in bridges)
    return bridges, core_n, core, tuple([(u, v) for _, u, v in core]) if bridges else pairs


def z_polynomial(g: WeightedGraph) -> QPolynomial:
    """The full polynomial Z_G(q), exact up to floating-point rounding,
    with the bridge weights and the core's coefficients it is built from.

    The leading coefficient (power |V|) is exactly 1 from the empty edge
    subset, and coefficients below the component count of the nonzero-
    weight edge set are exact zeros.

    Deleting a bridge e splits the graph, so Z_{G-e} = q Z_{G/e} and
    deletion-contraction gives Z_G = (q + w_e) Z_{G/e} (Sokal,
    arXiv:math/0503607).  The edge engine therefore runs on the core
    only, and not at all when the core has no edges; each bridge's factor
    is multiplied in, in edge order.  A bridgeless graph is its own core,
    and its coefficients are the engine's.  A product that overflows
    raises OutOfDomain.

    The engine gets the parallel-reduced graph (each class one edge of
    weight prod(1+w_i) - 1), which has the same Z_G, fewer terms to sum
    and so less rounding, while the 24-edge cap counts the input edges.
    A multigraph is refused with OutOfDomain when prod(1+|w_i|) over a
    parallel class overflows.  That product bounds every sub-product of
    the class, which the sum over unmerged edges overflows on, while the
    merged weight can come out finite and wrong by cancellation: the
    class -1, 1e200, 1e200 merges to 1e200 in floating point, not to -1.
    """
    reduced = _reduced(g)
    edges = reduced.edges
    bridges, core_n, core, core_pairs = _bridge_split(g.n, reduced.pairs)
    if core:
        core_edges = [(u, v, edges[i][2]) for i, u, v in core] if bridges else edges
        core_z = tuple(_kernels.z_coefficients(core_n, core_edges, core_pairs).tolist())
    else:
        core_z = (0j,) * core_n + (1 + 0j,)
    return _with_bridges(core_z, [edges[i][2] for i in bridges])


def _reduced(g: WeightedGraph) -> WeightedGraph:
    """g's parallel-reduced graph, once the edge cap and the parallel
    classes of a multigraph pass z_polynomial's checks."""
    _check_size(g)
    if not g.is_simple:
        bound: dict[tuple[int, int], float] = {}
        for u, v, w in g.edges:
            pair = (u, v) if u < v else (v, u)
            bound[pair] = bound.get(pair, 1.0) * (1.0 + abs(w))
        if not all(map(math.isfinite, bound.values())):
            raise OutOfDomain(_kernels.Z_OVERFLOW)
    return parallel_reduce(g)


def _with_bridges(core_z: tuple, bridge_weights: list) -> QPolynomial:
    """The Z record of a graph from its core's coefficients and the
    weights of its bridges, in edge order: each bridge a factor q + w_e."""
    ws = tuple(bridge_weights)
    z = core_z
    for w in ws:
        z = [w * z[0]] + [w * a + b for a, b in zip(z[1:], z)] + [z[-1]]
    if ws and not all(map(cmath.isfinite, z)):
        raise OutOfDomain(_kernels.Z_OVERFLOW)
    return QPolynomial(tuple(z), ws, core_z)


def _z_polynomials(graphs) -> list[QPolynomial]:
    """z_polynomial of each graph, for graphs that share one structure:
    the same vertex count and the same edge pairs in the same order.

    The graphs share one bridge split, and their cores go through the
    edge engine together, one row of weights per graph, which gives each
    core the bits of its own call; a single graph takes z_polynomial.
    Graphs of different structures are refused with OutOfDomain, and so
    is the whole list when z_polynomial refuses one of its graphs.
    """
    if len(graphs) < 2:
        return [z_polynomial(g) for g in graphs]
    n, pairs = graphs[0].n, graphs[0].pairs
    if any(g.n != n or g.pairs != pairs for g in graphs):
        raise OutOfDomain("the graphs do not share one edge structure")
    reduced = [_reduced(g) for g in graphs]
    bridges, core_n, core, core_pairs = _bridge_split(n, reduced[0].pairs)
    edges = [r.edges for r in reduced]
    if core:
        weights = [[e[i][2] for i, _, _ in core] for e in edges]
        cores = map(tuple, _kernels.z_coefficient_rows(core_n, core_pairs, weights).tolist())
    else:
        cores = [(0j,) * core_n + (1 + 0j,)] * len(graphs)
    return [_with_bridges(core_z, [e[i][2] for i in bridges]) for e, core_z in zip(edges, cores)]


def connected_gen_poly(g: WeightedGraph) -> complex:
    """C_G(w): sum of prod w_e over edge subsets connecting all of V.

    Equals the q^1 coefficient of Z_G, and like it is summed over the
    parallel-reduced graph of a multigraph, with the edge cap counting
    input edges; a single-vertex graph gives 1 and a disconnected graph
    gives 0.
    """
    if g.n == 0:
        return 1 + 0j
    return z_polynomial(g).coeffs[1]


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
    exact scaled Gaussian integers, exact for the float weights as given.
    Masks whose induced subgraph is disconnected get an exact zero, which
    is what drops them here.  A value that overflows floating point
    raises OutOfDomain.
    """
    _check_size(g)
    if g.n > MAX_SUPPORT_VERTICES:
        raise TooLarge(
            f"{g.n} vertices exceeds the vertex-subset cap of {MAX_SUPPORT_VERTICES}")
    table = _kernels.connected_by_support(g.n, g.edges)
    return {s: c for s, c in enumerate(table.tolist()) if c != 0}


@functools.lru_cache(maxsize=4096)
def spanning_tree_masks(n: int, edge_pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Bitmasks of all spanning trees (edge-index sets of size n-1).

    Enumerates size-(n-1) edge combinations and keeps those whose every
    edge joins two classes.  For n <= 1 the empty set is the single tree.
    Memoized on the structure, which the sweep harnesses revisit once per
    weight draw.
    """
    if n <= 1:
        return (0,)
    # both enumerations run in the same lexicographic order
    combos = zip(itertools.combinations(range(len(edge_pairs)), n - 1),
                 itertools.combinations(edge_pairs, n - 1))
    return tuple(sum(1 << e for e in combo) for combo, tree in combos
                 if len(_classes(n, tree)[1]) == n - 1)


def spanning_tree_gen_poly(g: WeightedGraph) -> complex:
    """T_G(w): sum of prod w_e over spanning trees of G (0 if disconnected)."""
    return _tree_sum(g, g.weights())


def _tree_sum(g: WeightedGraph, w) -> complex:
    """Sum over the spanning trees of g of prod w_e, for weights w given
    one per edge in edge order: T_G, or a Penrose chain's damped moduli."""
    _check_size(g)
    total = 0j
    for mask in spanning_tree_masks(g.n, g.pairs):
        total += math.prod((w[e] for e in range(g.m) if mask >> e & 1), start=1 + 0j)
    return total


def component_count(n: int, edge_pairs, mask: int) -> int:
    """k(A) for the edge subset given as a bitmask over edge_pairs."""
    return n - len(_classes(n, [p for i, p in enumerate(edge_pairs) if mask >> i & 1])[1])


def nonzero_component_count(g: WeightedGraph) -> int:
    """k(E+): components of (V, edges with nonzero weight).

    Z_G is divisible by q to at least this combinatorial power, and to a
    higher one when weights cancel its next coefficients, so it is the
    multiplicity of the root q = 0 that the nonzero-weight edges force.
    """
    return g.n - len(_classes(g.n, [(u, v) for u, v, w in g.edges if w != 0])[1])
