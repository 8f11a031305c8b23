"""Spanning-tree intervals for the connected-subgraph complex.

Every connected spanning edge set of a simple connected graph lies in
exactly one Boolean interval [T, R(T)] indexed by a spanning tree T.
The map T -> R(T) is built from breadth-first generations of T seen
from a root vertex: a non-tree edge joins R(T) when it connects two
vertices of the same generation, or drops one generation to a vertex
numbered above the parent of its deeper endpoint.  Verification here is
exhaustive, and the resulting identity

    C_H(w) = sum over trees of  prod_T w_e * prod_{R(T) \\ T} (1 + w_e)

is the engine behind every tree-sum bound in this package.

extended_penrose_bounds majorizes |C_H(w)| by tree sums at damped moduli,
which the loop behind spanning_tree_gen_poly takes as a plain list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import BadIndex, Disconnected, NotATree, NotSimple, OutOfDomain
from .graph import WeightedGraph, _damped, degree_quantities
from .tutte import (
    _check_size,
    _tree_sum,
    component_count,
    connected_gen_poly,
    spanning_tree_masks,
)


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of the exhaustive interval-partition check for one root."""

    root: int
    tree_count: int
    connected_count: int
    interval_sizes: tuple[int, ...]
    disjoint: bool
    covering: bool
    root_edges_clear: bool

    @property
    def passed(self) -> bool:
        return (
            self.disjoint
            and self.covering
            and self.root_edges_clear
            and sum(self.interval_sizes) == self.connected_count
        )


def _require_connected(g: WeightedGraph) -> None:
    if component_count(g.n, g.pairs, (1 << g.m) - 1) != 1:
        raise Disconnected(f"graph with {g.n} vertices is not connected")


def enumerate_spanning_trees(g: WeightedGraph) -> list[int]:
    """All spanning trees as edge bitmasks; the graph must be connected."""
    _check_size(g)
    _require_connected(g)
    return list(spanning_tree_masks(g.n, g.pairs))


def _tree_layering(g: WeightedGraph, tree_mask: int, root: int):
    """Generation number and tree-parent for every vertex, by BFS in T."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v, _) in enumerate(g.edges):
        if tree_mask >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    gen = [-1] * n
    parent = [-1] * n
    gen[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if gen[y] < 0:
                    gen[y] = gen[x] + 1
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    if any(d < 0 for d in gen):
        raise NotATree("edge set does not span the graph from the root")
    return gen, parent


def penrose_map(g: WeightedGraph, tree_mask: int, root: int = 0) -> int:
    """R(T) as an edge bitmask, for a spanning tree T given as one.

    Beyond the tree edges, R(T) picks up every non-tree edge that either
    joins two vertices in the same generation, or joins a vertex x to a
    vertex one generation up whose index exceeds the index of x's tree
    parent.  No added edge touches the root: the root sits alone in
    generation zero, and a candidate from generation one leads to the
    root itself, which equals the parent and never exceeds it.
    """
    if not g.is_simple:
        raise NotSimple("interval construction needs a simple graph")
    if not (0 <= root < g.n):
        raise BadIndex(f"root {root} outside 0..{g.n - 1}")
    if tree_mask < 0 or tree_mask >> g.m:
        raise BadIndex(f"edge mask {tree_mask:#x} has a bit outside 0..{g.m - 1}")
    if tree_mask.bit_count() != g.n - 1:
        raise NotATree(f"expected {g.n - 1} edges on a host with {g.m}")
    gen, parent = _tree_layering(g, tree_mask, root)
    out = tree_mask
    for i, (u, v, _) in enumerate(g.edges):
        if tree_mask >> i & 1:
            continue
        gu, gv = gen[u], gen[v]
        if gu == gv:
            out |= 1 << i
        elif abs(gu - gv) == 1:
            x, up = (u, v) if gu > gv else (v, u)
            if up > parent[x]:
                out |= 1 << i
    return out


def verify_partition(g: WeightedGraph, root: int = 0) -> PartitionReport:
    """Exhaustively check that the intervals tile the connected subsets.

    Every connected spanning edge set must lie in the interval of exactly
    one tree.  The walk visits 2^{|R(T)-T|} elements per tree, and the
    intervals are disjoint when the distinct elements number as many as
    the visits.  Each element contains a spanning tree, so it is itself
    connected and spanning; the intervals cover when the distinct
    elements number as many as the connected spanning sets.  That count
    is C_G at unit weights, the q^1 coefficient of the edge engine's Z at
    those weights: a sum of ones, exact in binary64.
    """
    if not g.is_simple:
        raise NotSimple("interval construction needs a simple graph")
    trees = enumerate_spanning_trees(g)
    unit = [(u, v, 1.0) for u, v, _ in g.edges]
    connected_count = int(_kernels.z_coefficients(g.n, unit, g.pairs)[1].real)
    seen: set[int] = set()
    sizes = []
    clear = True
    for t in trees:
        extra = penrose_map(g, t, root) & ~t
        for i in range(g.m):
            if extra >> i & 1:
                u, v, _ = g.edges[i]
                if u == root or v == root:
                    clear = False
        sizes.append(1 << extra.bit_count())
        # walk the Boolean interval [t, R(t)]
        sub = extra
        while True:
            seen.add(t | sub)
            if sub == 0:
                break
            sub = (sub - 1) & extra
    return PartitionReport(
        root=root,
        tree_count=len(trees),
        connected_count=connected_count,
        interval_sizes=tuple(sizes),
        disjoint=len(seen) == sum(sizes),
        covering=len(seen) == connected_count,
        root_edges_clear=clear,
    )


def penrose_identity_eval(g: WeightedGraph, root: int = 0) -> complex:
    """Tree-sum form of the connected generating value.

    Sums prod_T w_e * prod_{R(T)-T} (1+w_e) over all spanning trees; equal
    to connected_gen_poly(g) for every root choice.
    """
    if not g.is_simple:
        raise NotSimple("interval construction needs a simple graph")
    total = 0j
    for t in enumerate_spanning_trees(g):
        r = penrose_map(g, t, root)
        term = 1 + 0j
        for i, (_, _, w) in enumerate(g.edges):
            if t >> i & 1:
                term *= w
            elif r >> i & 1:
                term *= 1 + w
        total += term
    return total


@dataclass(frozen=True)
class PenroseBounds:
    """One evaluation of the tree-sum bound chains at a root vertex.

    lhs is |C_H(w)|.  The first chain multiplies the damped tree sum by
    per-edge amplification factors, then by the vertex factor psi; it
    needs no simplicity.  The second chain (simple graphs) keeps raw
    moduli on the root's edges, moves to half-power damping there, and
    ends at the fully undamped tree sum; each step can only grow.
    """

    root: int
    lhs: float
    rhs_damped_prod: float
    rhs_damped_psi: float
    rhs_root_raw_prod: float | None = None
    rhs_root_raw_psi: float | None = None
    rhs_root_half_psi: float | None = None
    rhs_undamped_psi: float | None = None

    def chain_all(self) -> tuple[float, ...]:
        return (self.lhs, self.rhs_damped_prod, self.rhs_damped_psi)

    def chain_rooted(self) -> tuple[float, ...] | None:
        if self.rhs_root_raw_prod is None:
            return None
        return (
            self.lhs,
            self.rhs_root_raw_prod,
            self.rhs_root_raw_psi,
            self.rhs_root_half_psi,
            self.rhs_undamped_psi,
        )


def extended_penrose_bounds(g: WeightedGraph, x: int = 0) -> PenroseBounds:
    """Evaluate both bound chains for the connected generating value.

    The root-sensitive chain entries are None when g has parallel edges,
    where only the damped chain applies.  A power of psi beyond the
    float range raises OutOfDomain.
    """
    if not (0 <= x < g.n):
        raise BadIndex(f"root {x} outside 0..{g.n - 1}")
    _require_connected(g)
    n = g.n
    mods = g.moduli
    psi = degree_quantities(g).psi
    try:
        psi_half_n, psi_half_nm1 = psi ** (n / 2.0), psi ** ((n - 1) / 2.0)
    except OverflowError:
        raise OutOfDomain(f"psi^({n}/2) does not fit in floating point at psi = {psi}") from None
    at_x = [x in (u, v) for u, v, _, _ in mods]
    amp = [max(1.0, a1) for _, _, _, a1 in mods]

    def tree_sum(e_root: float, e_rest: float) -> float:
        """|T_G| at the weights min(|w|, |w|/|1+w|^e), with e = e_root on
        the edges at x and e = e_rest on every other edge; e = 0 keeps
        the raw modulus |w|."""
        return abs(_tree_sum(g, [_damped(aw, a1, e_root if r else e_rest)
                                 for (_, _, aw, a1), r in zip(mods, at_x)]))

    t_prime = tree_sum(1.0, 1.0)
    rooted = {}
    if g.is_simple:
        t_double = tree_sum(0.0, 1.0)
        root_half = math.prod(a ** 0.5 for a, r in zip(amp, at_x) if r)
        rooted = dict(
            rhs_root_raw_prod=t_double * math.prod(a for a, r in zip(amp, at_x) if not r),
            rhs_root_raw_psi=t_double * psi_half_nm1 / root_half,
            rhs_root_half_psi=tree_sum(0.5, 1.0) * psi_half_nm1,
            rhs_undamped_psi=tree_sum(0.0, 0.0) * psi_half_nm1,
        )
    return PenroseBounds(
        root=x,
        lhs=abs(connected_gen_poly(g)),
        rhs_damped_prod=t_prime * math.prod(amp),
        rhs_damped_psi=t_prime * psi_half_n,
        **rooted,
    )
