"""Graph constructors, exhaustive small-graph corpora, and weight draws.

The named families (complete, cycle, path, grid, parallel pair) feed the
worked examples; the corpora enumerate every connected structure up to a
vertex budget so the verification sweeps are exhaustive rather than
sampled.  Weight regimes draw complex edge weights with |1+w| at most
one ("contractive"), above one ("expansive"), or a per-edge mix.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations, product, takewhile

import numpy as np

from .errors import OutOfDomain
from .graph import WeightedGraph, build_graph

Weight = complex | float


def complete_graph(n: int, w: Weight = 1.0) -> WeightedGraph:
    """K_n with a uniform weight, edges in lexicographic order."""
    if n < 1:
        raise OutOfDomain(f"need n >= 1, got {n}")
    return build_graph(range(n), [(u, v, w) for u, v in combinations(range(n), 2)])


def cycle_graph(n: int, w: Weight = 1.0) -> WeightedGraph:
    """C_n with a uniform weight; n >= 3 keeps it simple."""
    if n < 3:
        raise OutOfDomain(f"need n >= 3 for a simple cycle, got {n}")
    edges = [(i, (i + 1) % n, w) for i in range(n)]
    return build_graph(range(n), edges)


def cycle_one_heavy(n: int, w_heavy: Weight, w_rest: Weight) -> WeightedGraph:
    """C_n with one distinguished edge weight and a uniform rest."""
    if n < 3:
        raise OutOfDomain(f"need n >= 3 for a simple cycle, got {n}")
    edges = [(0, 1, w_heavy)] + [(i, (i + 1) % n, w_rest) for i in range(1, n)]
    return build_graph(range(n), edges)


def path_graph(n: int, w: Weight = 1.0) -> WeightedGraph:
    """Path on n vertices."""
    if n < 1:
        raise OutOfDomain(f"need n >= 1, got {n}")
    return build_graph(range(n), [(i, i + 1, w) for i in range(n - 1)])


def k2_parallel(k: int, w: Weight = 1.0) -> WeightedGraph:
    """Two vertices joined by k parallel edges of equal weight."""
    if k < 1:
        raise OutOfDomain(f"need k >= 1, got {k}")
    return build_graph(range(2), [(0, 1, w)] * k)


def grid_graph(rows: int, cols: int, w: Weight = 1.0) -> WeightedGraph:
    """rows x cols grid with uniform weight, row-major vertex order."""
    if rows < 1 or cols < 1:
        raise OutOfDomain("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, w))
            if r + 1 < rows:
                edges.append((v, v + cols, w))
    return build_graph(range(rows * cols), edges)


Structure = tuple[int, tuple[tuple[int, int], ...]]

# Largest number of parallel copies of one edge in the multigraph corpus
MAX_MULTIPLICITY = 3


@functools.lru_cache(maxsize=16)
def connected_simple_structures(max_n: int) -> tuple[Structure, ...]:
    """Every connected simple graph with 1..max_n vertices, up to isomorphism.

    Backed by the networkx graph atlas (complete through seven vertices);
    deterministic order, vertices relabeled 0..n-1, edges sorted.  The
    corpus is built once per argument and shared, so it is immutable.
    """
    import networkx as nx  # only the corpora need it; keep it off import
    from networkx.generators.atlas import _generate_graphs

    if not (1 <= max_n <= 7):
        raise OutOfDomain(f"atlas covers 1..7 vertices, got {max_n}")
    out = []
    # The atlas is ordered by vertex count, so the corpus is a prefix of it.
    # Read it one graph at a time (graph_atlas_g lists this generator) and
    # stop past max_n.  Holding all 1253 atlas graphs at once would make
    # 13k objects long-lived for the cyclic garbage collector, which then
    # runs a full collection of the whole heap later, in unrelated work.
    for g in takewhile(lambda g: g.number_of_nodes() <= max_n, _generate_graphs()):
        n = g.number_of_nodes()
        if n < 1:
            continue
        if not nx.is_connected(g):
            continue
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
        out.append((n, edges))
    return tuple(out)


@functools.lru_cache(maxsize=16)
def connected_multigraph_structures(max_n: int) -> tuple[Structure, ...]:
    """Connected multigraphs up to isomorphism: simple skeletons with edge
    multiplicities 1..MAX_MULTIPLICITY, deduplicated over vertex relabelings.

    The edge list repeats each skeleton pair by its multiplicity.  Only
    structures with at least one repeated edge are returned; the simple
    corpus covers the rest.  Built once per argument and shared, like the
    simple corpus.
    """
    if max_n > 6:
        raise OutOfDomain(f"multigraph corpus capped at 6 vertices, got {max_n}")
    out = []
    seen = set()
    for n, pairs in connected_simple_structures(max_n):
        perms = list(permutations(range(n)))
        for mults in product(range(1, MAX_MULTIPLICITY + 1), repeat=len(pairs)):
            if all(mu == 1 for mu in mults):
                continue
            canon = min(
                tuple(
                    sorted(
                        (min(p[u], p[v]), max(p[u], p[v]), mu)
                        for (u, v), mu in zip(pairs, mults)
                    )
                )
                for p in perms
            )
            key = (n, canon)
            if key in seen:
                continue
            seen.add(key)
            expanded = []
            for (u, v), mu in zip(pairs, mults):
                expanded.extend([(u, v)] * mu)
            out.append((n, tuple(expanded)))
    return tuple(out)


WEIGHT_REGIMES = ("contractive", "expansive", "mixed")


def sample_weights(m: int, regime: str, rng: np.random.Generator) -> list[complex]:
    """Draw m complex edge weights from a named regime.

    contractive: 1 + w uniform on the closed unit disc, so |1+w| <= 1.
    expansive: |1+w| log-uniform on [1, 10] with uniform phase.
    mixed: an independent fair coin per edge between the two.
    """
    if regime not in WEIGHT_REGIMES:
        raise OutOfDomain(f"unknown regime {regime!r}")
    out = []
    for _ in range(m):
        kind = regime
        if kind == "mixed":
            kind = "contractive" if rng.random() < 0.5 else "expansive"
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if kind == "contractive":
            r = math.sqrt(rng.random())
        else:
            r = 10.0 ** rng.random()
        out.append(-1.0 + r * complex(math.cos(theta), math.sin(theta)))
    return out


def weighted(structure: Structure, weights) -> WeightedGraph:
    """Attach weights to a corpus structure."""
    n, pairs = structure
    return build_graph(range(n), [(u, v, w) for (u, v), w in zip(pairs, weights)])
