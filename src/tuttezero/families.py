"""Graph constructors, exhaustive small-graph corpora, and weight draws.

The named families (complete, cycle, path, grid, parallel pair) feed the
worked examples; the corpora enumerate every connected structure up to a
vertex budget so the verification sweeps are exhaustive rather than
sampled.  The simple corpus is decoded from a table of the graph atlas's
connected graphs that ships with the package (`_atlas`), so building it
needs nothing beyond the standard library.  Weight regimes draw complex
edge weights with |1+w| at most one ("contractive"), above one
("expansive"), or a per-edge mix.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations, product

import numpy as np

from ._atlas import CONNECTED
from .errors import OutOfDomain
from .graph import MAX_ENUM_EDGES, WeightedGraph, build_graph

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

# Largest vertex count of the shipped atlas table, and so of the simple corpus
ATLAS_MAX_VERTICES = 7

# Largest number of parallel copies of one edge in the multigraph corpus
MAX_MULTIPLICITY = 3

# Largest vertex count of the multigraph corpus: the largest n whose
# complete skeleton, every edge at MAX_MULTIPLICITY, stays within the
# enumeration cap, so every structure of the corpus can be analyzed
MULTI_MAX_VERTICES = max(n for n in range(1, ATLAS_MAX_VERTICES + 1)
                         if MAX_MULTIPLICITY * n * (n - 1) // 2 <= MAX_ENUM_EDGES)


@functools.lru_cache(maxsize=16)
def connected_simple_structures(max_n: int) -> tuple[Structure, ...]:
    """Every connected simple graph with 1..max_n vertices, up to isomorphism.

    Decoded from the connected graphs of the Read-Wilson graph atlas
    (complete through seven vertices), which the package ships as a table
    in `_atlas`; atlas order, vertices 0..n-1, edges sorted.  The corpus is
    built once per argument and shared, so it is immutable.
    """
    if not (1 <= max_n <= ATLAS_MAX_VERTICES):
        raise OutOfDomain(f"atlas covers 1..{ATLAS_MAX_VERTICES} vertices, got {max_n}")
    out = []
    # the atlas is ordered by vertex count, so the corpus is a prefix of it
    for token in CONNECTED.split():
        n, hexmask = token.split(":")
        n = int(n)
        if n > max_n:
            break
        mask = int(hexmask, 16)
        pairs = combinations(range(n), 2)
        out.append((n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1)))
    return tuple(out)


def _edge_automorphisms(n: int, pairs) -> list[tuple[int, ...]]:
    """The automorphisms of a simple graph, acting on its edges.

    One tuple per vertex permutation that maps the edge set onto itself;
    entry j is the index of the edge that the permutation maps onto edge j.
    """
    index = {e: i for i, e in enumerate(pairs)}
    out = []
    for p in permutations(range(n)):
        source = [0] * len(pairs)
        for i, (u, v) in enumerate(pairs):
            j = index.get((min(p[u], p[v]), max(p[u], p[v])))
            if j is None:
                break
            source[j] = i
        else:
            out.append(tuple(source))
    return out


@functools.lru_cache(maxsize=16)
def connected_multigraph_structures(max_n: int) -> tuple[Structure, ...]:
    """Connected multigraphs up to isomorphism: simple skeletons with edge
    multiplicities 1..MAX_MULTIPLICITY, deduplicated over vertex relabelings.

    An isomorphism of two multigraphs maps skeleton onto skeleton, and the
    skeletons are pairwise non-isomorphic, so two multiplicity patterns
    give isomorphic multigraphs exactly when an automorphism of their
    common skeleton maps one onto the other.  Each pattern is keyed by its
    least image under the skeleton's automorphisms, and the first pattern
    of each class in product order is kept.

    The edge list repeats each skeleton pair by its multiplicity.  Only
    structures with at least one repeated edge are returned; the simple
    corpus covers the rest.  Built once per argument and shared, like the
    simple corpus.
    """
    if not (1 <= max_n <= MULTI_MAX_VERTICES):
        raise OutOfDomain(
            f"multigraph corpus covers 1..{MULTI_MAX_VERTICES} vertices, got {max_n}")
    out = []
    for n, pairs in connected_simple_structures(max_n):
        auts = _edge_automorphisms(n, pairs)
        seen = set()
        for mults in product(range(1, MAX_MULTIPLICITY + 1), repeat=len(pairs)):
            if all(mu == 1 for mu in mults):
                continue
            key = min(tuple(mults[i] for i in source) for source in auts)
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

    All uniforms come from one rng.random call, per edge in the order
    coin (mixed only), phase, modulus; these are the values, in the same
    order, that one scalar rng call per uniform would draw.
    """
    if regime not in WEIGHT_REGIMES:
        raise OutOfDomain(f"unknown regime {regime!r}")
    if m < 0:
        raise OutOfDomain(f"edge count must be >= 0, got {m}")
    per = 3 if regime == "mixed" else 2
    u = rng.random(per * m).tolist()
    out = []
    for i in range(0, per * m, per):
        kind = regime
        if per == 3:
            kind = "contractive" if u[i] < 0.5 else "expansive"
        theta = math.tau * u[i + per - 2]
        s = u[i + per - 1]
        r = math.sqrt(s) if kind == "contractive" else 10.0 ** s
        out.append(-1.0 + r * complex(math.cos(theta), math.sin(theta)))
    return out


def weighted(structure: Structure, weights) -> WeightedGraph:
    """Attach weights to a corpus structure, one per edge in edge order."""
    n, pairs = structure
    if len(weights) != len(pairs):
        raise OutOfDomain(f"{len(pairs)} edges but {len(weights)} weights")
    return build_graph(range(n), [(u, v, w) for (u, v), w in zip(pairs, weights)])
