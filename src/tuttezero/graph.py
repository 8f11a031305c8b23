"""Complex-weighted multigraphs and their derived edge weights.

A graph here is a finite loopless multigraph on vertices 0..n-1 with one
complex weight per edge.  Instances are immutable; every operation returns
a new graph.  Each graph computes once, on first use, what every layer
reads of it: is_simple, pairs (the (u, v) endpoint pairs in edge order,
the structure that the caches in tutte and _kernels are keyed on) and
moduli ((u, v, |w|, |1+w|) in edge order, the only inputs of the disc
radii and the Penrose majorants).  Beyond construction and serialization
this module provides

* the parallel-class reduction  w -> prod(1+w_i) - 1,
* the damped weights min(|w|, |w|/|1+w|^e) built from the moduli for the
  zero-free disc bounds,
* the degree-style quantities Delta, Delta', Delta~, Psi and their ratio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadIndex,
    DegenerateLambda,
    EmptySet,
    LoopEdge,
    NonFiniteWeight,
    OutOfDomain,
    TooLarge,
)

Edge = tuple[int, int, complex]

MAX_ENUM_EDGES = 24
# connected_by_support takes O(3^n) time whatever the edge count
MAX_SUPPORT_VERTICES = 12


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable loopless multigraph with complex edge weights.

    vertices holds arbitrary hashable labels; edges are (u, v, w) triples
    with 0-based endpoint indices into the vertex tuple.  Edge order is
    preserved from construction and is part of the graph's identity.
    Every way of making a graph checks its edges here: a bad endpoint
    raises BadIndex, a loop LoopEdge, and a weight of non-finite modulus
    (a NaN or infinite part, or finite parts too large) NonFiniteWeight.
    """

    vertices: tuple
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = len(self.vertices)
        for i, (u, v, w) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise BadIndex(f"edge endpoint out of range: ({u}, {v}) with {n} vertices")
            if u == v:
                raise LoopEdge(f"loop at vertex {u} is not allowed")
            # hypot, unlike abs, gives inf rather than raising on overflow
            if not math.isfinite(math.hypot(w.real, w.imag)):
                raise NonFiniteWeight(f"edge {i} has weight {w} of non-finite modulus")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def is_simple(self) -> bool:
        """True when no unordered vertex pair carries more than one edge.

        Computed once per graph; the graph is immutable.
        """
        seen = set()
        for u, v, _ in self.edges:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The (u, v) endpoint pairs, in edge order."""
        return tuple([(u, v) for u, v, _ in self.edges])

    @cached_property
    def moduli(self) -> tuple[tuple[int, int, float, float], ...]:
        """(u, v, |w|, |1+w|) for every edge, in edge order.

        Every degree-style quantity of the graph is a function of these
        two moduli.
        """
        return tuple([(u, v, abs(w), abs(1 + w)) for u, v, w in self.edges])

    def weights(self) -> list[complex]:
        return [w for _, _, w in self.edges]

    def edges_at(self, x: int) -> list[int]:
        """Indices of the edges incident on vertex x, in edge order."""
        if not (0 <= x < self.n):
            raise BadIndex(f"vertex {x} out of range")
        return [i for i, (u, v, _) in enumerate(self.edges) if u == x or v == x]


def build_graph(vertex_labels: Sequence, edge_list: Iterable[tuple]) -> WeightedGraph:
    """Validate and construct a WeightedGraph.

    edge_list items are (u, v, w) with integer endpoints and a weight
    convertible to complex; WeightedGraph checks the edges.
    """
    edges = tuple((int(u), int(v), complex(w)) for u, v, w in edge_list)
    return WeightedGraph(tuple(vertex_labels), edges)


def parallel_reduce(g: WeightedGraph) -> WeightedGraph:
    """Collapse every parallel class to one edge of weight prod(1+w_i) - 1.

    The multivariate partition function is unchanged by this reduction.
    Classes are ordered by first appearance, and the surviving edge keeps
    the orientation of the first edge of its class.  A simple graph is its
    own reduction and comes back as the same instance, without a pass over
    its edges beyond the cached is_simple.

    Each merge computes w0 + w + w0*w rather than (1+w0)(1+w) - 1, which
    would round small weights against 1 and lose their digits.
    """
    if g.is_simple:
        return g
    order: list[tuple[int, int]] = []
    accum: dict[tuple[int, int], complex] = {}
    orient: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v, w in g.edges:
        key = (u, v) if u < v else (v, u)
        if key not in accum:
            order.append(key)
            accum[key] = w
            orient[key] = (u, v)
        else:
            w0 = accum[key]
            accum[key] = w0 + w + w0 * w
    new_edges = tuple(orient[k] + (accum[k],) for k in order)
    return WeightedGraph(g.vertices, new_edges)


def _damped(aw: float, a1: float, exponent: float) -> float:
    """min(|w|, |w| / |1+w|^exponent) from aw = |w| and a1 = |1+w|,
    without dividing by zero."""
    d = a1 ** exponent
    if d <= 1.0:
        return aw
    return aw / d


@dataclass(frozen=True)
class DegreeReport:
    """Weighted-degree summary of a graph.

    strengths[x] sums |w_e| over edges at x; delta is its maximum.
    delta_prime and delta_tilde use the damped weights min(|w|, |w|/|1+w|)
    and min(|w|, |w|/|1+w|^(1/2)).  psi is the largest per-vertex product
    of max(1, |1+w_e|).  lam = delta_prime / delta_tilde is exposed as a
    property and raises DegenerateLambda when delta_tilde = 0.
    """

    delta: float
    delta_prime: float
    delta_tilde: float
    psi: float
    strengths: tuple[float, ...]
    _lam: float | None = None

    @property
    def lam(self) -> float:
        if self._lam is None:
            raise DegenerateLambda("delta_tilde is zero; lambda is undefined")
        return self._lam


def degree_quantities(g: WeightedGraph) -> DegreeReport:
    """Compute Delta, Delta', Delta~, Psi and per-vertex strengths from
    g.moduli.

    An edgeless graph reports zeros with Psi = 1 and an undefined lambda.
    Always 1/sqrt(psi) <= lam <= 1 when lam is defined.
    """
    n = g.n
    s_raw = [0.0] * n
    s_prime = [0.0] * n
    s_tilde = [0.0] * n
    p_psi = [1.0] * n
    for u, v, aw, a1 in g.moduli:
        dp = _damped(aw, a1, 1.0)
        dt = _damped(aw, a1, 0.5)
        mx = a1 if a1 > 1.0 else 1.0
        s_raw[u] += aw
        s_raw[v] += aw
        s_prime[u] += dp
        s_prime[v] += dp
        s_tilde[u] += dt
        s_tilde[v] += dt
        p_psi[u] *= mx
        p_psi[v] *= mx
    delta = max(s_raw, default=0.0) if n else 0.0
    dprime = max(s_prime, default=0.0) if n else 0.0
    dtilde = max(s_tilde, default=0.0) if n else 0.0
    psi = max(p_psi, default=1.0) if n else 1.0
    lam = (dprime / dtilde) if dtilde > 0.0 else None
    return DegreeReport(delta, dprime, dtilde, psi, tuple(s_raw), lam)


def delta_prime_a(g: WeightedGraph, a: float) -> float:
    """Max vertex sum of min(|w|, |w|/|1+w|^(1-a/2)) over all edges.

    Interpolates between Delta' at a = 0 and Delta~ at a = 1, and is
    nondecreasing in a.
    """
    if not (0.0 <= a <= 1.0):
        raise OutOfDomain(f"a must lie in [0, 1], got {a}")
    expo = 1.0 - a / 2.0
    s = [0.0] * g.n
    for u, v, aw, a1 in g.moduli:
        d = _damped(aw, a1, expo)
        s[u] += d
        s[v] += d
    return max(s, default=0.0)


def induced_subgraph(g: WeightedGraph, vertex_set: Iterable[int]) -> WeightedGraph:
    """Subgraph induced by a nonempty vertex subset.

    Kept vertices preserve their relative order and labels; kept edges
    preserve edge order and weights.
    """
    keep = sorted(set(int(x) for x in vertex_set))
    if not keep:
        raise EmptySet("induced_subgraph needs at least one vertex")
    for x in keep:
        if not (0 <= x < g.n):
            raise BadIndex(f"vertex {x} out of range")
    remap = {x: i for i, x in enumerate(keep)}
    labels = tuple(g.vertices[x] for x in keep)
    edges = tuple(
        (remap[u], remap[v], w) for u, v, w in g.edges if u in remap and v in remap
    )
    return WeightedGraph(labels, edges)


# ---------------------------------------------------------------------------
# serialization

def graph_to_json(g: WeightedGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"u": u, "v": v, "w": [w.real, w.imag]} for u, v, w in g.edges
        ],
    }


def _is_number(x, kinds: tuple = (int, float)) -> bool:
    """True for a JSON number of one of the given kinds; true and false are not."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def graph_from_json(obj: dict) -> WeightedGraph:
    """Read the graph_to_json layout: a "vertices" list of labels and an
    "edges" list of {"u": int, "v": int, "w": number or [re, im]}.

    Any other shape raises BadIndex; a weight too large for a float
    raises NonFiniteWeight.
    """
    try:
        labels = obj["vertices"]
        raw_edges = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise BadIndex(f"malformed graph object: {exc}") from exc
    if not (isinstance(labels, list) and isinstance(raw_edges, list)):
        raise BadIndex("graph 'vertices' and 'edges' must be lists")
    edges = []
    for i, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise BadIndex(f"edge {i} is not an object: {e!r}")
        u, v, w = e.get("u"), e.get("v"), e.get("w")
        if not (_is_number(u, (int,)) and _is_number(v, (int,))):
            raise BadIndex(f"edge {i} endpoints must be integers, got {u!r} and {v!r}")
        parts = [w, 0] if _is_number(w) else w
        if not (isinstance(parts, list) and len(parts) == 2 and all(map(_is_number, parts))):
            raise BadIndex(f"edge {i} weight must be a number or [re, im], got {w!r}")
        try:
            edges.append((u, v, complex(*parts)))
        except OverflowError as exc:
            raise NonFiniteWeight(f"edge {i} has weight {w!r} of non-finite modulus") from exc
    return build_graph(labels, edges)


def parse_edge_lines(text: str) -> WeightedGraph:
    """Parse the line format: one "u v re im" per line, # starts a comment.

    Vertex count is inferred as 1 + the largest endpoint index, with the
    indices themselves used as labels; a count above MAX_SUPPORT_VERTICES
    raises TooLarge before any label is built.
    """
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise BadIndex(f"line {lineno}: expected 'u v re im', got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        w = complex(float(parts[2]), float(parts[3]))
        edges.append((u, v, w))
        top = max(top, u, v)
    if top + 1 > MAX_SUPPORT_VERTICES:
        raise TooLarge(f"vertex index {top} exceeds the vertex cap of {MAX_SUPPORT_VERTICES}")
    labels = tuple(range(top + 1))
    return build_graph(labels, edges)


def load_graph(path: str) -> WeightedGraph:
    """Read a graph from a JSON file or from the whitespace line format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json(json.loads(text))
    return parse_edge_lines(text)
