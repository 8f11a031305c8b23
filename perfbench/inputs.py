"""Seeded inputs, built without calling the package under test.

Graphs are plain (name, n, [(u, v, w), ...]) records.  Weights follow the
package's "mixed" regime: a fair coin per edge puts 1 + w either uniformly
on the closed unit disc or at a modulus log-uniform on [1, 10], with a
uniform phase.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

CLI_GRAPHS = 8  # two passes give 16 calls, enough for a steady median
# the analyze-wide schedule: the same families and sizes for every seed,
# so the work mix (which sets op_p50_ms and op_tail_ms) does not move
# with the seed; the seed picks tree shapes, chords and weights.  Six
# graphs have fewer than 12 edges, fifteen have 12 and six have more, so
# the median operation falls in the middle of a wide 12-edge group instead
# of on the twofold cost step between two edge counts, and the spread of
# root-finder cost across weights averages over many graphs.
WIDE_PATHS = (10,)
WIDE_TREES = (11, 12)
WIDE_CYCLES = (10, 12)
WIDE_CIRCULAR_LADDERS = (4, 5)
WIDE_CHORDED_CYCLES = ((8, 4), (8, 4), (8, 4), (9, 3), (9, 3), (9, 3), (10, 2), (10, 2),
                       (10, 2), (11, 1), (11, 1), (10, 3), (12, 3), (12, 4))
WIDE_TWO_ROW_GRIDS = (4, 5, 6)
WIDE_HEAVY_CYCLES = ((6, 1e6, 1e-6), (12, 1e4, 1e-4))
MAX_WIDE_EDGES = 16


def weight(rng: random.Random) -> complex:
    contractive = rng.random() < 0.5
    theta = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(rng.random()) if contractive else 10.0 ** rng.random()
    return -1.0 + r * complex(math.cos(theta), math.sin(theta))


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform attachment: vertex k joins a random earlier vertex."""
    return [(rng.randrange(k), k) for k in range(1, n)]


def weighted(rng, pairs):
    return [(min(u, v), max(u, v), weight(rng)) for u, v in pairs]


def cli_graphs(seed: int) -> list[tuple[str, int, list]]:
    """Connected simple graphs, 3 to 6 vertices: a tree plus 0-2 chords."""
    rng = random.Random(f"cli-analyze/{seed}")
    out = []
    for i in range(CLI_GRAPHS):
        n = rng.randint(3, 6)
        pairs = random_tree(rng, n)
        absent = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in pairs and (v, u) not in pairs]
        pairs += rng.sample(absent, min(len(absent), rng.randint(0, 2)))
        out.append((f"cli{i}", n, weighted(rng, pairs)))
    return out


def edge_list_text(n: int, edges) -> str:
    return "".join(f"{u} {v} {w.real!r} {w.imag!r}\n" for u, v, w in edges)


def json_text(n: int, edges) -> str:
    return json.dumps({
        "vertices": list(range(n)),
        "edges": [{"u": u, "v": v, "w": [w.real, w.imag]} for u, v, w in edges],
    }) + "\n"


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _grid(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return pairs


def wide_graphs(seed: int) -> list[tuple[str, int, list]]:
    """Sparse connected graphs, 8-12 vertices, at most 16 edges (2^m < 3^n)."""
    rng = random.Random(f"analyze-wide/{seed}")
    out = []
    for n in WIDE_PATHS:
        out.append((f"path{n}", n, weighted(rng, [(i, i + 1) for i in range(n - 1)])))
    for n in WIDE_TREES:
        out.append((f"tree{n}", n, weighted(rng, random_tree(rng, n))))
    for n in WIDE_CYCLES:
        out.append((f"cycle{n}", n, weighted(rng, _cycle(n))))
    for k in WIDE_CIRCULAR_LADDERS:
        rungs = [(i, i + k) for i in range(k)]
        pairs = _cycle(k) + [(u + k, v + k) for u, v in _cycle(k)] + rungs
        out.append((f"circular_ladder{k}", 2 * k, weighted(rng, pairs)))
    for i, (n, chords) in enumerate(WIDE_CHORDED_CYCLES):
        ring = _cycle(n)
        absent = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
        out.append((f"chorded_cycle{n}+{chords}.{i}", n,
                    weighted(rng, ring + rng.sample(absent, chords))))
    for k in WIDE_TWO_ROW_GRIDS:
        out.append((f"grid2x{k}", 2 * k, weighted(rng, _grid(2, k))))
    out.append(("grid3x3", 9, weighted(rng, _grid(3, 3))))
    for n, heavy, rest in WIDE_HEAVY_CYCLES:
        # the same edge list as families.cycle_one_heavy(n, heavy, rest)
        edges = [(0, 1, complex(heavy))] + [(i, (i + 1) % n, complex(rest)) for i in range(1, n)]
        out.append((f"cycle_one_heavy{n}", n, edges))
    assert all(len(e) <= MAX_WIDE_EDGES and 2 ** len(e) < 3 ** n for _, n, e in out)
    return out


def sweep_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Seeds handed to successive sweep calls of one run."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def digest(obj) -> str:
    """sha256 of a canonical rendering of the inputs (complex as [re, im])."""
    def enc(x):
        if isinstance(x, complex):
            return [x.real, x.imag]
        raise TypeError(type(x))

    text = json.dumps(obj, default=enc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
