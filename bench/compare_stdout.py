"""Compare the CLI stdout and the Z coefficients of two source trees.

Usage, with two clean checkouts (each holding src/ and perfbench/):

    python3 bench/compare_stdout.py PARENT_DIR CHANGE_DIR [--seeds 4] [--multigraphs 20]

Each tree runs in its own subprocesses with PYTHONPATH=<tree>/src, so
neither sees the other's modules.  Z splits off every bridge of the
parallel-reduced graph as a factor q + w_e, so only bridgeless graphs
keep the engine's exact bits; graphs with a bridge may move in the last
bits.  Roots are polished by Newton steps that stop at the rounding
floor of Horner's rule, so every root may move in the last bits.  Eight
parts:

1. Byte-compared stdout and exit code of `verify-polymer`,
   `verify-inequalities` and `verify-penrose` at each seed, as JSON and
   as CSV, and of `constants --format csv` at two parameter sets.
2. Bit-compared z_polynomial coefficients of the bridgeless simple
   graphs among the analyze-wide inputs of seeds 0-39 and the connected
   simple structures to 6 vertices under mixed weights from
   default_rng(0).  Reported apart: the bridgeless cores past the
   engine's layout cache limit (more than 16 edges), whose block
   groupings are streamed rather than cached; these are the 19 connected
   7-vertex structures of more than 16 edges, one mixed draw each from
   a second default_rng(0), and a 12-cycle with chords at 20 and 24
   edges, weighted by the same generator.
3. Outputs that may move in the last bits, in four groups:
   - analyze: `analyze` on the cli-analyze inputs of the seeds, every
     graph as an edge list and as JSON, and with `--format csv`;
   - examples: `examples` as JSON and CSV, and the analyze report of
     every example graph;
   - z graphs: Z and the analyze roots of every part-2 graph, with a
     bridge or without, but for the cores past the cache limit;
   - multigraphs: `analyze` on seeded random 2-4-vertex multigraph files.
   Reported per group: the number of outputs that differ, the largest
   relative movement of a root (the roots of the two trees matched by
   assignment), the number of graphs whose exit status, disc flags or
   zero multiplicity differ, and perfbench/oracle.py's check_roots on
   every root of both trees.
4. Byte-compared JSON of verify_polymer_identity(4, 0, n_q=5, seed=s)
   at each seed, without elapsed, with a fault injected so that the
   failure path runs: polymer_profile scaled by 1 + 1e-6 on 4-vertex
   graphs.

5. Bit-compared PenroseBounds fields at every root and T_G of the
   connected simple structures to 5 vertices and the connected
   multigraph structures to 3, three mixed draws each from
   default_rng(0).  verify-penrose prints pass counts only, so this is
   the part that sees a chain value move.

6. Bit-compared counting ceilings cmk(m, a), counting_bound_sokal(a, m)
   and counting_bound_rooted(a, b, m) for m = 0..40 and a, b on a grid
   from 0 to 1e3, where every value fits in floating point.

7. Bit-compared results of verify_zero_free(5, 15, seed=s),
   verify_zero_free(4, 5, seed=s, max_multi=3) and
   verify_zero_free(6, 4, seed=s) at each seed, without elapsed, and
   the graph, roots, q_max, zero multiplicity and disc flags of every
   report the sweep made.  The last adds the 112 structures of 6
   vertices and their cores of degree 5.  No CLI command runs this sweep,
   so no other part sees its reports.

8. Bit-compared connected_by_support tables, polymer_profile and
   polymer_partition at q = 1.3 - 0.7i and -2.1 + 0.4i, of the connected
   simple structures to 6 vertices and the connected multigraph
   structures to 4, one mixed draw each from default_rng(0).
   verify-polymer prints pass counts only, so this is the part that sees
   a table, profile or partition value move.

Prints one line per item and a JSON summary last; exits 1 if a part that
must be identical is not, if a flag or exit status moves, or if a root
fails the oracle.  Where both stdouts of an item in part 1 or 3 parse as
JSON, the dotted key paths that differ are printed under it with both
values ("<missing>" for an absent key) and listed in the summary under
"differences".  Matching roots by assignment needs scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

WIDE_SEEDS = 40

Z_DUMP = """
import json
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tuttezero import TutteZeroError, analyze, build_graph, families, z_polynomial
from inputs import wide_graphs

def dump(g, past_cache_limit=False):
    out = {"n": g.n, "edges": [[u, v, w.real, w.imag] for u, v, w in g.edges],
           "z": " ".join(f"{c.real.hex()},{c.imag.hex()}" for c in z_polynomial(g).coeffs),
           "past_cache_limit": past_cache_limit}
    if past_cache_limit:  # only the bits of Z are compared for these
        print(json.dumps(out))
        return
    try:
        rep = analyze(g)
        out.update(roots=[[r.real, r.imag] for r in rep.roots], mult=rep.q_zero_multiplicity,
                   flags=[rep.general_disc_verified, rep.simple_disc_verified])
    except TutteZeroError as exc:
        out["error"] = type(exc).__name__
    print(json.dumps(out))

for seed in range(int(sys.argv[2])):
    for _, n, edges in wide_graphs(seed):
        dump(build_graph(range(n), edges))
rng = np.random.default_rng(0)
for n, pairs in families.connected_simple_structures(6):
    dump(families.weighted((n, pairs), families.sample_weights(len(pairs), "mixed", rng)))
# cores past the layout cache limit: 17 to 24 edges
rng = np.random.default_rng(0)
cycle = tuple((i, (i + 1) % 12) for i in range(12))
chords = ((0, 6), (2, 8), (3, 9), (4, 10), (1, 7), (5, 11),
          (0, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9))
large = [(n, pairs) for n, pairs in families.connected_simple_structures(7) if len(pairs) > 16]
for n, pairs in large + [(12, cycle + chords[:m - 12]) for m in (20, 24)]:
    dump(families.weighted((n, pairs), families.sample_weights(len(pairs), "mixed", rng)),
         past_cache_limit=True)
"""

FAULTED_POLYMER = """
import json
import sys
from tuttezero import verify

profile = verify.polymer_profile

def scaled(g, **kwargs):
    p = profile(g, **kwargs)
    return p * (1 + 1e-6) if g.n == 4 else p

verify.polymer_profile = scaled
for seed in range(int(sys.argv[1])):
    r = verify.verify_polymer_identity(4, 0, n_q=5, seed=seed)
    del r["elapsed"]
    print(json.dumps(r, sort_keys=True))
"""

PENROSE_DUMP = """
from dataclasses import astuple
import numpy as np
from tuttezero import TutteZeroError, extended_penrose_bounds, families, spanning_tree_gen_poly

def bits(x):
    return x.hex() if isinstance(x, float) else repr(x)

rng = np.random.default_rng(0)
for n, pairs in (families.connected_simple_structures(5)
                 + families.connected_multigraph_structures(3)):
    for _ in range(3):
        g = families.weighted((n, pairs), families.sample_weights(len(pairs), "mixed", rng))
        t = spanning_tree_gen_poly(g)
        out = [f"{t.real.hex()},{t.imag.hex()}"]
        for x in range(n):
            try:
                out.append(" ".join(map(bits, astuple(extended_penrose_bounds(g, x)))))
            except TutteZeroError as exc:
                out.append(type(exc).__name__)
        print(" | ".join(out))
"""

COUNTING_DUMP = """
from tuttezero import TutteZeroError, cmk, counting_bound_rooted, counting_bound_sokal

GRID = (0.0, 1e-3, 0.1, 0.5, 1.0, 2.5, 10.0, 100.0, 1e3)

def bits(f, *args):
    try:
        return f(*args).hex()
    except TutteZeroError as exc:
        return type(exc).__name__

for m in range(41):
    print(m, " ".join(bits(cmk, m, a) for a in GRID), "|",
          " ".join(bits(counting_bound_sokal, a, m) for a in GRID), "|",
          " ".join(bits(counting_bound_rooted, a, b, m) for a in GRID for b in GRID))
"""

ZERO_FREE_DUMP = """
import json
import sys
from tuttezero import verify

analyze = verify.analyze
reports = []

def recorded(g, *args):
    rep = analyze(g, *args)
    reports.append({"n": g.n, "edges": [[u, v, w.real.hex(), w.imag.hex()] for u, v, w in g.edges],
                    "roots": [[r.real.hex(), r.imag.hex()] for r in rep.roots],
                    "q_max": rep.q_max.hex(), "mult": rep.q_zero_multiplicity,
                    "flags": [rep.general_disc_verified, rep.simple_disc_verified]})
    return rep

verify.analyze = recorded
for seed in range(int(sys.argv[1])):
    for kwargs in ({"max_vertices": 5, "draws": 15},
                   {"max_vertices": 4, "draws": 5, "max_multi": 3},
                   {"max_vertices": 6, "draws": 4}):
        r = verify.verify_zero_free(seed=seed, **kwargs)
        del r["elapsed"]
        print(json.dumps(r, sort_keys=True))
        for rep in reports:
            print(json.dumps(rep))
        reports.clear()
"""

POLYMER_DUMP = """
import numpy as np
from tuttezero import (TutteZeroError, connected_by_support, families, polymer_partition,
                       polymer_profile, tutte_polymer_weights)

def bits(z):
    return f"{z.real.hex()},{z.imag.hex()}"

rng = np.random.default_rng(0)
for n, pairs in (families.connected_simple_structures(6)
                 + families.connected_multigraph_structures(4)):
    g = families.weighted((n, pairs), families.sample_weights(len(pairs), "mixed", rng))
    out = [f"{n} {pairs}"]
    try:
        table = connected_by_support(g)
        out.append(" ".join(f"{s}:{bits(c)}" for s, c in table.items()))
        out.append(" ".join(map(bits, polymer_profile(g, table=table).tolist())))
        for q in (complex(1.3, -0.7), complex(-2.1, 0.4)):
            out.append(bits(polymer_partition(tutte_polymer_weights(g, q, table=table))))
    except TutteZeroError as exc:
        out.append(type(exc).__name__)
    print(" | ".join(out))
"""

# each example's report is matched to the graph that analyze was called on
EXAMPLE_DUMP = """
import json
from tuttezero import zeros

calls = []
analyze = zeros.analyze

def recorded(g):
    rep = analyze(g)
    calls.append((g, rep.to_json()))
    return rep

zeros.analyze = recorded
for rec in zeros.example_suite(0):
    g = next(g for g, rep in calls if rep == rec["report"])
    rep = rec["report"]
    print(json.dumps({"name": rec["name"], "n": g.n,
                      "edges": [[u, v, w.real, w.imag] for u, v, w in g.edges],
                      "roots": rep["roots"], "q_zero_multiplicity": rep["q_zero_multiplicity"],
                      "general_disc_verified": rep["general_disc_verified"],
                      "simple_disc_verified": rep["simple_disc_verified"]}))
"""


def _run(tree: Path, args: list[str], cwd: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=cwd, env=env)
    return proc.returncode, proc.stdout


def _cli(tree: Path, argv: list[str], cwd: Path) -> tuple[int, str]:
    return _run(tree, ["-m", "tuttezero.cli", *argv], cwd)


def _json_diff(a, b, path: str = "") -> list[tuple[str, object, object]]:
    """(dotted path, a's value, b's value) wherever two parsed JSON values
    differ; list items are keyed by index, and lists of unequal length
    differ as a whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            out += _json_diff(a.get(key, "<missing>"), b.get(key, "<missing>"),
                              f"{path}.{key}" if path else key)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _json_diff(x, y, f"{path}.{i}" if path else str(i))]
    return [] if json.dumps(a) == json.dumps(b) else [(path or ".", a, b)]


def _report_diff(summary: dict, label: str, out: dict) -> None:
    """Print and record the key paths at which two JSON stdouts differ;
    a stdout that is not JSON is left to the item's own line."""
    try:
        diff = _json_diff(json.loads(out["parent"][1]), json.loads(out["change"][1]))
    except json.JSONDecodeError:
        return
    if diff:
        summary["differences"][label] = {p: [a, b] for p, a, b in diff}
        for p, a, b in diff:
            print(f"      {p}: {a!r} -> {b!r}", flush=True)


def _multigraph(rng: random.Random, inputs) -> tuple[int, list]:
    """A connected 2-4-vertex multigraph: a tree plus 1-8 extra edges."""
    n = rng.randint(2, 4)
    pairs = inputs.random_tree(rng, n)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs += [rng.choice(all_pairs) for _ in range(rng.randint(1, 8))]
    return n, inputs.weighted(rng, pairs)


def _has_bridge(n: int, edges) -> bool:
    """Whether the parallel-reduced graph has an edge whose endpoints fall
    apart without it."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v, *_ in edges})
    for i, (u, v) in enumerate(pairs):
        reach, todo = {u}, [u]
        while todo:
            x = todo.pop()
            for j, (a, b) in enumerate(pairs):
                y = b if a == x else a if b == x else None
                if j != i and y is not None and y not in reach:
                    reach.add(y)
                    todo.append(y)
        if v not in reach:
            return True
    return False


class _Moved:
    """Part 3's report on one group of outputs that may move in the last bits."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.outputs = self.differ = self.flags_differ = 0
        self.worst = 0.0
        self.failures: list[str] = []

    def output(self, same: bool) -> None:
        """Count one output of the group, compared byte for byte."""
        self.outputs += 1
        self.differ += not same

    def add(self, label: str, n: int, edges, reps: dict) -> None:
        """Check the reports of one graph.  reps maps a side to its analyze
        report (roots, q_zero_multiplicity and the two disc flags), for each
        side on which analyze succeeded."""
        keys = ("q_zero_multiplicity", "general_disc_verified", "simple_disc_verified")
        flags = {side: [rep[k] for k in keys] for side, rep in reps.items()}
        if len(reps) == 1 or (reps and flags["parent"] != flags["change"]):
            self.flags_differ += 1
            print(f"      {label}: exit status, disc flag or zero multiplicity differs", flush=True)
        elif reps:
            self.worst = max(self.worst, _root_movement(reps["change"]["roots"],
                                                        reps["parent"]["roots"]))
        for side, rep in reps.items():
            why = self.oracle.check_roots(n, edges, [complex(*r) for r in rep["roots"]],
                                          rep["q_zero_multiplicity"])
            if why:
                self.failures.append(f"{side} {label}: {why}")

    def summary(self) -> dict:
        return {"outputs": self.outputs, "output_differs": self.differ,
                "flags_differ": self.flags_differ, "max_rel_root_movement": self.worst,
                "oracle_failures": self.failures}


def _root_movement(a: list, b: list) -> float:
    """Largest |r - s| / |s| over the roots s of b, each matched to a root r
    of a by the assignment that minimises the summed distance."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    if not b:
        return 0.0
    ra = np.array([complex(*x) for x in a])
    rb = np.array([complex(*x) for x in b])
    cost = np.abs(ra[:, None] - rb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols] / np.maximum(np.abs(rb[cols]), 1e-300)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, default=4, help="seeds 0..N-1 (default 4)")
    ap.add_argument("--multigraphs", type=int, default=20)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sys.path.insert(0, str(trees["change"] / "perfbench"))
    import inputs
    import oracle

    summary = {"identical": {}, "differences": {}, "moved": {}}
    moved = {group: _Moved(oracle) for group in ("analyze", "examples", "z graphs", "multigraphs")}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        byte_stable = [[cmd, "--seed", str(seed), *fmt]
                       for seed in range(args.seeds) for fmt in ([], ["--format", "csv"])
                       for cmd in ("verify-polymer", "verify-inequalities", "verify-penrose")]
        byte_stable += [["constants", *p, "--format", "csv"]
                        for p in ([], ["--psi", "2.5", "--lambda", "0.5", "--beta", "0.7"])]
        for argv in byte_stable:
            label = " ".join(argv)
            out = {side: _cli(tree, argv, work) for side, tree in trees.items()}
            same = out["parent"] == out["change"]
            summary["identical"][label] = same
            print(f"{'same' if same else 'DIFF'}  exit {out['change'][0]}  {label}", flush=True)
            _report_diff(summary, label, out)

        for seed in range(args.seeds):
            for name, n, edges in inputs.cli_graphs(seed):
                for ext, text in (("txt", inputs.edge_list_text(n, edges)),
                                  ("json", inputs.json_text(n, edges))):
                    path = work / f"cli{seed}_{name}.{ext}"
                    path.write_text(text)
                    label = f"analyze seed {seed} {name}.{ext}"
                    out = {side: _cli(tree, ["analyze", "--input", str(path), "--seed", str(seed)],
                                      work)
                           for side, tree in trees.items()}
                    same = out["parent"] == out["change"]
                    print(f"{'same' if same else 'moved'}  exit {out['change'][0]}  {label}",
                          flush=True)
                    _report_diff(summary, label, out)
                    moved["analyze"].output(same)
                    moved["analyze"].add(label, n, edges, {
                        side: json.loads(text) for side, (code, text) in out.items() if code == 0})
                    out = {side: _cli(tree, ["analyze", "--input", str(path), "--seed", str(seed),
                                             "--format", "csv"], work)
                           for side, tree in trees.items()}
                    same = out["parent"] == out["change"]
                    print(f"{'same' if same else 'moved'}  exit {out['change'][0]}  {label} csv",
                          flush=True)
                    moved["analyze"].output(same)

        for label, argv in (("examples json", ["examples"]),
                            ("examples csv", ["examples", "--format", "csv"])):
            out = {side: _cli(tree, argv, work) for side, tree in trees.items()}
            same = out["parent"] == out["change"]
            print(f"{'same' if same else 'moved'}  exit {out['change'][0]}  {label}", flush=True)
            _report_diff(summary, label, out)
            moved["examples"].output(same)
        script = work / "example_dump.py"
        script.write_text(EXAMPLE_DUMP)
        dumps = {side: _run(tree, [str(script)], work)[1].splitlines()
                 for side, tree in trees.items()}
        for a, b in zip(dumps["parent"], dumps["change"]):
            recs = {"parent": json.loads(a), "change": json.loads(b)}
            rec = recs["change"]
            edges = [(u, v, complex(re, im)) for u, v, re, im in rec["edges"]]
            moved["examples"].add(f"example {rec['name']}", rec["n"], edges, recs)

        script = work / "zdump.py"
        script.write_text(Z_DUMP)
        dumps = {side: _run(tree, [str(script), str(tree / "perfbench"), str(WIDE_SEEDS)], work)
                 for side, tree in trees.items()}
        lines = {side: text.splitlines() for side, (_, text) in dumps.items()}
        ran = (dumps["parent"][0] == dumps["change"][0] == 0
               and len(lines["parent"]) == len(lines["change"]))
        # keyed by past_cache_limit: the part-2 graphs, then the large cores
        same = {False: ran, True: ran}
        bridgeless = {False: 0, True: 0}
        for i, (a, b) in enumerate(zip(lines["parent"], lines["change"])):
            recs = {"parent": json.loads(a), "change": json.loads(b)}
            n, edges = recs["change"]["n"], recs["change"]["edges"]
            large = recs["change"]["past_cache_limit"]
            same[large] = same[large] and recs["parent"]["edges"] == edges
            edges = [(u, v, complex(re, im)) for u, v, re, im in edges]
            if not _has_bridge(n, edges):
                bridgeless[large] += 1
                same[large] = same[large] and recs["parent"]["z"] == recs["change"]["z"]
            if large:
                continue
            moved["z graphs"].output(a == b)
            moved["z graphs"].add(f"z graph {i}", n, edges, {
                side: {"roots": r["roots"], "q_zero_multiplicity": r["mult"],
                       "general_disc_verified": r["flags"][0],
                       "simple_disc_verified": r["flags"][1]}
                for side, r in recs.items() if "roots" in r})
        for large, label in ((False, f"bridgeless simple graphs ({bridgeless[False]} graphs)"),
                             (True, f"cores past the layout cache limit "
                                    f"({bridgeless[True]} graphs)")):
            label = f"z_polynomial bits, {label}"
            summary["identical"][label] = same[large]
            print(f"{'same' if same[large] else 'DIFF'}  {label}", flush=True)

        script = work / "faulted_polymer.py"
        script.write_text(FAULTED_POLYMER)
        runs = {side: _run(tree, [str(script), str(args.seeds)], work)
                for side, tree in trees.items()}
        same = runs["parent"] == runs["change"] and runs["change"][0] == 0
        label = f"verify_polymer_identity with a faulted profile ({args.seeds} seeds)"
        summary["identical"][label] = same
        print(f"{'same' if same else 'DIFF'}  {label}", flush=True)

        script = work / "penrose_dump.py"
        script.write_text(PENROSE_DUMP)
        runs = {side: _run(tree, [str(script)], work) for side, tree in trees.items()}
        same = runs["parent"] == runs["change"] and runs["change"][0] == 0
        label = f"PenroseBounds and T_G bits ({len(runs['change'][1].splitlines())} graphs)"
        summary["identical"][label] = same
        print(f"{'same' if same else 'DIFF'}  {label}", flush=True)

        script = work / "counting_dump.py"
        script.write_text(COUNTING_DUMP)
        runs = {side: _run(tree, [str(script)], work) for side, tree in trees.items()}
        same = runs["parent"] == runs["change"] and runs["change"][0] == 0
        label = "counting ceiling bits (m = 0..40)"
        summary["identical"][label] = same
        print(f"{'same' if same else 'DIFF'}  {label}", flush=True)

        script = work / "zero_free_dump.py"
        script.write_text(ZERO_FREE_DUMP)
        runs = {side: _run(tree, [str(script), str(args.seeds)], work)
                for side, tree in trees.items()}
        same = runs["parent"] == runs["change"] and runs["change"][0] == 0
        reports = len(runs["change"][1].splitlines()) - 3 * args.seeds
        label = f"verify_zero_free results and reports ({reports} reports, {args.seeds} seeds)"
        summary["identical"][label] = same
        print(f"{'same' if same else 'DIFF'}  {label}", flush=True)

        script = work / "polymer_dump.py"
        script.write_text(POLYMER_DUMP)
        runs = {side: _run(tree, [str(script)], work) for side, tree in trees.items()}
        same = runs["parent"] == runs["change"] and runs["change"][0] == 0
        label = (f"C table, gas profile and partition bits "
                 f"({len(runs['change'][1].splitlines())} graphs)")
        summary["identical"][label] = same
        print(f"{'same' if same else 'DIFF'}  {label}", flush=True)

        rng = random.Random("compare-stdout/multigraphs")
        for i in range(args.multigraphs):
            n, edges = _multigraph(rng, inputs)
            path = work / f"multi{i}.txt"
            path.write_text(inputs.edge_list_text(n, edges))
            out = {side: _cli(tree, ["analyze", "--input", str(path)], work)
                   for side, tree in trees.items()}
            same = out["parent"] == out["change"]
            moved["multigraphs"].output(same)
            moved["multigraphs"].add(f"multi{i}", n, edges, {
                side: json.loads(text) for side, (code, text) in out.items() if code == 0})
            print(f"{'same' if same else 'moved'}  multi{i} n={n} m={len(edges)} "
                  f"exit {out['change'][0]}", flush=True)
            _report_diff(summary, f"multi{i}", out)
        summary["moved"] = {group: m.summary() for group, m in moved.items()}
        for group, m in moved.items():
            print(f"moved  {group}: {m.differ} of {m.outputs} outputs differ, largest relative "
                  f"root movement {m.worst:.3g}, {m.flags_differ} flags differ, "
                  f"{len(m.failures)} oracle failures", flush=True)

    ok = (all(summary["identical"].values())
          and not any(m.failures or m.flags_differ for m in moved.values()))
    summary["ok"] = ok
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
