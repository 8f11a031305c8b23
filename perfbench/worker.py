"""One workload in one process: set up, measure, check, optionally trace.

Started by run.py, which times this process from spawn to the moment it
reports ready.  Prints one JSON object as its last stdout line.

A workload runs in units of fixed work: one pass over its inputs, or one
sweep call.  An untraced run repeats units in a closed loop (one client,
one operation at a time) until --seconds have passed, then checks the
captured outputs against the independent oracle.  A traced run does one
unit without spans and the same unit with spans, and reports the per-layer
table of the traced one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
SPAN_MARK = "PERFBENCH-SPANS "

ZERO_FREE_MAX_VERTICES = 5
ZERO_FREE_DRAWS = 15
ZERO_FREE_SAMPLE_P = 0.04
POLYMER_MAX_SIMPLE = 5
POLYMER_MAX_MULTI = 4
POLYMER_N_Q = 20
POLYMER_SAMPLE = 48
MAX_UNITS = 1000

# Speed gauges.  On the shared 2-vCPU machine this benchmark was defined on
# (Xeon, 2.0 GHz) the same work ran up to 1.4x slower for minutes at a time,
# depending on other tenants.  A gauge times a fixed piece of work between
# operations, and reported times are scaled by its quiet-core time over its
# mean in the run, i.e. to the speed of a quiet core.  In-process work is
# gauged with the oracle on a 3x3 grid plus a union-find sweep over the
# edge subsets of a 9-edge graph (the two kinds of Python work the package
# does); process start-up and imports (the CLI calls and set-up) with a
# bare `python -c pass`, which follows them far more closely.  Raw figures
# are printed in the notes.
KERNEL_GAUGE_GRAPH = (9, [(u, v, complex(0.5, 0.25)) for u, v in
                          [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
                          + [(v, v + 3) for v in range(6)]])
KERNEL_GAUGE_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5))
KERNEL_GAUGE_REF_S = 2.2e-3
SPAWN_GAUGE_REF_S = 50e-3
GAUGE_EVERY_S = 0.25
SETUP_GAUGE_BURST = 8
CLI_GAUGE_BURST = 2  # spawn-gauge samples before each CLI call


class Gauge:
    """Times a fixed workload, at most once per GAUGE_EVERY_S."""

    def __init__(self, work, ref_s):
        self.work, self.ref_s = work, ref_s
        self.samples: list[float] = []
        self.spent = 0.0
        self.next_at = 0.0

    def tick(self):
        now = time.perf_counter()
        if now < self.next_at:
            return
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - now
        self.next_at = t1 + GAUGE_EVERY_S

    def burst(self, n: int):
        for _ in range(n):
            self.next_at = 0.0
            self.tick()

    def scale(self) -> float:
        """Factor that turns this run's wall times into quiet-core times."""
        return self.ref_s / statistics.mean(self.samples)


class NoGauge:
    """Stands in for a gauge in traced runs, whose figures are not scaled."""

    spent = 0.0

    def tick(self):
        pass

    def burst(self, n: int):
        pass


def _component_counts(n, pairs):
    """Sum over edge subsets of the component count, by union-find."""
    total = 0
    for mask in range(1 << len(pairs)):
        parent = list(range(n))
        k = n
        for e, (u, v) in enumerate(pairs):
            if mask >> e & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    k -= 1
        total += k
    return total


def _kernel_gauge_work():
    oracle.z_with_bound(*KERNEL_GAUGE_GRAPH)
    _component_counts(6, KERNEL_GAUGE_PAIRS)


def kernel_gauge():
    return Gauge(_kernel_gauge_work, KERNEL_GAUGE_REF_S)


def spawn_gauge():
    return Gauge(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True,
                                        timeout=CHILD_TIMEOUT_S), SPAWN_GAUGE_REF_S)


class Probe:
    """Replaces one module binding with a wrapper that sees every call."""

    def __init__(self, module, name, on_return):
        self.module, self.name, self.on_return = module, name, on_return
        self.orig = None

    def on(self):
        self.orig = fn = getattr(self.module, self.name)
        on_return = self.on_return

        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            on_return(args, out)
            return out

        setattr(self.module, self.name, probed)

    def off(self):
        setattr(self.module, self.name, self.orig)


def _graph(tz, n, edges):
    return tz.build_graph(range(n), edges)


def _unit(ops, wall, checks, failures, snapshot=None):
    return {"ops": ops, "wall": wall, "checks": checks, "failures": failures,
            "snapshot": snapshot}


class CliAnalyze:
    """Cold `python -m tuttezero.cli analyze --input F`, one call at a time."""

    min_units = 2  # every input runs at least twice, for byte stability
    make_gauge = staticmethod(spawn_gauge)

    def __init__(self, tz, seed, workdir):
        self.tz = tz
        self.graphs = inputs.cli_graphs(seed)
        self.workdir = workdir
        self.probes = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.first_stdout: dict[int, bytes] = {}

    def inputs(self):
        return self.graphs

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = []
        self.expected = []
        for i, (name, n, edges) in enumerate(self.graphs):
            text, ext = ((inputs.edge_list_text(n, edges), "txt") if i % 2 == 0
                         else (inputs.json_text(n, edges), "json"))
            path = os.path.join(self.workdir, f"{name}.{ext}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths.append(path)
            rep = json.loads(json.dumps(self.tz.analyze(_graph(self.tz, n, edges)).to_json()))
            self.expected.append((rep["roots"], rep["q_max"]))
        self._call(0, traced=False)  # warm-up, untimed

    def _call(self, i, traced):
        script = ([str(HERE / "cli_child.py")] if traced else ["-m", "tuttezero.cli"])
        cmd = [sys.executable, *script, "analyze", "--input", self.paths[i]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    def run_unit(self, k, traced=False):
        ops, failures, snaps = [], [], []
        for i in range(len(self.graphs)):
            self.gauge.burst(CLI_GAUGE_BURST)
            dt, proc = self._call(i, traced)
            ops.append(dt)
            why = self._check(i, proc)
            if why:
                failures.append(f"{self.graphs[i][0]}: {why}")
            if traced:
                marks = [ln for ln in proc.stderr.decode().splitlines()
                         if ln.startswith(SPAN_MARK)]
                if not marks:
                    raise RuntimeError(f"traced child printed no spans: {proc.stderr[-300:]!r}")
                snap = json.loads(marks[-1][len(SPAN_MARK):])
                snap["top_s"] += snap.pop("import_s")
                snaps.append(snap)
        snapshot = tracing.merge_snapshots(snaps) if traced else None
        return _unit(ops, sum(ops), len(ops), failures, snapshot)

    def _check(self, i, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr[-300:]!r}"
        first = self.first_stdout.setdefault(i, proc.stdout)
        if proc.stdout != first:
            return "stdout differs between runs of the same input"
        try:
            out = json.loads(proc.stdout)
            got = (out["roots"], out["q_max"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"stdout is not an analyze report: {exc}"
        if got != self.expected[i]:
            return "roots or q_max differ from in-process analyze"
        return None

    def oracle_check(self, rng):
        failures = []
        for name, n, edges in self.graphs:
            g = _graph(self.tz, n, edges)
            ref = oracle.z_with_bound(n, edges)
            rep = self.tz.analyze(g)
            why = (oracle.check_coefficients(n, edges, self.tz.z_polynomial(g).coeffs, ref)
                   or oracle.check_roots(n, edges, rep.roots, rep.q_zero_multiplicity, ref))
            if why:
                failures.append(f"oracle rejects {name}: {why}")
        return len(self.graphs), failures

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class AnalyzeWide:
    """Warm in-process analyze(g) on sparse graphs of 8-12 vertices."""

    min_units = 1
    make_gauge = staticmethod(kernel_gauge)

    def __init__(self, tz, seed, workdir):
        self.tz = tz
        self.graphs = inputs.wide_graphs(seed)
        self.last_z = None

        def keep(args, out):
            self.last_z = out

        self.probes = [Probe(tz.zeros, "z_polynomial", keep)]
        self.seen: dict[int, tuple] = {}

    def inputs(self):
        return self.graphs

    def setup(self):
        self.objs = [_graph(self.tz, n, edges) for _, n, edges in self.graphs]
        self.tz.analyze(self.objs[0])  # warm-up, untimed

    def run_unit(self, k, traced=False):
        analyze = self.tz.analyze
        ops, failures = [], []
        for i, g in enumerate(self.objs):
            self.gauge.tick()
            t0 = time.perf_counter()
            rep = analyze(g)
            ops.append(time.perf_counter() - t0)
            first = self.seen.setdefault(i, (rep, self.last_z))
            if rep.roots != first[0].roots:
                failures.append(f"{self.graphs[i][0]}: roots differ between passes")
        return _unit(ops, sum(ops), len(ops), failures)

    def oracle_check(self, rng):
        failures = []
        for i, (rep, z) in self.seen.items():
            name, n, edges = self.graphs[i]
            ref = oracle.z_with_bound(n, edges)
            why = (oracle.check_coefficients(n, edges, z.coeffs, ref)
                   or oracle.check_roots(n, edges, rep.roots, rep.q_zero_multiplicity, ref))
            if why:
                failures.append(f"oracle rejects {name}: {why}")
        return len(self.seen), failures

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Sweep:
    """One operation is one sweep call; outputs are captured in the first."""

    min_units = 1
    make_gauge = staticmethod(kernel_gauge)

    def __init__(self, tz, seed, workdir):
        self.tz = tz
        self.seed = seed
        self.seeds = inputs.sweep_seeds(self.name, seed, MAX_UNITS)
        self.sample_rng = random.Random(f"{self.name}/sample/{seed}")
        self.captured = []
        self.capturing = False

    def run_unit(self, k, traced=False):
        self.capturing = k == 0
        spent = self.gauge.spent
        t0 = time.perf_counter()
        r = self.call(self.seeds[k])
        wall = time.perf_counter() - t0 - (self.gauge.spent - spent)
        failures = list(r["failures"])
        failures += [f"unlisted failure {j}" for j in range(len(failures), r["failure_count"])]
        if not r["passed"] and not failures:
            failures.append("sweep reports passed = False")
        return _unit([wall], wall, r["checked"], failures)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SweepZeroFree(_Sweep):
    """verify_zero_free over every connected simple structure up to 5 vertices."""

    name = "sweep-zero-free"

    def __init__(self, tz, seed, workdir):
        super().__init__(tz, seed, workdir)

        def record(args, out):
            self.gauge.tick()
            if self.capturing and self.sample_rng.random() < ZERO_FREE_SAMPLE_P:
                self.captured.append((args[0], out))

        self.probes = [Probe(tz.verify, "analyze", record)]

    def inputs(self):
        return {"max_vertices": ZERO_FREE_MAX_VERTICES, "draws": ZERO_FREE_DRAWS,
                "seeds": self.seeds}

    def setup(self):
        self.tz.verify.verify_zero_free(max_vertices=3, draws=1, seed=self.seed)  # warm-up

    def call(self, seed):
        return self.tz.verify.verify_zero_free(
            max_vertices=ZERO_FREE_MAX_VERTICES, draws=ZERO_FREE_DRAWS, seed=seed)

    def oracle_check(self, rng):
        failures = []
        for g, rep in self.captured:
            edges = list(g.edges)
            ref = oracle.z_with_bound(g.n, edges)
            why = (oracle.check_coefficients(g.n, edges, self.tz.z_polynomial(g).coeffs, ref)
                   or oracle.check_roots(g.n, edges, rep.roots, rep.q_zero_multiplicity, ref))
            if why:
                failures.append(f"oracle rejects n={g.n} edges={edges}: {why}")
        return len(self.captured), failures


class SweepPolymer(_Sweep):
    """verify_polymer_identity: simple corpus to 5 vertices, multigraphs to 4."""

    name = "sweep-polymer"

    def __init__(self, tz, seed, workdir):
        super().__init__(tz, seed, workdir)
        self.profiles = []

        def record_z(args, out):
            self.gauge.tick()
            if self.capturing:
                self.captured.append((args[0], out))

        def record_profile(args, out):
            if self.capturing:
                self.profiles.append(out)

        self.probes = [Probe(tz.verify, "z_polynomial", record_z),
                       Probe(tz.verify, "polymer_profile", record_profile)]

    def inputs(self):
        return {"max_simple": POLYMER_MAX_SIMPLE, "max_multi": POLYMER_MAX_MULTI,
                "n_q": POLYMER_N_Q, "seeds": self.seeds}

    def setup(self):
        self.tz.verify.verify_polymer_identity(max_simple=3, max_multi=0, n_q=2,
                                               seed=self.seed)  # warm-up

    def call(self, seed):
        return self.tz.verify.verify_polymer_identity(
            max_simple=POLYMER_MAX_SIMPLE, max_multi=POLYMER_MAX_MULTI, n_q=POLYMER_N_Q,
            seed=seed)

    def oracle_check(self, rng):
        if len(self.profiles) != len(self.captured):
            return 1, ["polymer_profile and z_polynomial call counts differ"]
        picks = rng.sample(range(len(self.captured)), min(POLYMER_SAMPLE, len(self.captured)))
        failures = []
        for i in picks:
            (g, z), prof = self.captured[i], self.profiles[i]
            edges = list(g.edges)
            ref = oracle.z_with_bound(g.n, edges)
            why = (oracle.check_coefficients(g.n, edges, z.coeffs, ref)
                   or oracle.check_profile(g.n, edges, prof, ref))
            if why:
                failures.append(f"oracle rejects n={g.n} edges={edges}: {why}")
        return len(picks), failures


WORKLOADS = {
    "cli-analyze": CliAnalyze,
    "sweep-zero-free": SweepZeroFree,
    "sweep-polymer": SweepPolymer,
    "analyze-wide": AnalyzeWide,
}


def tail(ops):
    """(value, percentile): the highest percentile with at least ten
    operations beyond it, or the median when there are fewer than 20."""
    s = sorted(ops)
    if len(s) < 20:
        return statistics.median(s), 50.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def measure(wl, seconds):
    wl.gauge.tick()
    for p in wl.probes:
        p.on()
    units = []
    t_start = time.perf_counter()
    while len(units) < wl.min_units or (
            time.perf_counter() - t_start < seconds and len(units) < MAX_UNITS):
        units.append(wl.run_unit(len(units)))
    for p in wl.probes:
        p.off()
    rss_mb = wl.peak_rss_kb() / 1024.0
    return units, rss_mb


def untraced(wl, seconds, seed):
    units, rss_mb = measure(wl, seconds)
    o_checked, o_failures = wl.oracle_check(random.Random(f"oracle/{seed}"))
    ops = [t for u in units for t in u["ops"]]
    checks = sum(u["checks"] for u in units)
    wall = sum(u["wall"] for u in units)
    failures = [f for u in units for f in u["failures"]] + o_failures
    tail_s, tail_pct = tail(ops)
    p50_s = statistics.median(ops)
    attempted = checks + o_checked
    scale = wl.gauge.scale()
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:8],
        "metrics": {
            "op_p50_ms": {"value": p50_s * scale * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail_s * scale * 1e3, "unit": "ms"},
            "checks_per_s": {"value": checks / (wall * scale), "unit": "1/s"},
            "pass_frac": {"value": 1.0 - len(failures) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
        "notes": {"units": len(units), "ops": len(ops), "op_tail_pct": tail_pct,
                  "checks": checks, "measured_s": wall, "oracle_checked": o_checked,
                  "raw_op_p50_ms": p50_s * 1e3, "raw_op_tail_ms": tail_s * 1e3,
                  "raw_checks_per_s": checks / wall, "gauge_scale": scale,
                  "gauge_mean_ms": statistics.mean(wl.gauge.samples) * 1e3,
                  "gauge_samples": len(wl.gauge.samples)},
    }


def traced(wl, seed):
    for p in wl.probes:
        p.on()
    plain = wl.run_unit(0)
    for p in wl.probes:
        p.off()
    tracer = tracing.Tracer()
    pairs = tracing.install(tracer)
    for p in wl.probes:
        p.on()
    spanned = wl.run_unit(0, traced=True)
    for p in wl.probes:
        p.off()
    tracing.uninstall(pairs)
    o_checked, o_failures = wl.oracle_check(random.Random(f"oracle/{seed}"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = tracing.import_breakdown(sys.executable, env)
    snap = spanned["snapshot"] or tracer.snapshot()
    failures = plain["failures"] + spanned["failures"] + o_failures
    return {
        "attempted": plain["checks"] + spanned["checks"] + o_checked,
        "failed": len(failures),
        "failures": failures[:8],
        "metrics": tracing.layer_metrics(snap, imports, plain["wall"], spanned["wall"]),
        "notes": {"ops": len(spanned["ops"]), "oracle_checked": o_checked},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import tuttezero
    import tuttezero.verify
    import tuttezero.zeros

    if Path(tuttezero.__file__).resolve().parent != SRC / "tuttezero":
        raise SystemExit(f"imported tuttezero from {tuttezero.__file__}, not {SRC}")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](tuttezero, args.seed, str(workdir))
    wl.gauge = NoGauge() if args.trace else wl.make_gauge()
    try:
        wl.setup()
        ready = time.monotonic()
        setup_gauge = spawn_gauge()
        setup_gauge.burst(SETUP_GAUGE_BURST)
        if args.setup_only:
            out = {}
        elif args.trace:
            out = traced(wl, args.seed)
        else:
            out = untraced(wl, args.seconds, args.seed)
        out["ready"] = ready
        out["setup_gauge_scale"] = setup_gauge.scale()
        out["inputs_sha256"] = inputs.digest(wl.inputs())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
