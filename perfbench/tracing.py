"""Layer spans installed from outside the package, and the per-layer table.

A span wraps one public function of a tuttezero module.  Because modules
bind each other's functions with ``from .x import f``, a wrapper must
replace every binding of the function object, not only the one in its home
module; ``install`` walks every loaded tuttezero module for that reason.
Spans nest through a stack, so a span's self time is its duration minus
the time covered by the spans it caused.  Only aggregates are kept.

This module imports nothing from tuttezero at import time, so the traced
CLI child can load it before timing the package import.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
from time import perf_counter

# (module, function) pairs wrapped by a span; the span name drops the
# leading underscore of _kernels.
SPAN_TARGETS = (
    ("graph", "load_graph"),
    ("cli", "main"),
    ("tutte", "z_polynomial"),
    ("tutte", "connected_by_support"),
    ("_kernels", "z_coefficients"),
    ("_kernels", "connected_by_support"),
    ("zeros", "q_roots"),
    ("zeros", "analyze"),
    ("bounds", "graph_bounds"),
    ("bounds", "f_lambda_variational"),
    ("polymer", "polymer_profile"),
    ("polymer", "tutte_polymer_weights"),
    ("polymer", "polymer_partition"),
    ("families", "connected_simple_structures"),
    ("families", "connected_multigraph_structures"),
    ("verify", "verify_zero_free"),
    ("verify", "verify_polymer_identity"),
)

# name, unit, better, and the end-to-end metric (workload) it should move
_IMP = "op_p50_ms (cli-analyze), setup_s (all); not checks_per_s"
_TUT = "checks_per_s (sweep-polymer), op_p50_ms (analyze-wide)"
_KER = "checks_per_s (sweep-polymer), op_tail_ms (analyze-wide); not cli-analyze"
_ZER = "checks_per_s (sweep-zero-free), op_p50_ms (analyze-wide)"
_BND = "checks_per_s (sweep-zero-free)"
_POL = "checks_per_s (sweep-polymer)"
LAYER_METRICS = (
    ("import.total_ms", "ms", "lower", _IMP),
    ("import.scipy_ms", "ms", "lower", _IMP),
    ("import.networkx_ms", "ms", "lower", _IMP),
    ("import.numpy_ms", "ms", "lower", _IMP),
    ("graph.load_graph.self_ms", "ms", "lower", "op_p50_ms (cli-analyze)"),
    ("cli.main.self_ms", "ms", "lower", "op_p50_ms (cli-analyze)"),
    ("tutte.z_polynomial.calls", "count", "lower", _TUT),
    ("tutte.z_polynomial.self_ms", "ms", "lower", _TUT),
    ("tutte.connected_by_support.calls", "count", "lower", _TUT),
    ("tutte.connected_by_support.self_ms", "ms", "lower", _TUT),
    ("kernels.z_coefficients.ms", "ms", "lower", _KER),
    ("kernels.connected_by_support.ms", "ms", "lower", _KER),
    ("kernels.edge_subsets", "count", "lower", _KER),
    ("kernels.vertex_subset_pairs", "count", "lower", _KER),
    ("kernels.subsets_per_s", "1/s", "higher", _KER),
    ("zeros.q_roots.calls", "count", "lower", _ZER),
    ("zeros.q_roots.self_ms", "ms", "lower", _ZER),
    ("zeros.analyze.self_ms", "ms", "lower", _ZER),
    ("bounds.graph_bounds.calls", "count", "lower", _BND),
    ("bounds.graph_bounds.self_ms", "ms", "lower", _BND),
    ("bounds.f_lambda_variational.calls", "count", "lower", _BND),
    ("bounds.f_lambda_variational.ms", "ms", "lower", _BND),
    ("polymer.polymer_profile.self_ms", "ms", "lower", _POL),
    ("polymer.tutte_polymer_weights.self_ms", "ms", "lower", _POL),
    ("polymer.polymer_partition.self_ms", "ms", "lower", _POL),
    ("polymer.csupp_calls_per_graph", "calls/graph", "lower", _POL),
    ("families.connected_simple_structures.calls", "count", "lower", _BND),
    ("families.connected_simple_structures.ms", "ms", "lower", _BND),
    ("families.connected_multigraph_structures.ms", "ms", "lower", _POL),
    ("verify.verify_zero_free.self_ms", "ms", "lower", _BND),
    ("verify.verify_polymer_identity.self_ms", "ms", "lower", _POL),
    ("trace.untraced_pass_ms", "ms", "lower", "base of trace.overhead_pct"),
    ("trace.traced_pass_ms", "ms", "lower", "base of trace.unattributed_ms"),
    ("trace.overhead_pct", "%", "lower", "nothing: the cost of the spans themselves"),
    ("trace.unattributed_ms", "ms", "lower", "time outside every span, same workload"),
)

IMPORT_PACKAGES = ("scipy", "networkx", "numpy")


def span_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Aggregated spans: per name [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.edge_subsets = 0
        self.vertex_subset_pairs = 0
        self.csupp_graphs: set = set()
        self.top_s = 0.0
        self._stack: list[float] = []

    def wrap(self, name, fn, on_call=None):
        stack = self._stack
        st = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - child

        return traced

    def _count_kernel(self, args):
        n, edges = args[0], args[1]
        self.edge_subsets += 1 << len(edges)
        self.vertex_subset_pairs += 3 ** n

    def _count_graph(self, args):
        g = args[0]
        self.csupp_graphs.add((g.n, g.edges))

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "edge_subsets": self.edge_subsets,
            "vertex_subset_pairs": self.vertex_subset_pairs,
            "csupp_graphs": len(self.csupp_graphs),
            "top_s": self.top_s,
        }


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tuttezero" or name.startswith("tuttezero."))]


def rebind(orig, replacement) -> int:
    """Point every tuttezero binding of orig at replacement; count them."""
    hits = 0
    for mod in _package_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> list:
    """Wrap every SPAN_TARGETS function; return (orig, wrapper) pairs."""
    for module, _ in SPAN_TARGETS:
        importlib.import_module(f"tuttezero.{module}")
    hooks = {
        "kernels.z_coefficients": tracer._count_kernel,
        "kernels.connected_by_support": tracer._count_kernel,
        "tutte.connected_by_support": tracer._count_graph,
    }
    pairs = []
    for module, func in SPAN_TARGETS:
        name = span_name(module, func)
        orig = getattr(sys.modules[f"tuttezero.{module}"], func)
        wrapper = tracer.wrap(name, orig, hooks.get(name))
        if rebind(orig, wrapper) == 0:
            raise RuntimeError(f"no binding found for {name}")
        pairs.append((orig, wrapper))
    return pairs


def uninstall(pairs) -> None:
    for orig, wrapper in pairs:
        rebind(wrapper, orig)


def merge_snapshots(snaps) -> dict:
    """Sum snapshots from several processes (distinct graphs are summed)."""
    out = {"stats": {}, "edge_subsets": 0, "vertex_subset_pairs": 0,
           "csupp_graphs": 0, "top_s": 0.0}
    for s in snaps:
        for name, (calls, total, own) in s["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key in ("edge_subsets", "vertex_subset_pairs", "csupp_graphs", "top_s"):
            out[key] += s[key]
    return out


def import_breakdown(python: str, env: dict, runs: int = 3) -> dict[str, float]:
    """Median import cost of tuttezero from `python -X importtime`, in ms.

    total is the cumulative time of the top-level tuttezero import; each
    package figure sums the self time of that package's own modules, so
    the three packages and the rest partition the total.
    """
    samples: dict[str, list[float]] = {"total": []}
    for pkg in IMPORT_PACKAGES:
        samples[pkg] = []
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import tuttezero"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        sums = dict.fromkeys(IMPORT_PACKAGES, 0)
        total = None
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, module = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue
            name = module.strip()
            if name == "tuttezero":
                total = int(cumulative)
            top = name.split(".", 1)[0]
            if top in sums:
                sums[top] += int(own)
        if total is None:
            raise RuntimeError("import probe printed no tuttezero line")
        samples["total"].append(total / 1000.0)
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(sums[pkg] / 1000.0)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def layer_metrics(snap: dict, imports: dict, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metric values of one traced pass, keyed by name."""
    st = snap["stats"]

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def total_ms(name):
        return st.get(name, [0, 0.0, 0.0])[1] * 1e3

    def self_ms(name):
        return st.get(name, [0, 0.0, 0.0])[2] * 1e3

    kernel_s = (total_ms("kernels.z_coefficients") + total_ms("kernels.connected_by_support")) / 1e3
    graphs = snap["csupp_graphs"]
    values = {
        "import.total_ms": imports["total"],
        "import.scipy_ms": imports["scipy"],
        "import.networkx_ms": imports["networkx"],
        "import.numpy_ms": imports["numpy"],
        "graph.load_graph.self_ms": self_ms("graph.load_graph"),
        "cli.main.self_ms": self_ms("cli.main"),
        "tutte.z_polynomial.calls": calls("tutte.z_polynomial"),
        "tutte.z_polynomial.self_ms": self_ms("tutte.z_polynomial"),
        "tutte.connected_by_support.calls": calls("tutte.connected_by_support"),
        "tutte.connected_by_support.self_ms": self_ms("tutte.connected_by_support"),
        "kernels.z_coefficients.ms": total_ms("kernels.z_coefficients"),
        "kernels.connected_by_support.ms": total_ms("kernels.connected_by_support"),
        "kernels.edge_subsets": snap["edge_subsets"],
        "kernels.vertex_subset_pairs": snap["vertex_subset_pairs"],
        "kernels.subsets_per_s": snap["edge_subsets"] / kernel_s if kernel_s > 0 else 0.0,
        "zeros.q_roots.calls": calls("zeros.q_roots"),
        "zeros.q_roots.self_ms": self_ms("zeros.q_roots"),
        "zeros.analyze.self_ms": self_ms("zeros.analyze"),
        "bounds.graph_bounds.calls": calls("bounds.graph_bounds"),
        "bounds.graph_bounds.self_ms": self_ms("bounds.graph_bounds"),
        "bounds.f_lambda_variational.calls": calls("bounds.f_lambda_variational"),
        "bounds.f_lambda_variational.ms": total_ms("bounds.f_lambda_variational"),
        "polymer.polymer_profile.self_ms": self_ms("polymer.polymer_profile"),
        "polymer.tutte_polymer_weights.self_ms": self_ms("polymer.tutte_polymer_weights"),
        "polymer.polymer_partition.self_ms": self_ms("polymer.polymer_partition"),
        "polymer.csupp_calls_per_graph": (
            calls("tutte.connected_by_support") / graphs if graphs else 0.0),
        "families.connected_simple_structures.calls": calls("families.connected_simple_structures"),
        "families.connected_simple_structures.ms": total_ms("families.connected_simple_structures"),
        "families.connected_multigraph_structures.ms": total_ms(
            "families.connected_multigraph_structures"),
        "verify.verify_zero_free.self_ms": self_ms("verify.verify_zero_free"),
        "verify.verify_polymer_identity.self_ms": self_ms("verify.verify_polymer_identity"),
        "trace.untraced_pass_ms": untraced_s * 1e3,
        "trace.traced_pass_ms": traced_s * 1e3,
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "trace.unattributed_ms": (traced_s - snap["top_s"]) * 1e3,
    }
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
