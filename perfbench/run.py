"""Benchmark of the tuttezero package: one command for every workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each exists):

    cli-analyze      cold `python -m tuttezero.cli analyze` subprocess calls
    sweep-zero-free  verify.verify_zero_free, simple structures to 5 vertices
    sweep-polymer    verify.verify_polymer_identity, multigraphs to 4 vertices
    analyze-wide     warm analyze(g) on sparse graphs of 8-12 vertices

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass.  The lines
before it print each metric by name and unit, what it should move, the
raw (unscaled) figures, and a record of the machine and inputs.  The
package is run from ./src; nothing is installed.  Every child process is
waited for.

End-to-end times are scaled to the speed of a quiet core by a gauge
workload timed in the same process (see worker.py), because the shared
machine's speed moves by up to 1.4x from minute to minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-analyze", "sweep-zero-free", "sweep-polymer", "analyze-wide")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; return (spawn time, its JSON result)."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {' '.join(args)} exited {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _version(pkg: str) -> str | None:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return None


def _record(workload, seed, seconds, trace, inputs_sha256) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tuttezero").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs_sha256": inputs_sha256,
        "python": platform.python_version(),
        "numba_present": _version("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            t_spawn, out = _worker(common + ["--setup-only"], deadline)
            setups.append((out["ready"] - t_spawn) * out["setup_gauge_scale"])
    t_spawn, out = _worker(common + ["--trace", str(trace)], deadline)
    setups.append((out["ready"] - t_spawn) * out["setup_gauge_scale"])
    metrics = dict(out["metrics"])
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
        "failures": out["failures"],
        "notes": {**out["notes"], "setup_samples_s": setups},
        "record": _record(workload, seed, seconds, trace, out["inputs_sha256"]),
    }


def _print_table(res: dict, trace: int) -> None:
    moves = {}
    if trace:
        sys.path.insert(0, str(HERE))
        import tracing
        moves = {name: why for name, _, _, why in tracing.LAYER_METRICS}
    rec = res["record"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={trace} "
          f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for name, m in res["metrics"].items():
        extra = f"  moves: {moves[name]}" if name in moves else ""
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"  fail_frac {res['failed'] / res['attempted']:.6g}")
    for f in res["failures"]:
        print(f"  failure: {f}")
    print("notes " + json.dumps(res["notes"], sort_keys=True))
    print("record " + json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tuttezero benchmark")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tuttezero" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {ROOT / 'src' / 'tuttezero'}\n")
        return 2
    for key in THREAD_VARS:
        os.environ[key] = "1"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_one(name, args.seed, args.seconds, args.trace)
        _print_table(res, args.trace)
        results.append(res)
    if len(results) == 1:
        res = results[0]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
