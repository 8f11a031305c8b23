"""Command-line front end.

Commands: analyze, constants, verify-penrose, verify-inequalities,
verify-polymer, examples.  Output is JSON (default) or CSV on standard
output, byte-stable for fixed seed and inputs; timing fields are
stripped for that reason.  Each subcommand accepts only the flags it
reads.  Exit codes: 0 success, 1 a verification sweep ran and failed (the
failing instances are serialized), 2 a usage or input error, including a
typed numerical failure on the given input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bounds import f_lambda_variational, g_ratio, kstar_lambda, kstar_psi, sokal_K
from .errors import TutteZeroError
from .graph import load_graph
from .tutte import MAX_ENUM_EDGES as HARD_MAX_EDGES
from .tutte import MAX_SUPPORT_VERTICES as HARD_MAX_VERTICES
from .zeros import analyze, example_suite


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(_strip_timing(obj), sort_keys=True, indent=2) + "\n")


def _emit_csv(header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _kv_rows(prefix: str, value):
    """(dotted key, value) rows of a JSON object, keys sorted at each level;
    a list is one row, its value serialized as JSON."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _kv_rows(f"{prefix}.{k}" if prefix else str(k), value[k])
    elif isinstance(value, list):
        yield [prefix, json.dumps(value, sort_keys=True)]
    else:
        yield [prefix, value]


def _cap(value: int | None, flag: str, hard: int) -> int | None:
    if value is not None and not 1 <= value <= hard:
        raise SystemExit(_usage(f"{flag} must be in 1..{hard}"))
    return value


def _usage(msg: str) -> int:
    sys.stderr.write(f"tuttezero: error: {msg}\n")
    return 2


def _finish_verify(results: list[dict], args) -> int:
    report = {"seed": args.seed, "results": results,
              "passed": all(r["passed"] for r in results)}
    if args.output_format == "csv":
        _emit_csv(["name", "passed", "checked", "failure_count", "failures"],
                  ([r["name"], r["passed"], r["checked"], r.get("failure_count", 0),
                    json.dumps(r.get("failures", []))] for r in results))
    else:
        _emit_json(report)
    return 0 if report["passed"] else 1


def _cmd_analyze(args) -> int:
    if not args.input:
        return _usage("analyze requires --input PATH")
    mv = _cap(args.max_vertices, "--max-vertices", HARD_MAX_VERTICES)
    me = _cap(args.max_edges, "--max-edges", HARD_MAX_EDGES)
    if args.a is not None and not 0.0 <= args.a <= 1.0:
        return _usage("--a must be in [0, 1]")
    try:
        g = load_graph(args.input)
    except OSError as exc:
        return _usage(f"cannot read {args.input}: {exc}")
    except (TutteZeroError, ValueError, RecursionError) as exc:
        return _usage(f"bad graph input: {exc}")
    if g.n > (mv or HARD_MAX_VERTICES) or g.m > (me or HARD_MAX_EDGES):
        return _usage(
            f"graph size {g.n} vertices / {g.m} edges exceeds the cap "
            f"({mv or HARD_MAX_VERTICES} / {me or HARD_MAX_EDGES})"
        )
    rep = analyze(g)
    out = rep.to_json()
    out["seed"] = args.seed
    if args.a is not None:
        r = rep.bounds.radius_interpolated
        out["radius_interpolated_at_a"] = None if r is None else r(args.a)
    if args.output_format == "csv":
        _emit_csv(["key", "value"], _kv_rows("", _strip_timing(out)))
    else:
        _emit_json(out)
    return 0


def _cmd_constants(args) -> int:
    if args.psi <= 0:
        return _usage("--psi must be positive")
    if not 0.0 <= args.lam <= 1.0:
        return _usage("--lambda must be in [0, 1]")
    if args.beta <= 0:
        return _usage("--beta must be positive")
    out = {
        "seed": args.seed,
        "psi": args.psi,
        "lambda": args.lam,
        "beta": args.beta,
        "K": sokal_K(),
        "kstar_psi": kstar_psi(args.psi),
        "kstar_lambda": kstar_lambda(args.lam),
        "f_lambda_beta": f_lambda_variational(args.lam, args.beta),
        "g_ratio": g_ratio(args.lam) if args.lam > 0 else None,
    }
    if args.output_format == "csv":
        _emit_csv(["key", "value"], _kv_rows("", _strip_timing(out)))
    else:
        _emit_json(out)
    return 0


# The sweeps import verify (and through it penrose, polymer, counting and
# families) only when they run, so a cold `analyze` never loads them.

def _sweep_cap(args) -> int | None:
    """--max-vertices of a sweep, capped at the atlas before any sweep runs."""
    from .families import ATLAS_MAX_VERTICES

    return _cap(args.max_vertices, "--max-vertices", ATLAS_MAX_VERTICES)


def _cmd_verify_penrose(args) -> int:
    from .verify import verify_penrose_chains, verify_penrose_partition

    mv = _sweep_cap(args)
    results = [
        verify_penrose_partition(mv or 6),
        verify_penrose_chains(min(mv or 5, 5), draws=100, seed=args.seed),
    ]
    return _finish_verify(results, args)


def _cmd_verify_inequalities(args) -> int:
    from .verify import (
        verify_constants,
        verify_counting,
        verify_f_properties,
        verify_f_routes,
        verify_parallel_reduction,
    )

    mv = _sweep_cap(args)
    results = [
        verify_constants(),
        verify_f_routes(),
        verify_f_properties(),
        verify_parallel_reduction(seed=args.seed),
        verify_counting(mv or 6, seed=args.seed),
    ]
    return _finish_verify(results, args)


def _cmd_verify_polymer(args) -> int:
    from .verify import verify_gkfp_pair, verify_polymer_identity

    mv = _sweep_cap(args)
    results = [
        verify_polymer_identity(mv or 7, min(mv or 4, 4), seed=args.seed),
        verify_gkfp_pair(),
    ]
    return _finish_verify(results, args)


def _cmd_examples(args) -> int:
    suite = example_suite(args.seed)
    if args.output_format == "csv":
        rows = []
        for rec in suite:
            rep = rec["report"]
            rows.append([
                rec["name"], rep["n"], rep["m"], rep["q_max"],
                rep["bounds"]["radius_general"], rep["bounds"]["radius_simple"],
                rep["general_disc_verified"], rep["simple_disc_verified"],
                json.dumps(_strip_timing(rec["commentary"]), sort_keys=True),
            ])
        _emit_csv(["name", "n", "m", "q_max", "radius_general", "radius_simple",
                   "general_disc_verified", "simple_disc_verified", "commentary"], rows)
    else:
        _emit_json({"seed": args.seed, "examples": suite})
    return 0


_SWEEP_FLAGS = ("--max-vertices", "--seed", "--format")

# subcommand -> (handler, the flags it reads)
_COMMANDS = {
    "analyze": (_cmd_analyze, ("--input", "--seed", "--max-vertices", "--max-edges",
                               "--a", "--format")),
    "constants": (_cmd_constants, ("--psi", "--lambda", "--beta", "--seed", "--format")),
    "verify-penrose": (_cmd_verify_penrose, _SWEEP_FLAGS),
    "verify-inequalities": (_cmd_verify_inequalities, _SWEEP_FLAGS),
    "verify-polymer": (_cmd_verify_polymer, _SWEEP_FLAGS),
    "examples": (_cmd_examples, ("--seed", "--format")),
}

_FLAGS = {
    "--input": dict(metavar="PATH", help="graph file (JSON or edge list)"),
    "--seed": dict(type=int, default=0, metavar="N"),
    "--max-vertices": dict(type=int, default=None, metavar="N"),
    "--max-edges": dict(type=int, default=None, metavar="N"),
    "--psi": dict(type=float, default=1.0, metavar="X"),
    "--lambda": dict(dest="lam", type=float, default=1.0, metavar="X"),
    "--beta": dict(type=float, default=1.0, metavar="X"),
    "--format": dict(dest="output_format", choices=("json", "csv"), default="json"),
    "--a": dict(type=float, default=None, metavar="X",
                help="interpolation parameter in [0, 1]"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuttezero",
        description="Partition-function zeros of small weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command][0](args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except TutteZeroError as exc:
        code = _usage(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
