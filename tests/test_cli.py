import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuttezero
from tuttezero import analyze, families
from tuttezero.cli import main


@pytest.fixture
def k2_file(tmp_path):
    p = tmp_path / "k2.txt"
    p.write_text("0 1 1000 0\n")
    return str(p)


@pytest.fixture
def k2_json_file(tmp_path):
    p = tmp_path / "k2.json"
    p.write_text(json.dumps({
        "vertices": [0, 1],
        "edges": [{"u": 0, "v": 1, "w": [1000.0, 0.0]}],
    }))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so stderr holds exactly what a user sees."""
    src = str(Path(tuttezero.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "default", "-m", "tuttezero.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_constants_default(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["kstar_psi"] - 6.907651697774449) < 1e-12
    assert abs(blob["K"] - 7.963906075890002) < 1e-12
    assert blob["seed"] == 0


def test_constants_flags(capsys):
    code, out, _ = run_cli(capsys, "constants", "--psi", "4", "--lambda", "0.5",
                           "--beta", "2.0")
    assert code == 0
    blob = json.loads(out)
    assert blob["psi"] == 4.0 and blob["lambda"] == 0.5 and blob["beta"] == 2.0
    assert blob["kstar_psi"] > blob["f_lambda_beta"] > 0


def test_constants_at_extreme_psi_and_beta(capsys):
    # F_1(beta) -> e as beta grows; Kstar(psi) -> e psi^{1/2} as psi -> 0
    code, out, _ = run_cli(capsys, "constants", "--psi", "1e-40", "--lambda", "1",
                           "--beta", "1e20")
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["f_lambda_beta"] / math.e - 1) < 1e-12
    assert abs(blob["kstar_psi"] / (math.e * 1e-20) - 1) < 1e-12


def test_constants_rejects_bad_psi(capsys):
    code, _, err = run_cli(capsys, "constants", "--psi", "-1")
    assert code == 2
    assert "psi" in err


def test_analyze_json(capsys, k2_file):
    code, out, _ = run_cli(capsys, "analyze", "--input", k2_file)
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 2 and blob["m"] == 1
    assert blob["q_max"] == 1000.0
    assert blob["general_disc_verified"] is True
    assert "elapsed" not in json.dumps(blob)


def test_analyze_json_graph_input(capsys, k2_json_file):
    code, out, _ = run_cli(capsys, "analyze", "--input", k2_json_file)
    assert code == 0
    blob = json.loads(out)
    assert blob["q_max"] == 1000.0


def test_analyze_interpolation_flag(capsys, k2_file):
    code, out, _ = run_cli(capsys, "analyze", "--input", k2_file, "--a", "1.0")
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["radius_interpolated_at_a"] - blob["bounds"]["radius_simple"]) < 1e-6


@pytest.mark.parametrize("a", ["1.5", "-0.5"])
def test_analyze_rejects_a_before_the_analysis(capsys, monkeypatch, k2_file, a):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before --a was checked")

    monkeypatch.setattr("tuttezero.cli.load_graph", forbidden)
    monkeypatch.setattr("tuttezero.cli.analyze", forbidden)
    code, out, err = run_cli(capsys, "analyze", "--input", k2_file, "--a", a)
    assert code == 2
    assert out == ""
    assert "--a must be in [0, 1]" in err


def test_analyze_csv(capsys, k2_file):
    code, out, _ = run_cli(capsys, "analyze", "--input", k2_file, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("q_max,") for line in out.splitlines())


def test_analyze_missing_input(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2
    assert "input" in err


def test_analyze_unreadable_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.txt"))
    assert code == 2


def test_analyze_cap_exceeded(capsys, tmp_path):
    lines = []
    for u in range(13):
        lines.append(f"{u} {(u + 1) % 14} 1 0")
    # one huge index: rejected before a label per vertex is built
    for text in ("\n".join(lines) + "\n", f"0 {10**12} 1 0\n"):
        p = tmp_path / "big.txt"
        p.write_text(text)
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "analyze", "--input", str(p))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "cap" in err


NON_FINITE = ["nan", "inf", "-inf"]
# (re, im) parts of the first edge's weight: one part non-finite, or
# both finite with a modulus that overflows
BAD_EDGE_WEIGHTS = ([pytest.param(bad, "0", id=f"{bad}-real") for bad in NON_FINITE]
                    + [pytest.param("1", bad, id=f"{bad}-imag") for bad in NON_FINITE]
                    + [pytest.param("1.7e308", "1.7e308", id="overflowing-modulus")])


@pytest.mark.parametrize("re, im", BAD_EDGE_WEIGHTS)
def test_analyze_rejects_non_finite_edge_list(capsys, tmp_path, re, im):
    p = tmp_path / "bad.txt"
    p.write_text(f"0 1 {re} {im}\n1 2 1 0\n")
    code, _, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_analyze_rejects_non_finite_json(capsys, tmp_path, bad, part):
    w = [float(bad), 0.0] if part == "real" else [1.0, float(bad)]
    p = tmp_path / "bad.json"
    # json.dumps writes NaN and Infinity, which json.loads reads back
    p.write_text(json.dumps({"vertices": [0, 1, 2],
                             "edges": [{"u": 0, "v": 1, "w": w},
                                       {"u": 1, "v": 2, "w": [1.0, 0.0]}]}))
    code, _, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert "non-finite" in err and "Traceback" not in err


def _json_edge(**fields):
    return {"vertices": [0, 1, 2],
            "edges": [dict({"u": 0, "v": 1, "w": [1.0, 0.0]}, **fields),
                      {"u": 1, "v": 2, "w": [1.0, 0.0]}]}


MALFORMED_JSON = {
    "edge-not-object": {"vertices": [0, 1], "edges": [5]},
    "w-one-part": _json_edge(w=[1]),
    "v-null": _json_edge(v=None),
    "vertices-not-list": {"vertices": 5, "edges": [{"u": 0, "v": 1, "w": [1.0, 0.0]}]},
    "w-string": _json_edge(w="x"),
    "edges-not-list": {"vertices": [0, 1], "edges": 5},
    "w-three-parts": _json_edge(w=[1, 2, 3]),
    "u-fractional": _json_edge(u=1.5),
}


@pytest.mark.parametrize("obj", [pytest.param(v, id=k) for k, v in MALFORMED_JSON.items()])
def test_analyze_rejects_malformed_json(capsys, tmp_path, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "tuttezero: error:" in err and "Traceback" not in err


def test_analyze_rejects_deeply_nested_json(capsys, tmp_path):
    # deeper than the JSON decoder's recursion limit
    p = tmp_path / "deep.json"
    p.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}')
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "tuttezero: error:" in err and "Traceback" not in err


def test_analyze_reads_plain_number_weight(capsys, tmp_path):
    p = tmp_path / "k2.json"
    p.write_text(json.dumps({"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "w": 1000}]}))
    code, out, _ = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 0
    assert json.loads(out)["q_max"] == 1000.0


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=6,
)
# mostly well-formed fields, so that the fuzz also gets past the first check
json_edges = json_values | st.fixed_dictionaries({
    "u": st.integers(-1, 3) | json_values,
    "v": st.integers(-1, 3) | json_values,
    "w": st.floats() | st.lists(st.floats(), max_size=3) | json_values,
})
json_graphs = st.fixed_dictionaries({
    "vertices": st.lists(st.integers(0, 9), max_size=4) | json_values,
    "edges": st.lists(json_edges, max_size=4) | json_values,
})


def _analyze_exit(data: bytes) -> int:
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "g"
        p.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["analyze", "--input", str(p)])


@settings(max_examples=150, deadline=None)
@given(obj=json_graphs)
def test_analyze_fuzz_json_values(obj):
    assert _analyze_exit(json.dumps(obj).encode()) in (0, 2)


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=64))
def test_analyze_fuzz_bytes(data):
    assert _analyze_exit(data) in (0, 2)


def test_import_and_analyze_load_only_core_modules(k2_file):
    """Neither `import tuttezero` nor the analyze path loads the sweep
    modules, fractions, scipy or networkx."""
    script = (
        "import json, sys\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m in ('tuttezero.verify', 'tuttezero.penrose', 'tuttezero.polymer',\n"
        "                           'tuttezero.counting', 'tuttezero.families', 'fractions')\n"
        "                  or m.startswith(('scipy', 'networkx')))\n"
        "import tuttezero\n"
        "after_import = heavy()\n"
        "from tuttezero.cli import main\n"
        f"code = main(['analyze', '--input', {k2_file!r}])\n"
        "sys.stderr.write(json.dumps({'code': code, 'import': after_import,\n"
        "                             'analyze': heavy()}))\n"
    )
    src = str(Path(tuttezero.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stderr.strip().splitlines()[-1])
    assert blob == {"code": 0, "import": [], "analyze": []}


def test_analyze_numerical_failure_is_input_error(capsys, tmp_path):
    # the weight overflows the root finder, which raises a typed error; a
    # triangle has no bridge, so its roots go through the root finder
    p = tmp_path / "huge.txt"
    p.write_text("0 1 1e200 1e200\n1 2 1 0\n0 2 1 0\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "tuttezero: error:" in err and "Traceback" not in err
    # the root finder stops at the first non-finite value; numpy says nothing
    proc = run_cli_process("analyze", "--input", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("tuttezero: error:")
    assert "RuntimeWarning" not in proc.stderr


def test_analyze_overflowing_coefficients_is_input_error(capsys, tmp_path):
    # each weight is finite, but their product, the q^1 coefficient, is not
    p = tmp_path / "product.txt"
    p.write_text("0 1 1e200 0\n1 2 1e200 0\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "tuttezero: error:" in err and "Traceback" not in err
    proc = run_cli_process("analyze", "--input", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("tuttezero: error:")
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


_OVERFLOW = "tuttezero: error: a partition-function coefficient overflows floating point"


@pytest.mark.parametrize("text, error", [
    ("0 1 1e200 0\n0 1 1e200 0\n", _OVERFLOW),   # the merged class overflows
    ("0 1 1e200 0\n0 1 -1e200 0\n", _OVERFLOW),
    # merges to a finite weight by cancellation; refused for the overflow
    # before the weight -1 makes psi infinite
    ("0 1 -1 0\n0 1 1e200 0\n0 1 1e200 0\n", _OVERFLOW),
    # one edge once merged, 25 as given
    ("0 1 0.5 0\n" * 25, "tuttezero: error: graph size 2 vertices / 25 edges exceeds"),
], ids=["overflow", "overflow-opposite", "overflow-cancelling", "edge-cap"])
def test_analyze_rejects_multigraphs_past_overflow_or_cap(capsys, tmp_path, text, error):
    p = tmp_path / "multi.txt"
    p.write_text(text)
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith(error)


def test_analyze_weight_1e40_has_finite_radii(capsys, tmp_path):
    # psi is 2e40 here; the disc constants used to divide by zero
    p = tmp_path / "big.txt"
    p.write_text("0 1 1e40 0\n1 2 1 0\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 0, err
    blob = json.loads(out)
    radii = [blob["bounds"]["radius_general"], blob["bounds"]["radius_simple"],
             *blob["bounds"]["radius_interpolated"].values()]
    assert all(math.isfinite(r) and r > 1e40 for r in radii)
    assert sorted(r[0] for r in blob["roots"]) == [-1e40, -1.0]


def test_analyze_non_finite_radius_is_input_error(capsys, tmp_path):
    # psi is finite here but Kstar(psi) and the general radius overflow;
    # a disc check against an infinite radius would hold vacuously
    p = tmp_path / "radius.txt"
    p.write_text("0 1 1e154 0\n0 1 1.2e154 1.2e154\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "tuttezero: error:" in err and "Traceback" not in err
    proc = run_cli_process("analyze", "--input", str(p))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("tuttezero: error:")
    assert len(proc.stderr.strip().splitlines()) == 1


# A bridgeless graph from a seeded scan of random connected graphs with
# weight moduli 10^U(-30, 30): over this spread of weights the eigenvalue
# solve loses a root, which the coefficient check catches.
SPREAD_BRIDGELESS = """\
0 1 -1.0939712996204034e+20 -1.1125680860980596e+20
1 2 -4.209457032630775e-24 -3.243219244295998e-24
1 3 2.8837307819106905e-24 1.1535292602328629e-24
1 4 -6.978725158408584e+18 -1.1121750531781962e+19
2 4 4.138391323048534e-13 -2.1095230173377034e-12
0 3 1.0459100200738826e-31 1.388906363989097e-29
2 3 7.179410542286882e-21 5.477534567936701e-21
"""


def test_analyze_lost_root_is_input_error(capsys, tmp_path):
    p = tmp_path / "spread.txt"
    p.write_text(SPREAD_BRIDGELESS)
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 2
    assert out == ""
    assert "tuttezero: error:" in err and "lost a root" in err and "Traceback" not in err


@pytest.mark.parametrize("text, weights", [
    ("0 1 8.6e29 0\n1 2 1.9e5 0\n2 3 1.5e-18 0\n3 4 2.2e-25 0\n", [8.6e29, 1.9e5, 1.5e-18, 2.2e-25]),
    ("0 1 1e300 0\n1 2 1 0\n", [1e300, 1.0]),
], ids=["widely_scaled_path", "path_1e300"])
def test_path_roots_are_exactly_the_negated_weights(capsys, tmp_path, text, weights):
    # every edge of a path is a bridge, a factor q + w_e of Z, so no root
    # goes through the eigenvalue solve
    p = tmp_path / "path.txt"
    p.write_text(text)
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code == 0, err
    assert sorted(json.loads(out)["roots"]) == sorted([-w, 0.0] for w in weights)


def test_analyze_weight_1e300_fails_cleanly(capsys, tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("0 1 1e300 0\n1 2 1 0\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(p))
    assert code in (0, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["examples", "--psi", "2"],
    ["verify-polymer", "--input", "f"],
    ["verify-penrose", "--max-edges", "5"],
    ["constants", "--max-vertices", "3"],
    ["analyze", "--input", "f", "--beta", "2"],
])
def test_unread_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_max_vertices_flag_validated(capsys):
    code, _, err = run_cli(capsys, "verify-penrose", "--max-vertices", "40")
    assert code == 2


@pytest.mark.parametrize("command", ["verify-penrose", "verify-inequalities", "verify-polymer"])
def test_sweep_max_vertices_past_the_atlas_is_refused_before_any_sweep(
        capsys, monkeypatch, command):
    from tuttezero import verify

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in dir(verify):
        if name.startswith("verify_"):
            monkeypatch.setattr(verify, name, forbidden)
    code, out, err = run_cli(capsys, command, "--max-vertices", "8")
    assert code == 2
    assert out == ""
    assert err == "tuttezero: error: --max-vertices must be in 1..7\n"


def test_verify_penrose_small(capsys):
    code, out, _ = run_cli(capsys, "verify-penrose", "--max-vertices", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    names = [r["name"] for r in blob["results"]]
    assert names == ["penrose_partition", "penrose_chains"]


def test_verify_polymer_small_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-polymer", "--max-vertices", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,passed,checked,failure_count,failures"
    assert len(lines) == 3


def test_examples_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "examples")
    code2, out2, _ = run_cli(capsys, "examples")
    assert code1 == code2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert blob["seed"] == 0
    assert len(blob["examples"]) == 8


def test_examples_csv_table(capsys):
    code, out, _ = run_cli(capsys, "examples", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("name,n,m,q_max")
    assert len(lines) == 9


def test_unknown_command_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "tuttezero.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_console_entry_end_to_end(k2_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tuttezero.cli", "analyze", "--input", k2_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q_max"] == 1000.0
    # in a fresh interpreter the roots and q_max equal in-process
    # analyze's exactly, after a JSON round trip
    rng = np.random.default_rng(7)
    for n, chords in ((8, 3), (9, 0), (10, 2), (12, 1)):
        pairs = [(int(rng.integers(k)), k) for k in range(1, n)]
        absent = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in pairs]
        pairs += [absent[i] for i in rng.choice(len(absent), chords, replace=False)]
        g = families.weighted((n, pairs), families.sample_weights(len(pairs), "mixed", rng))
        p = tmp_path / f"mixed{n}.txt"
        p.write_text("".join(f"{u} {v} {w.real!r} {w.imag!r}\n" for u, v, w in g.edges))
        proc = run_cli_process("analyze", "--input", str(p))
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        want = json.loads(json.dumps(analyze(g).to_json()))
        assert (got["roots"], got["q_max"]) == (want["roots"], want["q_max"]), n
