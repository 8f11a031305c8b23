import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tuttezero


def test_all_names_resolve_once():
    names = tuttezero.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(tuttezero, name)]
    assert missing == []


def test_star_import():
    ns: dict = {}
    exec("from tuttezero import *", ns)
    assert set(tuttezero.__all__) <= ns.keys()


def test_names_are_their_home_module_objects():
    for name in tuttezero.__all__:
        obj = getattr(tuttezero, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name


def test_dir_lists_every_public_name():
    assert set(tuttezero.__all__) <= set(dir(tuttezero))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        tuttezero.no_such_name


def test_lazy_names_resolve_in_a_fresh_interpreter():
    # in this process the sweep modules are loaded already; a fresh one
    # resolves their names through the package's __getattr__
    script = (
        "import sys, tuttezero\n"
        "assert 'tuttezero.verify' not in sys.modules\n"
        "from tuttezero import *\n"
        "missing = [n for n in tuttezero.__all__ if n not in globals()]\n"
        "assert missing == [], missing\n"
        "assert tuttezero.families.cycle_graph and tuttezero.verify.verify_zero_free\n"
    )
    src = str(Path(tuttezero.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
