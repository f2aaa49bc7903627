"""The package namespace is lazy, and the phase path never imports numpy.

``import infoscale`` loads no submodule; each public name is resolved from
its submodule on first access.  The ``cli`` handlers import what they use
when they run, so ``--help``, ``figure`` and ``phase`` finish without numpy.
Those checks run in a fresh interpreter, because this test session has
numpy loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infoscale

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs the CLI with the arguments it is given, then reports on stderr whether
# numpy was imported, whatever the exit.
PROBE = """
import sys
from infoscale.cli import main
try:
    main(sys.argv[1:])
finally:
    print("numpy imported:", "numpy" in sys.modules, file=sys.stderr)
"""


def _run(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


def test_import_loads_no_submodule():
    run = _run("-c", "import sys, infoscale; print(sorted(m for m in sys.modules "
                     "if m == 'numpy' or m.startswith('infoscale.')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _phase_args(tmp_path):
    q, p = tmp_path / "q.json", tmp_path / "p.json"
    q.write_text(json.dumps({"kind": "ising1d", "beta": 1.0, "J": 1.0}))
    p.write_text(json.dumps({"kind": "meanfield", "beta": 1.0, "J": 1.0}))
    return ["phase", "--q", str(q), "--p", str(p), "--sweep", "h",
            "--start", "-0.2", "--stop", "0.2", "--step", "0.1"]


@pytest.mark.parametrize("make_args", [
    lambda tmp_path: ["--help"],
    lambda tmp_path: ["figure", "2a"],
    lambda tmp_path: ["figure", "4a"],
    _phase_args,
], ids=["help", "figure-2a", "figure-4a", "phase"])
def test_phase_path_runs_without_numpy(tmp_path, make_args):
    run = _run("-c", PROBE, *make_args(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "numpy imported: False"
    assert run.stdout


def test_numpy_subcommands_still_import_it(tmp_path):
    p, f = tmp_path / "p.json", tmp_path / "f.json"
    p.write_text(json.dumps({"weights": [0.25, 0.75]}))
    f.write_text(json.dumps({"values": [-1.0, 1.0]}))
    run = _run("-c", PROBE, "goal-bound", "--p", str(p), "--q", str(p), "--observable", str(f))
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "numpy imported: True"


def test_every_public_name_is_its_module_attribute():
    assert len(infoscale.__all__) == 71
    for name in infoscale.__all__:
        module = importlib.import_module(f"infoscale.{infoscale._MODULE_OF[name]}")
        assert getattr(infoscale, name) is getattr(module, name), name
    assert set(infoscale.__all__) <= set(dir(infoscale))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        infoscale.not_a_name  # noqa: B018
    assert not hasattr(infoscale, "_private")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from infoscale import *", namespace)
    assert set(infoscale.__all__) <= set(namespace)
    assert namespace["xi_bounds"] is infoscale.goal_oriented.xi_bounds
