"""The package namespace is lazy, and each CLI process loads only what its
subcommand runs.

``import infoscale`` loads no submodule; each public name is resolved from
its submodule on first access.  The ``cli`` handlers import what they use
when they run: ``--help`` loads no model layer and no ``logging``,
``figure`` and ``phase`` finish without numpy, and the numpy subcommands
load neither the sweep nor the exact models.  Those checks run in a fresh
interpreter, because this test session has all of it loaded already.
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

# Runs the CLI with the arguments it is given, then reports on stderr the
# modules loaded and whether numpy was imported, whatever the exit.
PROBE = """
import sys
from infoscale.cli import main
try:
    main(sys.argv[1:])
finally:
    print("modules:", *sorted(sys.modules), file=sys.stderr)
    print("numpy imported:", "numpy" in sys.modules, file=sys.stderr)
"""

# The layers of the phase path, which only ``phase`` and ``figure`` load.
SWEEP_LAYERS = {"infoscale.exact_models", "infoscale.quadrature", "infoscale.sweep"}


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


def _loaded(run) -> set[str]:
    """The modules the PROBE reported, after a successful run."""
    assert run.returncode == 0, run.stderr
    line = run.stderr.splitlines()[-2]
    assert line.startswith("modules: ")
    return set(line.split()[1:])


@pytest.mark.parametrize("make_args", [
    lambda tmp_path: ["--help"],
    lambda tmp_path: ["figure", "2a"],
    lambda tmp_path: ["figure", "4a"],
    _phase_args,
], ids=["help", "figure-2a", "figure-4a", "phase"])
def test_phase_path_runs_without_numpy(tmp_path, make_args):
    args = make_args(tmp_path)
    run = _run("-c", PROBE, *args)
    loaded = _loaded(run)
    assert run.stderr.splitlines()[-1] == "numpy imported: False"
    assert run.stdout
    if args == ["--help"]:
        assert not loaded & {"logging", "numpy", "infoscale.goal_oriented", *SWEEP_LAYERS}
    else:
        assert {"logging", "infoscale.goal_oriented", *SWEEP_LAYERS} <= loaded


def _numpy_args(tmp_path, command):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    if command == "gibbs":
        phi = write("phi.json", {"d": 1, "clusters": [{"offsets": [[0], [1]], "coeff": -0.5}]})
        psi = write("psi.json", {"d": 1, "clusters": [{"offsets": [[0]], "coeff": 0.1}]})
        return ["gibbs", "--phi", phi, "--psi", psi, "--n", "2"]
    f = write("f.json", {"values": [-1.0, 1.0]})
    if command == "markov":
        p = write("p.json", {"rows": [[0.5, 0.5], [0.25, 0.75]]})
        q = write("q.json", {"rows": [[0.4, 0.6], [0.3, 0.7]]})
    else:
        p = write("p.json", {"weights": [0.25, 0.75]})
        q = write("q.json", {"weights": [0.5, 0.5]})
    return [command, "--p", p, "--q", q, "--observable", f]


def test_numpy_subcommands_still_import_it(tmp_path):
    # ... and none of them loads the sweep layers or logging.  The path
    # transfer that Markov paths and Gibbs chains share lives in
    # divergences, so markov loads no gibbs and gibbs no markov.  Nor does
    # any load numpy.ma, which np.unique without return_inverse imports in
    # numpy 2.4, at 11-17 ms a job.
    others = {"markov": {"infoscale.gibbs"}, "gibbs": {"infoscale.markov"}}
    for command in ("divergence", "goal-bound", "markov", "gibbs"):
        run = _run("-c", PROBE, *_numpy_args(tmp_path, command))
        loaded = _loaded(run)
        assert run.stderr.splitlines()[-1] == "numpy imported: True", command
        assert json.loads(run.stdout), command
        forbidden = {"logging", "numpy.ma", *SWEEP_LAYERS, *others.get(command, ())}
        assert not loaded & forbidden, command


def test_every_public_name_is_its_module_attribute():
    assert len(infoscale.__all__) == 67
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
