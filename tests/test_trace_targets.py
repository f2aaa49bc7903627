"""The benchmark's tracer wraps functions by name; each must still exist.

``perfbench/trace_job.py`` lists a target it cannot find as absent, and a
traced benchmark run with a declared metric absent is malformed.  Deleting or
renaming a traced function therefore fails here first.  The tracer is also
run on seven short jobs, to show that each job's wrappers fire.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACE_JOB = Path(__file__).resolve().parents[1] / "perfbench" / "trace_job.py"


def _load_trace_job():
    spec = importlib.util.spec_from_file_location("infoscale_trace_job", TRACE_JOB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACE_JOB = _load_trace_job()


@pytest.mark.parametrize(
    "span, module_name, attribute",
    _TRACE_JOB.TARGETS,
    ids=[f"{m}.{a}" for _, m, a in _TRACE_JOB.TARGETS],
)
def test_trace_target_resolves(span, module_name, attribute):
    assert _TRACE_JOB._resolve(module_name, attribute) is not None, (
        f"{span}: {module_name}.{attribute} is gone"
    )


def _phase2d_args(tmp_path):
    q, p = tmp_path / "q.json", tmp_path / "p.json"
    q.write_text(json.dumps({"kind": "ising2d", "beta": 1.0}))
    p.write_text(json.dumps({"kind": "meanfield", "beta": 1.0, "d": 2, "h": 0.02}))
    return ["phase", "--q", str(q), "--p", str(p), "--sweep", "beta",
            "--start", "0.3", "--stop", "0.5", "--step", "0.1"]


def _markov_args(tmp_path):
    p, q, g = tmp_path / "p.json", tmp_path / "q.json", tmp_path / "g.json"
    p.write_text(json.dumps({"rows": [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]}))
    q.write_text(json.dumps({"rows": [[0.4, 0.4, 0.2], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]]}))
    g.write_text(json.dumps({"values": [-1.0, 0.0, 1.0]}))
    return ["markov", "--p", str(p), "--q", str(q), "--observable", str(g), "--cheap"]


def _banded_args(tmp_path):
    # A 10-state tridiagonal ring: it mixes slowly under a tilt, so the
    # Perron power iteration falls back to the dense solve.
    n = 10
    p_rows, q_rows = [], []
    for i in range(n):
        p_row, q_row = [0.0] * n, [0.0] * n
        for k, j in enumerate((i - 1, i, i + 1)):
            p_row[j % n] = 1.0 + 0.1 * ((3 * i + k) % 7)
            q_row[j % n] = p_row[j % n] * (1.0 + 0.05 * ((i + 2 * k) % 3 - 1))
        p_rows.append([x / sum(p_row) for x in p_row])
        q_rows.append([x / sum(q_row) for x in q_row])
    p, q, g = tmp_path / "p.json", tmp_path / "q.json", tmp_path / "g.json"
    p.write_text(json.dumps({"rows": p_rows}))
    q.write_text(json.dumps({"rows": q_rows}))
    g.write_text(json.dumps({"values": [((7 * i) % 10) / 5.0 - 1.0 for i in range(n)]}))
    return ["markov", "--p", str(p), "--q", str(q), "--observable", str(g), "--cheap"]


def _gibbs_args(tmp_path):
    # Nearest and next-nearest pairs and a field, as in the benchmark's chain jobs.
    phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
    for path, k in ((phi, -0.1), (psi, -0.25)):
        path.write_text(json.dumps({"d": 1, "clusters": [
            {"offsets": [[0], [1]], "type": "pair_product", "coeff": -0.4},
            {"offsets": [[0], [2]], "type": "pair_product", "coeff": k},
            {"offsets": [[0]], "type": "field", "coeff": -0.05},
        ]}))
    return ["gibbs", "--phi", str(phi), "--psi", str(psi), "--n", "2"]


def _gibbs_square_args(tmp_path):
    # A 3x3 box, as in the benchmark's square job: the enumerated measure.
    phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
    for path, j in ((phi, -0.3), (psi, -0.45)):
        path.write_text(json.dumps({"d": 2, "clusters": [
            {"offsets": [[0, 0], [1, 0]], "type": "pair_product", "coeff": j},
            {"offsets": [[0, 0], [0, 1]], "type": "pair_product", "coeff": j},
            {"offsets": [[0, 0]], "type": "field", "coeff": -0.05},
        ]}))
    return ["gibbs", "--phi", str(phi), "--psi", str(psi), "--n", "1"]


@pytest.mark.parametrize("make_args, spans", [
    (lambda tmp_path: ["figure", "2a"], {"optimize.minimize", "exact_models.phase_point"}),
    (_phase2d_args, {"jsonio.load", "quadrature.simpson", "exact_models.phase_point"}),
    (_markov_args, {"jsonio.load", "markov.perron", "goal_oriented.xi_bounds"}),
    (lambda tmp_path: [*_markov_args(tmp_path), "--enumerate", "4"],
     {"markov.path_enum", "markov.perron"}),
    (_banded_args, {"markov.perron", "numpy.eigvals", "optimize.minimize"}),
    # A chain takes the transfer route, which builds no enumerated measure.
    (_gibbs_args, {"gibbs.xi", "gibbs.log_partition", "goal_oriented.cgf"}),
    (_gibbs_square_args, {"gibbs.measure", "gibbs.xi", "gibbs.log_partition"}),
], ids=["figure-2a", "phase-2d", "markov-cheap", "markov-enumerate", "markov-banded",
        "gibbs-nnn", "gibbs-square"])
def test_traced_job_fires_its_spans(tmp_path, make_args, spans):
    # The CLI imports a subcommand's modules inside its handler, after the
    # tracer has wrapped them; the wrappers must still be what runs.
    out = tmp_path / "spans.json"
    run = subprocess.run(
        [sys.executable, str(TRACE_JOB), str(out), "--", *make_args(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    trace = json.loads(out.read_text())
    assert trace["absent"] == []
    assert trace["unbound"] == []
    fired = {span[0] for span in trace["spans"]}
    assert spans <= fired, spans - fired
    # The dense fallback runs inside a Perron solve.
    names = [span[0] for span in trace["spans"]]
    for name, _, _, parent in trace["spans"]:
        if name == "numpy.eigvals":
            assert parent >= 0 and names[parent] == "markov.perron"
    # The root solve for c* takes at most 12 objective evaluations per
    # minimization on average.
    evals = [trace["attrs"][str(i)]["evals"]
             for i, name in enumerate(names) if name == "optimize.minimize"]
    if evals:
        assert sum(evals) / len(evals) <= 12.0, evals
