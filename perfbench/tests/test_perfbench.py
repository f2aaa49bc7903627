"""Tests of the benchmark's own code: inputs, checks, spans and at-cap counting.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run
import trace_job
import workloads

REFERENCE = run.HERE / "reference"


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    jobs_a = workloads.generate(workload, 7, tmp_path / "a")
    jobs_b = workloads.generate(workload, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [j.name for j in jobs_a] == [j.name for j in jobs_b]
    workloads.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_banded_chains_are_tridiagonal_rings():
    import random

    p, q = workloads.banded_pair(random.Random(3), 10, 4)
    for i in range(10):
        support = {j for j in range(10) if p[i][j] > 0}
        assert support == {(i - 1) % 10, i, (i + 1) % 10}
        assert support == {j for j in range(10) if q[i][j] > 0}
        assert abs(sum(p[i]) - 1.0) < 1e-12 and abs(sum(q[i]) - 1.0) < 1e-12


def _sweep(name: str) -> str:
    return (REFERENCE / f"{name}.csv").read_text()


def test_sweep_check_accepts_the_reference():
    text = _sweep("figure-3a")
    assert checks.check_sweep(text, 191, text, 1e-6) == (0, [])


def test_sweep_check_rejects_swapped_bounds():
    lines = _sweep("figure-3a").splitlines()
    fields = lines[50].split(",")
    fields[3], fields[4] = fields[4], fields[3]
    lines[50] = ",".join(fields)
    failed, messages = checks.check_sweep("\n".join(lines) + "\n", 191, None, 1e-6)
    assert failed == 1
    assert "outside" in messages[0]


def test_sweep_check_rejects_an_injected_nan_row():
    lines = _sweep("figure-2b").splitlines()
    param = lines[10].split(",")[0]
    lines[10] = ",".join([param] + ["nan"] * 7)
    text = "\n".join(lines) + "\n"
    assert checks.check_sweep(text, 301, None, 1e-6)[0] == 1
    assert checks.check_sweep(text, 301, _sweep("figure-2b"), 1e-6)[0] == 1


def test_sweep_check_counts_missing_rows_and_reference_drift():
    lines = _sweep("figure-5a").splitlines()
    assert checks.check_sweep("\n".join(lines[:-2]) + "\n", 191, None, 1e-6)[0] == 2
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) + 1e-4)
    lines[5] = ",".join(fields)
    assert checks.check_sweep("\n".join(lines) + "\n", 191, _sweep("figure-5a"), 1e-6)[0] >= 1


def test_markov_check_rejects_xi_plus_below_the_gap():
    text = (REFERENCE / "seed-1" / "banded-n10.json").read_text()
    assert checks.check_report("markov", text, {}, text, 1e-6) == (0, [])
    report = json.loads(text)
    report["xi_plus"] = report["stationary_gap"] - 0.01
    failed, messages = checks.check_report("markov", json.dumps(report), {}, None, 1e-6)
    assert failed == 1
    assert any("stationary_gap outside" in m for m in messages)


def test_gibbs_check_rejects_a_wrong_site_count():
    text = (REFERENCE / "seed-1" / "square-n1.json").read_text()
    assert checks.check_report("gibbs", text, {"num_sites": 9}, None, 1e-6)[0] == 0
    assert checks.check_report("gibbs", text, {"num_sites": 17}, None, 1e-6)[0] == 1


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        layers.Span("root", 0.0, 10.0, -1, "j"),
        layers.Span("a", 1.0, 4.0, 0, "j"),
        layers.Span("a.child", 2.0, 3.0, 1, "j"),
        layers.Span("b", 5.0, 9.0, 0, "j"),
        layers.Span("b.child", 5.5, 6.5, 3, "j"),
        layers.Span("b.child", 6.0, 7.0, 3, "j"),  # overlaps its sibling
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 1.0])


def test_layer_totals_do_not_count_recursion_twice():
    spans = [
        layers.Span("quadrature.simpson", 0.0, 4.0, -1, "j"),
        layers.Span("quadrature.simpson", 1.0, 2.0, 0, "j"),
    ]
    trace = layers.JobTrace("j", spans, {}, 0.0, {"quadrature.simpson"}, [], [], 0)
    totals = layers.Totals.of([trace])
    assert totals.calls["quadrature.simpson"] == 2
    assert totals.seconds["quadrature.simpson"] == pytest.approx(4.0)


def test_absent_function_is_reported_absent_not_zero():
    spans = [layers.Span("cli.main", 0.0, 1.0, -1, "j")]
    trace = layers.JobTrace("j", spans, {}, 0.1, {"cli.main"}, ["infoscale.gibbs._logsumexp"],
                            [], 0)
    values, absent = layers.layer_metrics([trace])
    assert "gibbs.log_partition.s" in absent and "gibbs.log_partition.s" not in values
    assert values["cli.main_s"] == (1.0, "s")


def _traced_minimize(fn, **kwargs):
    tracer = trace_job.Tracer()
    wrapped = tracer.wrap("optimize.minimize", fn, trace_job.MinimizeHook(fn))
    return wrapped(**kwargs), tracer.attrs[0]


def test_at_cap_on_synthetic_minimizations():
    from infoscale.optimize import minimize_positive_scalar

    # Decreasing all the way: the infimum is approached as c -> inf.
    (c, _), attrs = _traced_minimize(minimize_positive_scalar, objective=lambda c: 1.0 + 1.0 / c)
    assert c >= 0.5e12 and attrs["at_cap"] == 1 and attrs["evals"] > 100
    # Interior minimum at c = 1.
    (c, _), attrs = _traced_minimize(minimize_positive_scalar, objective=lambda c: c + 1.0 / c)
    assert abs(c - 1.0) < 1e-4 and attrs["at_cap"] == 0
    # A caller's own cap counts, within a factor of 2.
    (c, _), attrs = _traced_minimize(minimize_positive_scalar, objective=lambda c: 1.0 + 1.0 / c,
                                     hi_cap=100.0)
    assert c == 100.0 and attrs["at_cap"] == 1

    def fake(objective, *, hi_cap=8.0):
        objective(1.0)
        return 3.9, 0.0

    assert _traced_minimize(fake, objective=lambda c: c)[1] == {"evals": 1, "at_cap": 0}
    assert _traced_minimize(fake, objective=lambda c: c, hi_cap=7.8)[1]["at_cap"] == 1


def _trace_figure(tmp_path: Path, name: str) -> dict:
    spans = tmp_path / f"{name}.json"
    done = subprocess.run([sys.executable, str(run.HERE / "trace_job.py"), str(spans), "--",
                           "figure", name], cwd=run.SRC, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == _sweep(f"figure-{name}")
    trace = layers.JobTrace.load(name, spans, 0)
    assert trace.absent == [] and trace.unbound == []
    return layers.job_counts(trace)


def test_traced_job_counts_repeat_exactly(tmp_path):
    first = _trace_figure(tmp_path, "5a")
    assert first == _trace_figure(tmp_path, "5a")
    assert first["optimize.minimize.calls"] == first["exact_models.phase_point.calls"] * 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {name: (unit, better) for name, (unit, better, _, _) in layers.METRICS.items()}
    name, unit, better = layers.OVERHEAD
    expected[name] = (unit, better)
    assert per_layer == expected
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
