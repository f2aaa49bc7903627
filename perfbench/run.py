"""The infoscale benchmark: real CLI jobs, checked, timed end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``phase-sweeps`` and ``markov-gibbs`` (see ``workloads.py``
and ``design.json``).  Every job runs as
its own ``python -m infoscale.cli`` process, one at a time, with the
environment this command was given; the children start in ``src/`` so that
the package imports from the checkout.

``--trace 0`` repeats serial passes over the workload's jobs for about S
seconds and prints the end-to-end metrics: ``items_per_s`` (items over the
sum of each job's mean wall time), ``peak_rss_mb`` (the largest of each
job's median peak RSS) and ``setup_s`` (the median of five set-ups, each
writing the seed's inputs and running one warm-up CLI process).
``--trace 1`` runs one plain pass and one pass under ``trace_job.py`` and
prints the per-layer metrics (see ``layers.py``) and each job's counts.

Every output is checked (see ``checks.py``).  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` (items) and
``metrics``; the error rate is ``failed / attempted``.  The exit code is 0
when every check passed, 1 when one failed, and 2 (with no result line)
when the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESIGN = json.loads((HERE / "design.json").read_text())
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 100.0


class EnvironmentProblem(Exception):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Execution:
    job: workloads.Job
    wall_s: float
    rss_mb: float
    warnings: int
    failed: int
    messages: list[str] = field(default_factory=list)


def run_process(argv: list[str], out_path: Path, err_path: Path) -> tuple[float, float, int]:
    """Run one child in ``src/``; returns (wall s, peak RSS MB, exit code)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(job: workloads.Job) -> list[str]:
    return [sys.executable, "-m", "infoscale.cli", *job.args]


def traced_argv(job: workloads.Job, spans_path: Path) -> list[str]:
    return [sys.executable, str(HERE / "trace_job.py"), str(spans_path), "--", *job.args]


def reference_for(job: workloads.Job, seed: int) -> str | None:
    """Recorded output for this job, when one exists for this seed."""
    suffix = "csv" if job.kind == "sweep" else "json"
    if job.name.startswith("figure-"):
        path = HERE / "reference" / f"{job.name}.{suffix}"
    elif seed == DESIGN["recorded_seed"]:
        path = HERE / "reference" / f"seed-{seed}" / f"{job.name}.{suffix}"
    else:
        return None
    return path.read_text()


def execute(job: workloads.Job, argv: list[str], work: Path, reference: str | None) -> Execution:
    """Run one job and check its output, against ``reference`` when given."""
    out_path, err_path = work / f"{job.name}.out", work / f"{job.name}.err"
    wall, rss, code = run_process(argv, out_path, err_path)
    stderr = err_path.read_text(errors="replace")
    warnings = sum(1 for line in stderr.splitlines() if "RuntimeWarning" in line)
    ex = Execution(job, wall, rss, warnings, 0)
    if code != 0:
        ex.failed = job.items
        ex.messages = [f"exit code {code}: {stderr.strip()[-400:]}"]
        return ex
    text = out_path.read_text(errors="replace")
    tolerance = DESIGN["reference_tolerance"]
    if job.kind == "sweep":
        ex.failed, ex.messages = checks.check_sweep(text, job.items, reference, tolerance)
    else:
        ex.failed, ex.messages = checks.check_report(job.kind, text, dict(job.expect),
                                                     reference, tolerance)
    return ex


def setup(workload: str, seed: int, work: Path) -> tuple[list[workloads.Job], float]:
    """Write the seed's inputs and run one warm-up CLI process; returns the jobs
    and the median set-up time over ``SETUP_REPEATS`` set-ups."""
    times, jobs = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(work / "inputs", ignore_errors=True)
        jobs = workloads.generate(workload, seed, work / "inputs")
        _, _, code = run_process([sys.executable, "-m", "infoscale.cli", "--help"],
                                 work / "warmup.out", work / "warmup.err")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise EnvironmentProblem(
                "warm-up `python -m infoscale.cli --help` failed: "
                + (work / "warmup.err").read_text(errors="replace")[-400:])
    return jobs, statistics.median(times)


def timed_passes(jobs, seed: int, work: Path, seconds: float) -> list[Execution]:
    """Serial passes over the jobs for about ``seconds``.

    The first pass always completes.  After it, a job is started only if at
    least half of its previous wall time fits before the deadline, and the
    first job that does not ends the run; so a run measures about
    ``seconds`` on average, however long its jobs are.
    """
    executions: list[Execution] = []
    last: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        for job in jobs:
            if job.name in last and time.perf_counter() - start + last[job.name] / 2 > seconds:
                return executions
            ex = execute(job, cli_argv(job), work, reference_for(job, seed))
            last[job.name] = ex.wall_s
            executions.append(ex)


def end_to_end(jobs, executions: list[Execution]) -> dict[str, tuple[float, str]]:
    """``items_per_s`` over each job's mean wall time, ``peak_rss_mb`` over its median RSS.

    The host's speed switches between a fast and a slow state (about 1.7x
    apart) every few seconds, so one job's wall times are bimodal; the mean of
    a run's few samples per job moves less from run to run than their median.
    """
    walls = {job.name: [] for job in jobs}
    rss = {job.name: [] for job in jobs}
    for ex in executions:
        walls[ex.job.name].append(ex.wall_s)
        rss[ex.job.name].append(ex.rss_mb)
    pass_s = sum(statistics.fmean(w) for w in walls.values())
    return {
        "items_per_s": (sum(job.items for job in jobs) / pass_s, "items/s"),
        "peak_rss_mb": (max(statistics.median(r) for r in rss.values()), "MB"),
    }


def traced_run(workload: str, jobs, seed: int, work: Path):
    """One plain pass, then one traced pass; returns (executions, metrics, problems)."""
    plain = [execute(job, cli_argv(job), work, reference_for(job, seed)) for job in jobs]
    traced, traces = [], []
    for job in jobs:
        spans_path = work / f"{job.name}.spans.json"
        spans_path.unlink(missing_ok=True)
        ex = execute(job, traced_argv(job, spans_path), work, reference_for(job, seed))
        traced.append(ex)
        if spans_path.exists():
            traces.append(layers.JobTrace.load(job.name, spans_path, ex.warnings))
        else:
            ex.messages.append("traced job wrote no spans")
    metrics, absent = layers.layer_metrics(traces)
    overhead = sum(ex.wall_s for ex in traced) / sum(ex.wall_s for ex in plain)
    name, unit, _ = layers.OVERHEAD
    metrics[name] = (overhead, unit)

    problems = [f"wrapper {n} never fired on {workload}"
                for n in layers.never_fired(traces, workloads.EXPECTED_SPANS[workload])]
    for trace in traces:
        problems += [f"{trace.job}: binding {b} left unwrapped" for b in trace.unbound]
        print(json.dumps({"job": trace.job, "counts": layers.job_counts(trace)}))
    if absent:
        print("absent (their functions are gone): " + ", ".join(absent))
    return plain + traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "infoscale" / "cli.py").is_file():
        print(f"perfbench: no infoscale package under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs, setup_s = setup(args.workload, args.seed, work)
        problems: list[str] = []
        if args.trace:
            executions, metrics, problems = traced_run(args.workload, jobs, args.seed, work)
        else:
            executions = timed_passes(jobs, args.seed, work, args.seconds)
            metrics = end_to_end(jobs, executions)
            metrics["setup_s"] = (setup_s, "s")
    except EnvironmentProblem as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(ex.job.items for ex in executions)
    failed = sum(ex.failed for ex in executions)
    for ex in executions:
        for message in ex.messages[:5]:
            problems.append(f"{ex.job.name}: {message}")
    for problem in problems:
        print(f"FAILED {problem}")
    runs = {}
    for ex in executions:
        runs.setdefault(ex.job.name, []).append(ex.wall_s)
    for name, walls in runs.items():
        print(f"job {name}: {len(walls)} runs, mean {statistics.fmean(walls):.3f} s, "
              f"median {statistics.median(walls):.3f} s")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} items failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
