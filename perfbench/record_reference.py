"""Record reference outputs: the figure presets and the recorded seed's jobs.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs every job of every workload once for ``design.json``'s recorded seed,
checks the invariants, and writes each output under ``perfbench/reference``.
Run it only on a commit whose outputs are the accepted reference.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    seed = run.DESIGN["recorded_seed"]
    reference = run.HERE / "reference"
    work = run.ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in workloads.WORKLOADS:
            for job in workloads.generate(workload, seed, work / "inputs" / workload):
                suffix = "csv" if job.kind == "sweep" else "json"
                if job.name.startswith("figure-"):
                    target = reference / f"{job.name}.{suffix}"
                else:
                    target = reference / f"seed-{seed}" / f"{job.name}.{suffix}"
                target.parent.mkdir(parents=True, exist_ok=True)
                target.unlink(missing_ok=True)
                ex = run.execute(job, run.cli_argv(job), work, None)
                if ex.failed:
                    print(f"{job.name}: {ex.messages[:3]}", file=sys.stderr)
                    return 1
                shutil.copyfile(work / f"{job.name}.out", target)
                print(f"{target.relative_to(run.ROOT)}: {ex.wall_s:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
