"""The benchmark's tracer wraps functions by name; each must still exist.

``perfbench/trace_job.py`` lists a target it cannot find as absent, and a
traced benchmark run with a declared metric absent is malformed.  Deleting or
renaming a traced function therefore fails here first.  The tracer module is
only loaded, never run.
"""

import importlib.util
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
