"""Run one infoscale CLI job with spans recorded around each layer's functions.

Usage: python3 perfbench/trace_job.py SPANS_OUT -- <infoscale CLI arguments>

The runner imports ``infoscale.cli`` (timing the import), wraps the functions
listed in ``TARGETS`` wherever the package binds them, calls
``infoscale.cli.main(argv)`` and, when the job ends, writes the spans to
SPANS_OUT as JSON.  Spans are kept in memory until then.  A span is
``[name, start, end, parent]``, the parent being an index into the same list
or -1.  Wrappers that carry counts (objective evaluations, integrand
evaluations, enumerated configurations) store them in ``attrs`` under the
span's index.  A target the package no longer defines is listed under
``absent``; it is never wrapped and never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute).  A dotted attribute names a method of a
# class.  Targets that share a span name are counted together.
TARGETS = (
    ("cli.main", "infoscale.cli", "main"),
    ("jsonio.load", "infoscale.jsonio", "load_distribution"),
    ("jsonio.load", "infoscale.jsonio", "load_observable"),
    ("jsonio.load", "infoscale.jsonio", "load_chain"),
    ("jsonio.load", "infoscale.jsonio", "load_interaction"),
    ("jsonio.load", "infoscale.jsonio", "load_model"),
    ("sweep.run", "infoscale.sweep", "run_sweep"),
    ("sweep.evaluate", "infoscale.sweep", "evaluate_sweep"),
    ("exact_models.phase_point", "infoscale.exact_models", "phase_bound_point"),
    ("exact_models.meanfield_solve", "infoscale.exact_models", "meanfield_solve"),
    ("exact_models.model_cgf", "infoscale.exact_models", "model_cgf"),
    ("exact_models.onsager", "infoscale.exact_models", "onsager_pressure"),
    ("exact_models.onsager", "infoscale.exact_models", "onsager_bond_density"),
    ("exact_models.re_rate", "infoscale.exact_models", "cross_model_re_rate"),
    ("quadrature.simpson", "infoscale.quadrature", "adaptive_simpson"),
    ("optimize.minimize", "infoscale.optimize", "minimize_positive_scalar"),
    ("goal_oriented.xi_bounds", "infoscale.goal_oriented", "xi_bounds"),
    ("goal_oriented.cgf", "infoscale.goal_oriented", "AnalyticCgf.evaluate"),
    ("goal_oriented.cgf", "infoscale.goal_oriented", "EmpiricalCgf.evaluate"),
    ("markov.perron", "infoscale.markov", "perron_root"),
    ("markov.stationary", "infoscale.markov", "stationary_distribution"),
    ("markov.iact", "infoscale.markov", "integrated_autocorrelation"),
    ("markov.path_enum", "infoscale.markov", "path_divergence_report"),
    ("gibbs.measure", "infoscale.gibbs", "GibbsMeasure.__init__"),
    ("gibbs.xi", "infoscale.gibbs", "finite_volume_xi"),
    ("gibbs.xi", "infoscale.gibbs", "triple_norm_xi"),
    # Every partition sum over the enumerated energies, plain or tilted.
    ("gibbs.log_partition", "infoscale.gibbs", "_logsumexp"),
    ("gibbs.log_partition", "infoscale.gibbs", "log_partition"),
    # The dense fallback of markov.perron_root; counted only inside a Perron span.
    ("numpy.eigvals", "numpy.linalg", "eigvals"),
)

# Names bound by ``from .x import f``.  The installer rebinds every
# module-level reference to a target inside the package; these are checked
# by name afterwards so that a binding it missed fails the job.
REQUIRED_BINDINGS = (
    ("infoscale.goal_oriented", "minimize_positive_scalar"),
    ("infoscale.exact_models", "minimize_positive_scalar"),
    ("infoscale.exact_models", "adaptive_simpson"),
    ("infoscale.sweep", "phase_bound_point"),
    ("infoscale.markov", "xi_bounds"),
    ("infoscale.gibbs", "xi_bounds"),
    ("infoscale.cli", "xi_bounds"),
    ("infoscale.cli", "stationary_distribution"),
    ("infoscale.cli", "path_divergence_report"),
)


class Hook:
    """Per-call extras of a wrapper: may replace arguments, returns counts."""

    def __init__(self, fn) -> None:
        pass

    def prepare(self, args, kwargs):
        return args, kwargs, None

    def finish(self, args, kwargs, result, state) -> dict:
        return {}


def _count_calls(fn, counter: list):
    def counted(x):
        counter[0] += 1
        return fn(x)

    return counted


def _replace_first(args, kwargs, keyword: str, make):
    """Replace the first argument, given positionally or as ``keyword``."""
    if args:
        return (make(args[0]),) + tuple(args[1:]), kwargs
    kwargs = dict(kwargs)
    kwargs[keyword] = make(kwargs[keyword])
    return args, kwargs


class MinimizeHook(Hook):
    """Objective evaluations per minimization, and whether it ended at cap.

    A minimization is at cap when its returned c is within a factor of 2 of
    the ``hi_cap`` it was given, or of the function's default cap.
    """

    def __init__(self, fn) -> None:
        param = inspect.signature(fn).parameters.get("hi_cap")
        self.default_cap = None if param is None else param.default

    def prepare(self, args, kwargs):
        counter = [0]
        args, kwargs = _replace_first(
            args, kwargs, "objective", lambda f: _count_calls(f, counter)
        )
        return args, kwargs, counter

    def finish(self, args, kwargs, result, counter) -> dict:
        counts = {"evals": counter[0]}
        cap = kwargs.get("hi_cap", self.default_cap)
        if cap is not None:
            counts["at_cap"] = int(result[0] >= cap / 2.0)
        return counts


class SimpsonHook(Hook):
    """Integrand evaluations per quadrature."""

    def prepare(self, args, kwargs):
        counter = [0]
        args, kwargs = _replace_first(args, kwargs, "f", lambda f: _count_calls(f, counter))
        return args, kwargs, counter

    def finish(self, args, kwargs, result, counter) -> dict:
        return {"evals": counter[0]}


class SweepHook(Hook):
    """Grid points evaluated and NaN rows returned by one sweep."""

    def finish(self, args, kwargs, result, state) -> dict:
        rows, failures = result
        return {"points": len(rows), "nan_rows": int(failures)}


class MeasureHook(Hook):
    """Configurations enumerated by one Gibbs measure (``weights.size``)."""

    def finish(self, args, kwargs, result, state) -> dict:
        return {"configs": int(args[0].weights.size)}


HOOKS = {
    "optimize.minimize": MinimizeHook,
    "quadrature.simpson": SimpsonHook,
    "sweep.evaluate": SweepHook,
    "gibbs.measure": MeasureHook,
}


class Tracer:
    """The spans of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, hook: Hook | None = None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, opened, attrs = self.spans, self._open, self.attrs
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if hook is not None:
                args, kwargs, state = hook.prepare(args, kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, opened[-1] if opened else -1])
            opened.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                opened.pop()
            if hook is not None:
                attrs[index] = hook.finish(args, kwargs, result, state)
            return result

        return wrapper


def _resolve(module_name: str, attribute: str):
    """(owner, final attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    if value is None:
        return None
    return owner, last, value


def install(tracer: Tracer, targets=TARGETS) -> tuple[list[str], list[str]]:
    """Wrap every target; returns (installed names, absent targets).

    A module-level function is rebound in every ``infoscale`` module that
    holds it, so ``from .x import f`` bindings are wrapped too.
    """
    installed, absent = [], []
    for name, module_name, attribute in targets:
        found = _resolve(module_name, attribute)
        if found is None:
            absent.append(f"{module_name}.{attribute}")
            continue
        owner, last, original = found
        hook = HOOKS.get(name)
        wrapped = tracer.wrap(name, original, hook(original) if hook else None)
        setattr(owner, last, wrapped)
        if not isinstance(owner, type):
            for module_key, module in list(sys.modules.items()):
                if module_key == "infoscale" or module_key.startswith("infoscale."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        installed.append(name)
    return installed, absent


def unbound(required=REQUIRED_BINDINGS) -> list[str]:
    """Required bindings that exist but were left unwrapped."""
    missing = []
    for module_name, attribute in required:
        module = sys.modules.get(module_name)
        value = getattr(module, attribute, None) if module else None
        if value is not None and not hasattr(value, "__wrapped__"):
            missing.append(f"{module_name}.{attribute}")
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, cli_args = Path(argv[0]), argv[2:]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import infoscale.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    installed, absent = install(tracer)
    missing = unbound()
    try:
        code = infoscale.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        out_path.write_text(
            json.dumps(
                {
                    "import_s": import_s,
                    "installed": sorted(set(installed)),
                    "absent": absent,
                    "unbound": missing,
                    "spans": tracer.spans,
                    "attrs": {str(k): v for k, v in tracer.attrs.items()},
                },
                separators=(",", ":"),
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
