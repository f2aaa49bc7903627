"""Per-layer metrics from the spans that ``trace_job.py`` writes for each job.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Layer times (``*.s``) are inclusive and count a span
only when its parent is not a span of the same name, so recursion is not
counted twice.  Every ``.s`` metric is a total over one traced pass of the
workload, every count a total over the pass.  A ratio whose base is 0 (the
layer did not run on this workload) is reported as 0.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class JobTrace:
    """What one traced job left behind."""

    job: str
    spans: list[Span]
    attrs: dict[int, dict]
    import_s: float
    installed: set[str]
    absent: list[str]
    unbound: list[str]
    stderr_warnings: int

    @classmethod
    def load(cls, job: str, path: Path, stderr_warnings: int) -> "JobTrace":
        data = json.loads(path.read_text())
        spans = [Span(name, start, end, parent, job) for name, start, end, parent in data["spans"]]
        attrs = {int(k): v for k, v in data["attrs"].items()}
        return cls(job, spans, attrs, data["import_s"], set(data["installed"]),
                   data["absent"], data["unbound"], stderr_warnings)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


@dataclass
class Totals:
    """Calls, inclusive time, self time and summed counts per span name."""

    calls: Counter
    seconds: Counter
    self_seconds: Counter
    counts: Counter
    fallbacks: int

    @classmethod
    def of(cls, traces: list[JobTrace]) -> "Totals":
        calls, seconds, self_seconds, counts = Counter(), Counter(), Counter(), Counter()
        fallbacks = 0
        for trace in traces:
            spans = trace.spans
            for span, own in zip(spans, self_times(spans)):
                calls[span.name] += 1
                self_seconds[span.name] += own
                parent = spans[span.parent].name if span.parent >= 0 else None
                if parent != span.name:
                    seconds[span.name] += span.duration
                if span.name == "numpy.eigvals" and parent == "markov.perron":
                    fallbacks += 1
            for index, extra in trace.attrs.items():
                for key, value in extra.items():
                    counts[f"{spans[index].name}.{key}"] += value
        return cls(calls, seconds, self_seconds, counts, fallbacks)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


# name -> (unit, better, span names it needs, value from (Totals, traces)).
METRICS = {
    "cli.import_s": ("s", "lower", ("cli.main",), lambda t, tr: sum(x.import_s for x in tr)),
    "cli.main_s": ("s", "lower", ("cli.main",), lambda t, tr: t.seconds["cli.main"]),
    "cli.stderr_warnings": ("count", "lower", (), lambda t, tr: sum(x.stderr_warnings for x in tr)),
    "jsonio.load_s": ("s", "lower", ("jsonio.load",), lambda t, tr: t.seconds["jsonio.load"]),
    "sweep.evaluate_s": ("s", "lower", ("sweep.evaluate",), lambda t, tr: t.seconds["sweep.evaluate"]),
    "sweep.emit_s": ("s", "lower", ("sweep.run", "sweep.evaluate"),
                     lambda t, tr: t.self_seconds["sweep.run"]),
    "sweep.points": ("count", "higher", ("sweep.evaluate",),
                     lambda t, tr: t.counts["sweep.evaluate.points"]),
    "sweep.nan_rows": ("count", "lower", ("sweep.evaluate",),
                       lambda t, tr: t.counts["sweep.evaluate.nan_rows"]),
    "exact_models.phase_point.calls": ("count", "lower", ("exact_models.phase_point",),
                                       lambda t, tr: t.calls["exact_models.phase_point"]),
    "exact_models.phase_point.self_s": ("s", "lower", ("exact_models.phase_point",),
                                        lambda t, tr: t.self_seconds["exact_models.phase_point"]),
    "exact_models.meanfield_solve.calls": ("count", "lower", ("exact_models.meanfield_solve",),
                                           lambda t, tr: t.calls["exact_models.meanfield_solve"]),
    "exact_models.meanfield_solve.s": ("s", "lower", ("exact_models.meanfield_solve",),
                                       lambda t, tr: t.seconds["exact_models.meanfield_solve"]),
    "exact_models.meanfield_solve.per_point": (
        "calls/point", "lower", ("exact_models.meanfield_solve", "exact_models.phase_point"),
        lambda t, tr: _ratio(t.calls["exact_models.meanfield_solve"],
                             t.calls["exact_models.phase_point"])),
    "exact_models.model_cgf.calls": ("count", "lower", ("exact_models.model_cgf",),
                                     lambda t, tr: t.calls["exact_models.model_cgf"]),
    "exact_models.model_cgf.s": ("s", "lower", ("exact_models.model_cgf",),
                                 lambda t, tr: t.seconds["exact_models.model_cgf"]),
    "exact_models.onsager.calls": ("count", "lower", ("exact_models.onsager",),
                                   lambda t, tr: t.calls["exact_models.onsager"]),
    "exact_models.onsager.s": ("s", "lower", ("exact_models.onsager",),
                               lambda t, tr: t.seconds["exact_models.onsager"]),
    "exact_models.re_rate.s": ("s", "lower", ("exact_models.re_rate",),
                               lambda t, tr: t.seconds["exact_models.re_rate"]),
    "quadrature.simpson.calls": ("count", "lower", ("quadrature.simpson",),
                                 lambda t, tr: t.calls["quadrature.simpson"]),
    "quadrature.simpson.per_point": (
        "calls/point", "lower", ("quadrature.simpson", "exact_models.phase_point"),
        lambda t, tr: _ratio(t.calls["quadrature.simpson"], t.calls["exact_models.phase_point"])),
    "quadrature.simpson.s": ("s", "lower", ("quadrature.simpson",),
                             lambda t, tr: t.seconds["quadrature.simpson"]),
    "quadrature.integrand_evals": ("count", "lower", ("quadrature.simpson",),
                                   lambda t, tr: t.counts["quadrature.simpson.evals"]),
    "optimize.minimize.calls": ("count", "lower", ("optimize.minimize",),
                                lambda t, tr: t.calls["optimize.minimize"]),
    "optimize.minimize.self_s": ("s", "lower", ("optimize.minimize",),
                                 lambda t, tr: t.self_seconds["optimize.minimize"]),
    "optimize.evals": ("count", "lower", ("optimize.minimize",),
                       lambda t, tr: t.counts["optimize.minimize.evals"]),
    "optimize.evals_per_min": ("evals/call", "lower", ("optimize.minimize",),
                               lambda t, tr: _ratio(t.counts["optimize.minimize.evals"],
                                                    t.calls["optimize.minimize"])),
    "optimize.at_cap": ("count", "lower", ("optimize.minimize",),
                        lambda t, tr: t.counts["optimize.minimize.at_cap"]),
    "optimize.at_cap_ratio": ("ratio", "lower", ("optimize.minimize",),
                              lambda t, tr: _ratio(t.counts["optimize.minimize.at_cap"],
                                                   t.calls["optimize.minimize"])),
    "goal_oriented.xi_bounds.calls": ("count", "lower", ("goal_oriented.xi_bounds",),
                                      lambda t, tr: t.calls["goal_oriented.xi_bounds"]),
    "goal_oriented.xi_bounds.s": ("s", "lower", ("goal_oriented.xi_bounds",),
                                  lambda t, tr: t.seconds["goal_oriented.xi_bounds"]),
    "goal_oriented.cgf.s": ("s", "lower", ("goal_oriented.cgf",),
                            lambda t, tr: t.seconds["goal_oriented.cgf"]),
    "markov.perron.calls": ("count", "lower", ("markov.perron",),
                            lambda t, tr: t.calls["markov.perron"]),
    "markov.perron.s": ("s", "lower", ("markov.perron",),
                        lambda t, tr: t.seconds["markov.perron"]),
    "markov.eig_fallbacks": ("count", "lower", ("markov.perron", "numpy.eigvals"),
                             lambda t, tr: t.fallbacks),
    "markov.fallback_ratio": ("ratio", "lower", ("markov.perron", "numpy.eigvals"),
                              lambda t, tr: _ratio(t.fallbacks, t.calls["markov.perron"])),
    "markov.perron_per_bound": ("calls/bound", "lower", ("markov.perron", "goal_oriented.xi_bounds"),
                                lambda t, tr: _ratio(t.calls["markov.perron"],
                                                     t.calls["goal_oriented.xi_bounds"])),
    "markov.stationary.calls": ("count", "lower", ("markov.stationary",),
                                lambda t, tr: t.calls["markov.stationary"]),
    "markov.iact.calls": ("count", "lower", ("markov.iact",),
                          lambda t, tr: t.calls["markov.iact"]),
    "markov.path_enum.s": ("s", "lower", ("markov.path_enum",),
                           lambda t, tr: t.seconds["markov.path_enum"]),
    "gibbs.measure.calls": ("count", "lower", ("gibbs.measure",),
                            lambda t, tr: t.calls["gibbs.measure"]),
    "gibbs.measure.s": ("s", "lower", ("gibbs.measure",),
                        lambda t, tr: t.seconds["gibbs.measure"]),
    "gibbs.configs": ("count", "lower", ("gibbs.measure",),
                      lambda t, tr: t.counts["gibbs.measure.configs"]),
    "gibbs.xi.s": ("s", "lower", ("gibbs.xi",), lambda t, tr: t.seconds["gibbs.xi"]),
    "gibbs.log_partition.s": ("s", "lower", ("gibbs.log_partition",),
                              lambda t, tr: t.seconds["gibbs.log_partition"]),
}

# Measured by run.py from the two passes, not from spans.
OVERHEAD = ("trace.overhead", "ratio", "lower")


def layer_metrics(traces: list[JobTrace]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """(metric name -> (value, unit), names of metrics whose spans are all absent).

    A metric is absent when any span it needs has no installed wrapper in
    any job: the function was deleted or renamed, so there is nothing to
    measure, and a zero would read as a measurement.
    """
    installed = set().union(*(t.installed for t in traces)) if traces else set()
    totals = Totals.of(traces)
    values, absent = {}, []
    for name, (unit, _, needs, compute) in METRICS.items():
        if any(span not in installed for span in needs):
            absent.append(name)
            continue
        values[name] = (float(compute(totals, traces)), unit)
    return values, absent


def job_counts(trace: JobTrace) -> dict[str, int]:
    """Calls per span name plus summed counts, for one job (nonzero only)."""
    totals = Totals.of([trace])
    counts = {f"{name}.calls": n for name, n in sorted(totals.calls.items())}
    counts.update(sorted(totals.counts.items()))
    counts["markov.eig_fallbacks"] = totals.fallbacks
    counts["cli.stderr_warnings"] = trace.stderr_warnings
    return {k: int(v) for k, v in counts.items() if v}


def never_fired(traces: list[JobTrace], expected: tuple[str, ...]) -> list[str]:
    """Expected span names that were installed but recorded no call."""
    installed = set().union(*(t.installed for t in traces)) if traces else set()
    calls = Totals.of(traces).calls
    return [name for name in expected if name in installed and calls[name] == 0]
