"""Phase-diagram sweep orchestration, figure presets, and CSV/JSON emission.

The CLI imports this module only for ``phase`` and ``figure``.  It loads
the model layer (``exact_models``, ``optimize``, ``quadrature``,
``goal_oriented``) but not numpy, and its warnings, with the failure count
the CLI adds, are the package's only logging.  A figure preset is a row of
:data:`infoscale.presets.FIGURE_PRESETS`, built through
:func:`infoscale.jsonio.model_from_dict` as a ``phase`` model file is.

Grid points are evaluated one after another, in one process, and emitted in
ascending parameter order: they are pure-Python work that threads cannot
overlap, so the CLI's ``--jobs`` flag changes neither the output nor the
speed.  A numerical failure at a grid point becomes a row of NaNs plus a
one-line warning naming the error (with its traceback only at debug level),
or an abort in strict mode.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from . import jsonio, presets
from .errors import InfoscaleError, ParameterError
from .exact_models import ModelSpec, PhasePoint, check_phase_sweep, phase_bound_point

log = logging.getLogger("infoscale.sweep")

CSV_HEADER = ",".join(PhasePoint.FIELDS)

# Default grids for the two sweep variables (matching the figure ranges).
BETA_GRID = (0.1, 2.0, 0.01)
H_GRID = (-1.5, 1.5, 0.01)
_MAX_GRID_POINTS = 1_000_000  # the figure presets have at most 301


@dataclass(frozen=True)
class SweepConfig:
    """A phase-diagram sweep: target model, baseline model, grid, and output.

    A sweep that no grid point could evaluate (see
    :func:`~infoscale.exact_models.check_phase_sweep`) is rejected here."""

    model_q: ModelSpec
    model_p: ModelSpec
    sweep_parameter: str
    start: float
    stop: float
    step: float
    output_path: str | None = None
    fmt: str = "csv"
    strict: bool = False

    def __post_init__(self):
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.step <= 0:
            raise ParameterError(f"step must be positive, got {self.step!r}")
        if self.stop < self.start:
            raise ParameterError(
                f"empty sweep range [{self.start!r}, {self.stop!r}]"
            )
        check_phase_sweep(self.model_q, self.model_p, self.sweep_parameter)
        if self.fmt not in ("csv", "json"):
            raise ParameterError("format must be 'csv' or 'json'")
        if not (self.stop - self.start) / self.step < _MAX_GRID_POINTS:
            raise ParameterError(f"the grid exceeds the cap of {_MAX_GRID_POINTS} points")

    def grid(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + k * self.step for k in range(count)]


def _nan_point(param: float) -> PhasePoint:
    nan = math.nan
    return PhasePoint(param, nan, nan, nan, nan, nan, nan, nan)


def evaluate_sweep(config: SweepConfig) -> tuple[list[PhasePoint], int]:
    """Evaluate every grid point; returns (rows, failure count).

    Failures are caught per point and reported as NaN rows unless
    ``config.strict``, in which case the first failure propagates.
    """

    def point(v: float) -> PhasePoint:
        try:
            return phase_bound_point(
                config.model_q, config.model_p, v, config.sweep_parameter
            )
        except InfoscaleError as exc:
            if config.strict:
                raise
            log.warning(
                "grid point %.12g failed (%s: %s); emitting NaN row",
                v, type(exc).__name__, exc,
                exc_info=log.isEnabledFor(logging.DEBUG),
            )
            return _nan_point(v)

    rows = [point(v) for v in config.grid()]
    failures = sum(1 for r in rows if math.isnan(r.re_rate))
    return rows, failures


def format_rows_csv(rows: list[PhasePoint]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(",".join(f"{v:.12g}" for v in row.as_tuple()) + "\n")
    return out.getvalue()


def parse_rows_csv(text: str) -> list[PhasePoint]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ParameterError("CSV header does not match the sweep schema")
    rows = []
    for ln in lines[1:]:
        parts = [float(x) for x in ln.split(",")]
        if len(parts) != len(PhasePoint.FIELDS):
            raise ParameterError(f"CSV row has {len(parts)} fields: {ln!r}")
        rows.append(PhasePoint(*parts))
    return rows


def format_rows_json(rows: list[PhasePoint]) -> str:
    import json

    payload = [dict(zip(PhasePoint.FIELDS, r.as_tuple())) for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def run_sweep(config: SweepConfig) -> tuple[list[PhasePoint], int]:
    """Evaluate the sweep and write it to the configured destination.

    Returns (rows, failure count); the caller maps failures to the exit
    status.  Output goes to ``output_path`` or stdout.
    """
    rows, failures = evaluate_sweep(config)
    text = format_rows_csv(rows) if config.fmt == "csv" else format_rows_json(rows)
    if config.output_path is None:
        import sys

        sys.stdout.write(text)
    else:
        Path(config.output_path).write_text(text)
    return rows, failures


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

PRESET_NAMES = presets.PRESET_NAMES


def figure_preset(name: str) -> SweepConfig:
    """The sweep of a preset phase-diagram study, over ``BETA_GRID`` or
    ``H_GRID`` as its swept parameter says."""
    try:
        spec_q, spec_p, parameter = presets.FIGURE_PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    start, stop, step = BETA_GRID if parameter == "beta" else H_GRID
    return SweepConfig(
        model_q=jsonio.model_from_dict(spec_q, f"preset {name}"),
        model_p=jsonio.model_from_dict(spec_p, f"preset {name}"),
        sweep_parameter=parameter, start=start, stop=stop, step=step,
    )
