"""Phase-diagram sweep orchestration, figure presets, and CSV/JSON emission.

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

from .errors import InfoscaleError, ParameterError
from .exact_models import (
    Ising1DParams,
    Ising2DParams,
    MeanFieldParams,
    ModelSpec,
    PhasePoint,
    check_phase_sweep,
    phase_bound_point,
)

log = logging.getLogger("infoscale.sweep")

CSV_HEADER = "param,baseline_qoi,true_qoi,xi_lower,xi_upper,lin_lower,lin_upper,re_rate"

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

_PRESETS = {
    # Mean field vs mean field, field perturbed, beta sweep (J = 2).
    "2a": lambda: SweepConfig(
        model_q=MeanFieldParams(beta=1.0, J=2.0, h=0.6),
        model_p=MeanFieldParams(beta=1.0, J=2.0, h=0.0),
        sweep_parameter="beta", start=BETA_GRID[0], stop=BETA_GRID[1], step=BETA_GRID[2],
    ),
    # Mean field vs mean field, beta perturbed 1.0 -> 1.6, field sweep (J = 1).
    "2b": lambda: SweepConfig(
        model_q=MeanFieldParams(beta=1.6, J=1.0),
        model_p=MeanFieldParams(beta=1.0, J=1.0),
        sweep_parameter="h", start=H_GRID[0], stop=H_GRID[1], step=H_GRID[2],
    ),
    # 1-D Ising vs its mean-field surrogate, beta sweep (J = 1, h = 0).
    "3a": lambda: SweepConfig(
        model_q=Ising1DParams(beta=1.0, J=1.0, h=0.0),
        model_p=MeanFieldParams(beta=1.0, J=1.0, h=0.0),
        sweep_parameter="beta", start=BETA_GRID[0], stop=BETA_GRID[1], step=BETA_GRID[2],
    ),
    # 1-D Ising vs mean field, field sweep (beta = 1, J = 1).
    "3b": lambda: SweepConfig(
        model_q=Ising1DParams(beta=1.0, J=1.0),
        model_p=MeanFieldParams(beta=1.0, J=1.0),
        sweep_parameter="h", start=H_GRID[0], stop=H_GRID[1], step=H_GRID[2],
    ),
    # 2-D zero-field Ising vs 2-D mean field, beta sweep, h -> 0+ branches.
    "4a": lambda: SweepConfig(
        model_q=Ising2DParams(beta=1.0, J=1.0, branch="plus"),
        model_p=MeanFieldParams(beta=1.0, J=1.0, d=2, branch="upper"),
        sweep_parameter="beta", start=BETA_GRID[0], stop=BETA_GRID[1], step=BETA_GRID[2],
    ),
    # Same as 4a with the h -> 0- branches.
    "4b": lambda: SweepConfig(
        model_q=Ising2DParams(beta=1.0, J=1.0, branch="minus"),
        model_p=MeanFieldParams(beta=1.0, J=1.0, d=2, branch="lower"),
        sweep_parameter="beta", start=BETA_GRID[0], stop=BETA_GRID[1], step=BETA_GRID[2],
    ),
    # 1-D Ising h = 0 baseline vs h = 0.6 target, beta sweep (J = 1).
    "5a": lambda: SweepConfig(
        model_q=Ising1DParams(beta=1.0, J=1.0, h=0.6),
        model_p=Ising1DParams(beta=1.0, J=1.0, h=0.0),
        sweep_parameter="beta", start=BETA_GRID[0], stop=BETA_GRID[1], step=BETA_GRID[2],
    ),
    # 1-D Ising beta = 1 baseline vs beta = 1.6 target, field sweep (J = 1).
    "5b": lambda: SweepConfig(
        model_q=Ising1DParams(beta=1.6, J=1.0),
        model_p=Ising1DParams(beta=1.0, J=1.0),
        sweep_parameter="h", start=H_GRID[0], stop=H_GRID[1], step=H_GRID[2],
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def figure_preset(name: str) -> SweepConfig:
    """Parameter bindings for the preset phase-diagram studies."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
