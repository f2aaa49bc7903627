"""Correctness checks on each job's output.

Invariants always run.  Beyond them, outputs are compared with reference
values recorded from the package for the recorded seed (figure presets do
not depend on the seed, so they are compared on every seed).  Each check
returns the number of failed items and a message per failure: for a sweep,
one item per grid row; for a ``markov`` or ``gibbs`` report, the one item
of the job.  The ``lin_*`` columns are kept out of the invariants, because
the linearized interval may miss the true value near critical points by
design; they are compared with the reference like every other column.
"""

from __future__ import annotations

import json
import math

SWEEP_FIELDS = ("param", "baseline_qoi", "true_qoi", "xi_lower", "xi_upper",
                "lin_lower", "lin_upper", "re_rate")

# Sweep CSVs carry 12 significant digits, so an inequality between two
# printed values is checked with this relative slack.
CSV_SLACK = 1e-11

MARKOV_KEYS = ("rer", "renyi_rate", "renyi_alpha", "chi2_rate", "xi_plus", "xi_minus", "iact",
               "stationary_gap", "sup_row_re", "sup_log_ratio", "xi_plus_sup_row_re",
               "xi_minus_sup_row_re", "xi_plus_sup_log_ratio", "xi_minus_sup_log_ratio")
GIBBS_KEYS = ("num_sites", "triple_norm_phi", "triple_norm_psi", "triple_norm_difference",
              "log_partition_phi", "log_partition_psi", "relative_entropy_per_site", "xi_plus",
              "xi_minus", "linearized", "triple_xi_plus", "triple_xi_minus", "qoi_gap")


def close(value: float, reference: float, tolerance: float) -> bool:
    return abs(value - reference) <= tolerance * max(1.0, abs(reference))


def _le(a: float, b: float, slack: float = 0.0) -> bool:
    return a <= b + slack * max(1.0, abs(a), abs(b))


def parse_sweep(text: str) -> list[tuple[float, ...]]:
    """Rows of a sweep CSV; raises ValueError on a malformed file."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != ",".join(SWEEP_FIELDS):
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for line in lines[1:]:
        row = tuple(float(x) for x in line.split(","))
        if len(row) != len(SWEEP_FIELDS):
            raise ValueError(f"row has {len(row)} fields: {line!r}")
        rows.append(row)
    return rows


def check_sweep(text: str, expected_rows: int, reference: str | None,
                tolerance: float) -> tuple[int, list[str]]:
    """Failed grid points of one sweep: non-finite, outside the sandwich,
    off the reference, or missing.  A malformed file fails every point."""
    try:
        rows = parse_sweep(text)
        ref_rows = parse_sweep(reference) if reference is not None else None
    except ValueError as exc:
        return expected_rows, [f"unreadable sweep output: {exc}"]
    failed, messages = 0, []
    if len(rows) != expected_rows:
        failed += abs(expected_rows - len(rows))
        messages.append(f"{len(rows)} rows, expected {expected_rows}")
    if ref_rows is not None and len(ref_rows) != len(rows):
        ref_rows = None
        failed += len(rows)
        messages.append("row count differs from the reference")
    for k, row in enumerate(rows):
        values = dict(zip(SWEEP_FIELDS, row))
        problem = None
        if not all(math.isfinite(v) for v in row):
            problem = "non-finite value"
        elif not (_le(values["xi_lower"], values["true_qoi"], CSV_SLACK)
                  and _le(values["true_qoi"], values["xi_upper"], CSV_SLACK)):
            problem = "true_qoi outside [xi_lower, xi_upper]"
        elif ref_rows is not None:
            off = [f for f, v, r in zip(SWEEP_FIELDS, row, ref_rows[k])
                   if not close(v, r, tolerance)]
            if off:
                problem = f"differs from reference in {', '.join(off)}"
        if problem:
            failed += 1
            messages.append(f"row {k} (param {values['param']:.12g}): {problem}")
    return failed, messages


def _load_report(text: str, keys: tuple[str, ...]) -> dict:
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("not a JSON object")
    missing = [k for k in keys if k not in report]
    if missing:
        raise ValueError(f"missing keys {missing}")
    return report


def markov_invariants(r: dict) -> list[str]:
    problems = []
    if not _le(r["xi_minus"], r["stationary_gap"]) or not _le(r["stationary_gap"], r["xi_plus"]):
        problems.append("stationary_gap outside [xi_minus, xi_plus]")
    if not (_le(r["rer"], r["sup_row_re"]) and _le(r["sup_row_re"], r["sup_log_ratio"])):
        problems.append("rer <= sup_row_re <= sup_log_ratio fails")
    for surrogate in ("sup_row_re", "sup_log_ratio"):
        if not (_le(r[f"xi_minus_{surrogate}"], r["xi_minus"])
                and _le(r["xi_plus"], r[f"xi_plus_{surrogate}"])):
            problems.append(f"{surrogate} interval does not contain the exact-rate interval")
    return problems


def gibbs_invariants(r: dict) -> list[str]:
    problems = []
    if not (_le(r["xi_minus"], r["qoi_gap"]) and _le(r["qoi_gap"], r["xi_plus"])):
        problems.append("qoi_gap outside [xi_minus, xi_plus]")
    if not (_le(r["triple_xi_minus"], r["xi_minus"]) and _le(r["xi_plus"], r["triple_xi_plus"])):
        problems.append("triple-norm interval does not contain the relative-entropy interval")
    return problems


def check_report(kind: str, text: str, expect: dict, reference: str | None,
                 tolerance: float) -> tuple[int, list[str]]:
    """Check one ``markov`` or ``gibbs`` JSON report (one item)."""
    keys, invariants = (MARKOV_KEYS, markov_invariants) if kind == "markov" else (
        GIBBS_KEYS, gibbs_invariants)
    try:
        report = _load_report(text, keys)
    except ValueError as exc:
        return 1, [f"unreadable {kind} report: {exc}"]
    numbers = {k: v for k, v in report.items() if isinstance(v, (int, float))}
    problems = [f"{k} is not finite" for k, v in numbers.items() if not math.isfinite(v)]
    if not problems:
        problems += invariants(report)
    problems += [f"{k} = {report[k]!r}, expected {v!r}" for k, v in expect.items() if report[k] != v]
    if reference is not None:
        ref = json.loads(reference)
        problems += [f"{k} = {report.get(k)!r} differs from reference {v!r}"
                     for k, v in ref.items()
                     if not (k in numbers and close(numbers[k], v, tolerance))]
    return (1 if problems else 0), problems
