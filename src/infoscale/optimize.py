"""One-dimensional minimization over the positive half-axis.

The objectives minimized here are of the form ``c -> (K(c) + r) / c`` with
``K`` convex and ``K(0) = 0``, which makes them quasiconvex on ``c > 0``.
A geometric bracket expansion from an initial point (factors 2 and 1/2)
is followed by golden-section refinement.
"""

from __future__ import annotations

import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LO_FLOOR = 1e-18
_TOL_X = 1e-10
_TOL_F = 1e-12
_MAX_ITER = 400


def minimize_positive_scalar(
    objective: Callable[[float], float],
    *,
    c_init: float = 1.0,
    hi_cap: float = 1e12,
) -> tuple[float, float]:
    """Minimize a quasiconvex objective over ``c > 0``.

    Returns ``(c_best, f_best)``, the best point seen across bracketing and
    golden-section refinement.  Non-finite objective values are treated as
    +inf so the search backs away from overflow regions.  If the objective
    decreases all the way to ``hi_cap`` (infimum approached at c -> inf) the
    returned point sits at the cap, which approximates the limiting value.
    """
    best_c = math.nan
    best_f = math.inf

    def f(c: float) -> float:
        nonlocal best_c, best_f
        v = objective(c)
        if not math.isfinite(v):
            return math.inf
        if v < best_f:
            best_f, best_c = v, c
        return v

    c_init = min(max(c_init, _LO_FLOOR), hi_cap)
    f0 = f(c_init)

    # Expand right until the objective increases or the cap is reached.
    hi, f_hi = c_init, f0
    while hi < hi_cap:
        cand = min(hi * 2.0, hi_cap)
        f_cand = f(cand)
        if f_cand > f_hi:
            hi = cand
            break
        hi, f_hi = cand, f_cand

    # Expand left likewise; objectives with an entropy term blow up at 0+.
    lo, f_lo = c_init, f0
    while lo > _LO_FLOOR:
        cand = max(lo / 2.0, _LO_FLOOR)
        f_cand = f(cand)
        if f_cand > f_lo:
            lo = cand
            break
        lo, f_lo = cand, f_cand

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f_c, f_d = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= _TOL_X:
            break
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - _INVPHI * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INVPHI * (b - a)
            f_d = f(d)
        if abs(f_c - f_d) <= _TOL_F and b - a <= math.sqrt(_TOL_X):
            break

    if not math.isfinite(best_f) or math.isnan(best_c):
        raise ValueError("objective was non-finite everywhere it was sampled")
    return best_c, best_f
