"""One-dimensional minimization over the positive half-axis.

The objectives minimized here are of the form ``c -> (K(c) + r) / c`` with
``K`` convex and ``K(0) = 0``, which makes them quasiconvex on ``c > 0``.
A geometric bracket expansion from an initial point (factors 2 and 1/2)
is followed by golden-section refinement.  If the objective never rises on
the way to the cap, and the convexity of ``c f(c) = K(c) + r`` shows that
no point between the last expansion point and the cap does better than
the cap, the search stops there: the infimum is then the ``c -> inf``
limit, or an optimum at a finite domain bound.  The x-tolerance is
relative to the bracket's left end, so a bracket far from 0 stops at a
relative width of 1e-10, not at an absolute width below one ulp of its
endpoints.
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
    +inf so the search backs away from overflow regions.  If the right-hand
    expansion reaches ``hi_cap`` without an increase, and
    :func:`_cap_is_optimal` shows from the last three expansion points that
    no point before the cap is better, the search returns at once with the
    point at the cap.  Otherwise golden section refines the bracket
    ``[a, b]`` until ``b - a <= _TOL_X * max(1, a)``.
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
    steps = [(c_init, f0)]
    while hi < hi_cap:
        cand = min(hi * 2.0, hi_cap)
        f_cand = f(cand)
        if f_cand > f_hi:
            hi = cand
            break
        hi, f_hi = cand, f_cand
        steps.append((hi, f_hi))
    else:
        # No step rose.  Stop at the cap only where nothing before it can
        # be better; a minimum between the last step and the cap (a finite
        # domain bound) is refined below.
        if len(steps) >= 3 and _cap_is_optimal(*steps[-3:]):
            return best_c, best_f

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
        if b - a <= _TOL_X * max(1.0, a):
            break
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - _INVPHI * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INVPHI * (b - a)
            f_d = f(d)
        if abs(f_c - f_d) <= _TOL_F and b - a <= math.sqrt(_TOL_X) * max(1.0, a):
            break

    if not math.isfinite(best_f) or math.isnan(best_c):
        raise ValueError("objective was non-finite everywhere it was sampled")
    return best_c, best_f


def _cap_is_optimal(first, second, cap) -> bool:
    """Whether ``f(cap)`` is within ``_TOL_F * max(1, |f(cap)|)`` of the
    infimum of f over ``[x1, cap]``.

    Takes the last three expansion points ``(x, f(x))``, with ``x0 < x1 <
    cap``.  For ``f(c) = (K(c) + r) / c`` with K convex, ``g(c) = c f(c)`` is
    convex, so for ``c >= x1`` it lies above the secant through ``x0`` and
    ``x1``: ``g(c) >= s c + a``.  Then ``f(c) >= s + a / c``, which is
    monotone in c, so its minimum over ``[x1, cap]`` sits at an end.  Points
    below ``x1`` are no better, as the expansion never rose on its way up.
    """
    (x0, f0), (x1, f1), (xc, fc) = first, second, cap
    if not all(math.isfinite(v) for v in (f0, f1, fc)):
        return False
    s = (x1 * f1 - x0 * f0) / (x1 - x0)
    a = x1 * f1 - s * x1
    lower = min(f1, s + a / xc)
    return fc - lower <= _TOL_F * max(1.0, abs(fc))
