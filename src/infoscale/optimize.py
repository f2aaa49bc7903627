"""One-dimensional minimization over the positive half-axis.

The objectives minimized here are ``f(c) = (K(c) + R) / c`` with ``K`` convex
and ``K(0) = 0``.  Their minimum solves ``h(c) = c^2 f'(c) = c K'(c) - K(c) - R
= 0``, and h increases with c from ``-R`` at 0, so the search is one root
solve of h in ``t = log c``: steps right (or left) by factors 2, 4, 16, 256,
..., until h changes sign, then regula falsi with the Anderson-Bjorck
weighting, bisecting where four steps did not halve the bracket.  If h is
still negative at the cap the infimum is the ``c -> inf`` limit, and the
search ends there.  Past an edge of K's domain f is infinite, which counts
as right of the optimum, so an optimum at the edge is bracketed toward it.
"""

from __future__ import annotations

import math
from typing import Callable

_TOL_T = 1e-10  # the bracket width in log c (relative width in c) that stops the search
# The slope in log c, c f'(c), counts as 0 below this fraction of |f|.
_TOL_SLOPE = 2.0**-50
# Relative step of the backward difference that stands in for a NaN slope.
_BACKSTEP = 2.0**-20


def minimize_positive_scalar(
    objective: Callable[[float], tuple[float, float]],
    *,
    c_init: float = 1.0,
    hi_cap: float = 1e12,
) -> tuple[float, float]:
    """Minimize ``f(c) = (K(c) + R) / c`` over ``0 < c <= hi_cap``.

    ``objective(c)`` returns ``(f(c), f'(c))``; the result ``(c_best,
    f_best)`` is the best point evaluated, so an inexact slope can loosen it
    but never put it below a value of f.  A non-finite value counts as right
    of the optimum.  A NaN slope (an underflowed tilted matrix, say) becomes
    a backward difference of f, and one lost to rounding a step right.
    Raises ValueError if f is non-finite wherever evaluated.
    """
    best = [math.inf, math.nan]

    def value(c: float) -> tuple[float, float]:
        v, slope = objective(c)
        if math.isfinite(v) and v < best[0]:
            best[:] = v, c
        return v, slope

    def h(c: float) -> float:
        v, slope = value(c)
        if not math.isfinite(v):
            return math.inf
        if math.isnan(slope):
            slope = (v - value(c * (1.0 - _BACKSTEP))[0]) / (c * _BACKSTEP)
            return c * (c * slope) if abs(slope) > 0.0 else -math.inf
        return 0.0 if abs(c * slope) <= _TOL_SLOPE * abs(v) else c * (c * slope)

    c = min(max(c_init, math.ulp(0.0)), hi_cap)
    t, t_cap, step = math.log(c), math.log(hi_cap), math.log(2.0)
    s = h(c)
    (ta, sa), (tb, sb) = (t, s), (t, s)
    toward = -1.0 if s > 0.0 else 1.0  # step right while h < 0, left while h > 0
    while s * toward < 0.0 and (toward < 0.0 or c < hi_cap):
        t_next = min(t + toward * step, t_cap)
        c = hi_cap if t_next == t_cap else math.exp(t_next)
        if c == 0.0:
            break
        step *= 2.0
        (ta, sa), (tb, sb) = sorted([(t, s), (t_next, h(c))])
        t, s = t_next, (sa if toward < 0.0 else sb)

    widths = [math.inf] * 4  # the bracket's width before each of the last four steps
    kept = 0  # +1 (-1) when the last step replaced the upper (lower) end
    while sa < 0.0 < sb and tb - ta > _TOL_T:
        width = tb - ta
        t = 0.5 * (ta + tb)
        if width <= 0.5 * widths[0] and math.isfinite(sa) and math.isfinite(sb):
            guess = (ta * sb - tb * sa) / (sb - sa)
            t = guess if ta < guess < tb else t
        widths = widths[1:] + [width]
        s = h(math.exp(t))
        if s == 0.0:
            break
        if s > 0.0:
            if kept > 0:
                sa *= 1.0 - s / sb if s < sb else 0.5  # 1/2 where both are inf
            tb, sb, kept = t, s, 1
        else:
            if kept < 0:
                sb *= 1.0 - s / sa if s > sa else 0.5
            ta, sa, kept = t, s, -1

    if not math.isfinite(best[0]):
        raise ValueError("objective was non-finite everywhere it was sampled")
    return best[1], best[0]
