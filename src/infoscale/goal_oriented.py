"""Goal-oriented divergences: CGF-based two-sided bounds on QoI gaps.

Given a baseline measure P, an observable f, and a relative-entropy budget R,
the upper bound is ``inf_{c>0} (K(c) + R) / c`` with K the centered cumulant
generating function of f under P, and the lower bound is the mirror image in
``-c``.  Those optima sandwich ``E_q(f) - E_p(f)`` for every q with
``R(q || p) <= R``, and scale correctly under tensorization.

A CGF source's ``evaluate(c)`` returns ``(K(c), K'(c))``, and
:func:`xi_bounds` solves ``c K'(c) - K(c) = R`` for each optimum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from .errors import (
    CgfDomainError,
    ParameterError,
    UnboundedObservableError,
)
from .optimize import minimize_positive_scalar

if TYPE_CHECKING:
    import numpy as np

    from .divergences import DiscreteDistribution, Observable

_VAR_FD_STEP = 1e-4
# Where q is an exponential tilt of p the bound is attained, and the rounding
# of K and R would decide which side of the gap it takes; so it is widened.
_OUTWARD = 1.0 + 2.0**-46
# Centered values up to this size have a finite square, hence a finite
# variance, and stay finite times the optimizer's cap of 1e12.
_MAX_SPREAD = math.sqrt(sys.float_info.max)


def _spread(centered: np.ndarray) -> float:
    """Largest size of the centered values; past ``_MAX_SPREAD`` raises
    UnboundedObservableError rather than overflow."""
    import numpy as np

    span = float(np.max(np.abs(centered)))
    if not span <= _MAX_SPREAD:
        raise UnboundedObservableError(
            f"observable spread {span!r} exceeds {_MAX_SPREAD:.3g}: its variance overflows"
        )
    return span


@dataclass(frozen=True, eq=False)
class EmpiricalCgf:
    """Centered CGF of an observable under a finite-support distribution.

    ``evaluate(c)`` returns ``(K(c), K'(c))``: K the log of
    ``sum_i p_i exp(y_i)``, ``y_i = c d_i``, ``d_i = f_i - E_p f``, over the
    atoms with ``p_i > 0``, and K' the tilted mean of the ``d_i``.  While
    every ``|y_i| <= 700``, K is ``log1p(sum_i p_i (e^{y_i} - 1 - y_i))``
    and K' its derivative: their terms keep their relative digits at any c
    (the mean's rounding drops out with the linear term), so
    ``(K(c) + R) / c`` keeps its digits and sign for any budget R, where a
    log-sum-exp (used past 700) loses a small K next to its largest exponent.

    The support, the centered values and their largest size are computed
    once, at construction.  Atoms with equal observable values are merged
    there, their weights summed, so each evaluation costs one term per
    distinct value: the magnetization of N +-1 spins under a Gibbs measure
    has N + 1 of them among its 2^N configurations.  The mean is taken over
    the atoms as given and kept inside the range of the values, so a
    constant observable has exactly zero deviations and variance.
    """

    dist: DiscreteDistribution
    observable: Observable

    def __post_init__(self):
        import numpy as np

        self.observable._check_aligned(self.dist)
        mask = self.dist.weights > 0
        values, atom = np.unique(self.observable.values[mask], return_inverse=True)
        mean = min(max(self.observable.expectation(self.dist), values[0]), values[-1])
        centered = values - mean
        object.__setattr__(self, "mean", float(mean))
        object.__setattr__(self, "_weights", np.bincount(atom, weights=self.dist.weights[mask]))
        object.__setattr__(self, "_centered", centered)
        object.__setattr__(self, "_span", _spread(centered))

    def variance(self) -> float:
        return float(self._weights @ self._centered**2)

    def evaluate(self, c: float) -> tuple[float, float]:
        import numpy as np

        y = c * self._centered
        if abs(c) * self._span <= 700.0:
            from .divergences import _exp_tail

            em1 = np.expm1(y)
            tail = float(self._weights @ _exp_tail(y, em1))
            return math.log1p(tail), float((self._weights * em1 / (1.0 + tail)) @ self._centered)
        from .divergences import _logsumexp

        tilted = self._weights * np.exp(y - y.max())
        return _logsumexp(y, self._weights), float(tilted @ self._centered) / float(tilted.sum())


@dataclass(frozen=True, eq=False)
class AnalyticCgf:
    """A caller-supplied centered CGF.

    ``fn(c)`` returns ``(K(c), K'(c))``.  Past an edge of its domain K is
    infinite, or ``fn`` raises an ArithmeticError; each side of a bound then
    searches up to its own edge.  The contract (K(0) = 0, K'(0) = 0, K' the
    slope of K, K convex) is spot-checked at construction, at a probe inside
    both edges.
    """

    fn: Callable[[float], tuple[float, float]]
    check_contract: bool = True

    def __post_init__(self):
        if self.check_contract:
            self._spot_check()

    def _inside(self, step: float) -> float:
        """``step``, halved until K is finite at ``+-2 step``: the one place
        that knows a domain has edges.  Raises UnboundedObservableError where
        K is infinite next to 0."""
        while step > 0.0:
            try:
                if all(math.isfinite(self.fn(c)[0]) for c in (-2.0 * step, 2.0 * step)):
                    return step
            except ArithmeticError:
                pass
            step /= 2.0
        raise UnboundedObservableError("centered CGF is infinite next to 0")

    def _spot_check(self) -> None:
        at_zero, slope = self.fn(0.0)
        if abs(at_zero) > 1e-10:
            raise ParameterError(f"centered CGF must vanish at 0, got {at_zero!r}")
        if abs(slope) > 1e-6:
            raise ParameterError(
                f"centered CGF must have zero slope at 0, got {slope!r}"
            )
        probe = self._inside(1.0)
        below, above = (self.fn(c)[1] for c in (-probe, probe))
        for c, dk in ((-probe, below), (probe, above)):
            fd = (self.fn(c * 1.0001)[0] - self.fn(c * 0.9999)[0]) / (2e-4 * c)
            if abs(dk - fd) > 1e-6 * max(1.0, abs(fd)):
                raise ParameterError(f"CGF slope at {c!r} misses the central difference {fd!r}")
        if not below - 1e-10 <= slope <= above + 1e-10:  # K' increases: convexity
            raise ParameterError("centered CGF failed the convexity spot check")

    def variance(self) -> float:
        h = self._inside(_VAR_FD_STEP)
        return max((self.fn(h)[0] - 2.0 * self.fn(0.0)[0] + self.fn(-h)[0]) / h**2, 0.0)

    def evaluate(self, c: float) -> tuple[float, float]:
        return self.fn(c)


CgfSource = Union[EmpiricalCgf, AnalyticCgf]


@dataclass(frozen=True)
class GoalBound:
    """Two-sided goal-oriented bound on a QoI gap.

    ``xi_minus <= E_q(f) - E_p(f) <= xi_plus``.  The optimizers ``c_star_*``
    are 0 in the degenerate cases (a zero entropy budget or a constant
    observable), where they are not searched for.
    """

    xi_plus: float
    xi_minus: float
    c_star_plus: float
    c_star_minus: float
    linearized_half_width: float

    def as_dict(self) -> dict:
        return {
            "xi_plus": self.xi_plus,
            "xi_minus": self.xi_minus,
            "c_star_plus": self.c_star_plus,
            "c_star_minus": self.c_star_minus,
            "linearized": self.linearized_half_width,
        }

    def scaled(self, factor: float) -> "GoalBound":
        """Scale the bound values (not the optimizers) by ``factor``."""
        return GoalBound(
            xi_plus=self.xi_plus * factor,
            xi_minus=self.xi_minus * factor,
            c_star_plus=self.c_star_plus,
            c_star_minus=self.c_star_minus,
            linearized_half_width=self.linearized_half_width * factor,
        )


def linearized_half_width(var_p_f: float, relative_entropy_value: float) -> float:
    """Leading-order half width ``sqrt(Var_p f) sqrt(2 R)``."""
    if var_p_f < 0 or relative_entropy_value < 0:
        raise ParameterError("variance and relative entropy must be nonnegative")
    return math.sqrt(var_p_f) * math.sqrt(2.0 * relative_entropy_value)


def xi_bounds(
    source: CgfSource,
    relative_entropy_value: float,
    *,
    variance: float | None = None,
) -> GoalBound:
    """Optimize the goal-oriented divergences for a given entropy budget.

    ``xi_plus = inf_{c>0} (K(c) + R)/c`` and
    ``xi_minus = sup_{c>0} -(K(-c) + R)/c`` where K is the centered CGF.
    Each optimum is the root of ``c K'(c) - K(c) = R``, solved in log c
    from ``sqrt(2 R / Var)`` (the optimum for ``K = Var c^2 / 2``); each
    bound is ``(K(c) + R) / c`` at the best c evaluated, widened by
    ``2^-46`` relative (``_OUTWARD``).  R = 0 short-circuits to
    exactly (0, 0).  When the slope is still negative at the optimizer's cap
    (c -> inf, e.g. R above ``-log p(argmax f)``), the bound is its value at
    the cap, within ``R / cap`` of the limit.  An ArithmeticError in the
    source counts as a non-finite value, right of the optimum.

    The cap is 1e12 for every source: past an edge of its domain a CGF is
    infinite, and each side's search stops short of its own edge.

    ``variance`` sets the linearized half width and the starting point (the
    cap, if it is 0).  Without it, empirical sources use the exact variance
    and analytic sources a central finite difference of K at 0.  Only an
    empirical source whose centered values are all 0 proves its observable
    constant, and short-circuits to exactly (0, 0).  A zero variance from
    any other source (a difference of K that cancels, say) starts the search
    at the cap; a constant observable then gives ``(R / cap, -R / cap)``.
    """
    r = relative_entropy_value
    if not (0.0 <= r < math.inf):
        raise ParameterError(f"relative entropy must be finite and nonnegative, got {r!r}")
    if r == 0.0:
        return GoalBound(0.0, 0.0, 0.0, 0.0, 0.0)
    if variance is None:
        if isinstance(source, EmpiricalCgf) and source._span == 0.0:
            return GoalBound(0.0, 0.0, 0.0, 0.0, 0.0)
        variance = source.variance()

    cap = 1e12
    # sqrt(2 R) / sqrt(Var), not sqrt(2 R / Var): the ratio can underflow
    c_init = min(math.sqrt(2.0 * r) / math.sqrt(variance), cap) if variance > 0.0 else cap

    def minimize(sign: float) -> tuple[float, float]:
        def objective(c: float) -> tuple[float, float]:  # (K(sign c) + R) / c, d/dc
            try:
                k, slope = source.evaluate(sign * c)
            except ArithmeticError:  # an overflow in the caller's K or K'
                return math.inf, math.nan
            value = (k + r) / c
            return value, (sign * slope - value) / c

        return minimize_positive_scalar(objective, c_init=c_init, hi_cap=cap)

    try:
        (c_plus, xi_plus), (c_minus, neg_xi_minus) = minimize(1.0), minimize(-1.0)
    except ValueError as exc:
        raise UnboundedObservableError(
            "the centered CGF is non-finite on the whole optimization range"
        ) from exc
    return GoalBound(
        xi_plus=xi_plus * _OUTWARD,
        xi_minus=-neg_xi_minus * _OUTWARD,
        c_star_plus=c_plus,
        c_star_minus=c_minus,
        linearized_half_width=linearized_half_width(variance, r),
    )


def xi_tensorized(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    g: Observable,
    n: int,
) -> GoalBound:
    """Per-site goal-oriented bound for the N-fold product problem.

    Both the centered CGF and the relative entropy of product measures scale
    linearly in N for the additive observable ``sum_k g(x_k)``, so the
    per-site bound ``Xi(Q_N || P_N; N f_N) / N`` equals the single-site bound
    and is computed at the single-site level, independent of N.
    """
    from .divergences import _positive_int, relative_entropy

    _positive_int(n, "N")
    return xi_bounds(EmpiricalCgf(p, g), relative_entropy(q, p))


@dataclass(frozen=True, eq=False)
class ExponentialFamily:
    """An exponential family given by its log-normalizer F and gradient.

    ``densities dP^theta/dP^0 = exp(t(x) . theta - F(theta))``; F is convex
    and ``grad F(theta) = E_theta(t)``.  ``param_domain`` optionally restricts
    the admissible parameter vectors; evaluations outside it raise.
    """

    log_normalizer: Callable[[np.ndarray], float]
    grad_log_normalizer: Callable[[np.ndarray], np.ndarray]
    dim: int
    param_domain: Callable[[np.ndarray], bool] | None = None

    def _check_param(self, theta: np.ndarray) -> np.ndarray:
        import numpy as np

        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ParameterError(
                f"parameter must have shape ({self.dim},), got {theta.shape}"
            )
        if self.param_domain is not None and not self.param_domain(theta):
            raise ParameterError(f"parameter {theta!r} outside the family domain")
        return theta

    def F(self, theta: np.ndarray) -> float:
        return float(self.log_normalizer(self._check_param(theta)))

    def grad_F(self, theta: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.asarray(self.grad_log_normalizer(self._check_param(theta)), dtype=float)


def expfam_relative_entropy(
    fam: ExponentialFamily, theta_prime, theta
) -> float:
    """Relative entropy between family members, the Bregman divergence of F.

    ``R(P^theta' || P^theta) = (theta' - theta) . grad F(theta')
    + F(theta) - F(theta')``.
    """
    import numpy as np

    tp = np.asarray(theta_prime, dtype=float)
    t = np.asarray(theta, dtype=float)
    value = float((tp - t) @ fam.grad_F(tp)) + fam.F(t) - fam.F(tp)
    return max(value, 0.0)


def expfam_xi_bounds(
    fam: ExponentialFamily, theta_prime, theta, v
) -> GoalBound:
    """Goal-oriented bounds for the linear observable ``f = t(x) . v``.

    Uses the closed-form centered CGF
    ``K(c) = F(theta + c v) - F(theta) - c v . grad F(theta)``, with slope
    ``K'(c) = v . grad F(theta + c v) - v . grad F(theta)``, together with
    the Bregman relative entropy, then optimizes over c as in
    :func:`xi_bounds`.  K is infinite wherever ``theta + c v`` is outside
    ``param_domain``, so each side searches up to its own edge of the
    family's domain; where either side has no room at ``|c| = 1e-8``,
    CgfDomainError is raised.
    """
    import numpy as np

    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.shape != (fam.dim,):
        raise ParameterError(f"direction must have shape ({fam.dim},)")
    r = expfam_relative_entropy(fam, theta_prime, theta)
    if not np.any(v != 0.0):
        return GoalBound(0.0, 0.0, 0.0, 0.0, 0.0)

    inside = fam.param_domain or (lambda point: True)
    if not (inside(theta + 1e-8 * v) and inside(theta - 1e-8 * v)):
        raise CgfDomainError("no feasible interval of c > 0 along the observable direction")
    f_theta = fam.F(theta)
    slope = float(v @ fam.grad_F(theta))

    def cgf(c: float) -> tuple[float, float]:
        point = theta + c * v
        if not inside(point):
            return math.inf, math.nan
        k = float(fam.log_normalizer(point)) - f_theta - c * slope
        try:
            return k, float(v @ np.asarray(fam.grad_log_normalizer(point), dtype=float)) - slope
        except ArithmeticError:  # a NaN slope: the optimizer differences K
            return k, math.nan

    return xi_bounds(AnalyticCgf(fn=cgf, check_contract=False), r)
