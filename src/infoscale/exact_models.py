"""Closed-form thermodynamic-limit quantities for exactly solvable models.

Covers the one-dimensional Ising chain, the zero-field square-lattice Ising
model, and the mean-field (Curie-Weiss type) approximation, plus the
cross-model relative-entropy rates and per-site cumulant generating
functions used to assemble phase-diagram uncertainty bounds.

Everything is a closed form except the 2-D pressure, Onsager's integral
over theta, which runs one adaptive Simpson quadrature per call; the 2-D
bond density goes through the complete elliptic integral K, computed by the
arithmetic-geometric mean (Abramowitz & Stegun 17.6).

All pressures here are per-site log partition functions in the infinite
volume limit; couplings are in energy units with the inverse temperature
carried separately.  The rate, CGF and bound functions read one record per
model, :func:`model_solution`, memoized on the (frozen, hashable)
parameters, so a grid point solves each of its models once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Union

from .errors import NumericsError, ParameterError, UnsupportedModelError
from .goal_oriented import AnalyticCgf, xi_bounds
from .quadrature import adaptive_simpson


def _log_two_cosh(t: float) -> float:
    """log(2 cosh t), overflow-safe for any t."""
    a = abs(t)
    return a + math.log1p(math.exp(-2.0 * a))


def _check_params(params, *names: str) -> None:
    """Reject a non-finite one of ``names``, and a ``beta`` that is not positive."""
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if not (params.beta > 0):
        raise ParameterError("inverse temperature must be positive")


@dataclass(frozen=True)
class Ising1DParams:
    """Nearest-neighbor Ising chain: coupling J and external field h at
    inverse temperature beta."""

    beta: float
    J: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        _check_params(self, "beta", "J", "h")


@dataclass(frozen=True)
class Ising2DParams:
    """Square-lattice zero-field Ising model.  ``branch`` selects the sign of
    the spontaneous magnetization (the h -> 0+ or h -> 0- definition)."""

    beta: float
    J: float = 1.0
    branch: str = "plus"

    def __post_init__(self):
        _check_params(self, "beta", "J")
        if self.branch not in ("plus", "minus"):
            raise ParameterError(f"branch must be 'plus' or 'minus', got {self.branch!r}")


@dataclass(frozen=True)
class MeanFieldParams:
    """Mean-field model: a product measure with effective field h + J d m.

    ``branch`` picks the sign of m in the zero-field symmetry-broken regime
    (upper: m >= 0, lower: m <= 0); with a nonzero field the root sharing the
    sign of h (the stable branch) is used regardless.
    """

    beta: float
    J: float = 1.0
    h: float = 0.0
    d: int = 1
    branch: str = "upper"

    def __post_init__(self):
        _check_params(self, "beta", "J", "h")
        if not (self.d >= 1 and float(self.d).is_integer()):
            raise ParameterError("dimension must be a positive integer")
        if self.branch not in ("upper", "lower"):
            raise ParameterError(f"branch must be 'upper' or 'lower', got {self.branch!r}")


ModelSpec = Union[Ising1DParams, Ising2DParams, MeanFieldParams]


# ---------------------------------------------------------------------------
# One-dimensional Ising chain
# ---------------------------------------------------------------------------

def _ising1d_scaled(bj: float, y: float) -> tuple[float, float, float, float, float]:
    """``(u, v, g, k, top)`` with ``u = e^{-2|y|}``, ``v = 1 - u``,
    ``g = e^{-|y| - 2bJ}``, ``k = sqrt(v^2/4 + g^2)`` and
    ``top = (1 + u)/2 + k``.

    ``k`` and ``top`` are ``k1 = sqrt(e^{2bJ} sinh^2 y + e^{-2bJ})`` and
    ``e^{bJ} cosh y + k1`` with ``e^{bJ + |y|}`` divided out, so they stay
    finite for any tilt y and any ``bJ >= 0``; ``hypot`` keeps ``k`` from
    underflowing where ``g^2`` would, and ``v`` comes from ``expm1`` so it
    keeps its digits at small fields.
    """
    u = math.exp(-2.0 * abs(y))
    v = -math.expm1(-2.0 * abs(y))
    g = math.exp(-abs(y) - 2.0 * bj)
    k = math.hypot(v / 2.0, g)
    return u, v, g, k, (1.0 + u) / 2.0 + k


def ising1d_pressure_tilted(beta: float, J: float, y: float) -> float:
    """Pressure of the chain as a function of the field tilt y = beta*h.

    Equals ``log(e^{bJ} cosh y + sqrt(e^{2bJ} sinh^2 y + e^{-2bJ}))``,
    evaluated overflow-safely by :func:`_ising1d_scaled`.
    """
    bj = beta * J
    *_, top = _ising1d_scaled(bj, y)
    return abs(y) + (bj + math.log(top))


@dataclass(frozen=True)
class Ising1DQuantities:
    magnetization: float
    pressure: float
    nn_correlation: float
    variance_per_site: float


def ising1d_quantities(params: Ising1DParams) -> Ising1DQuantities:
    """Exact chain quantities.

    With ``k1 = sqrt(e^{2bJ} sinh^2(bh) + e^{-2bJ})``:
    magnetization ``e^{bJ} sinh(bh)/k1``, pressure
    ``log(e^{bJ} cosh(bh) + k1)``, nearest-neighbor correlation
    ``1 - 2 e^{-2bJ} / (k1 (e^{bJ} cosh(bh) + k1))`` and per-site variance
    (susceptibility over beta) ``e^{-bJ} cosh(bh) / k1^3``, all with the
    factor e^{bJ + |bh|} divided out (see :func:`_ising1d_scaled`).  Near
    ``h = 0`` the variance ``e^{2bJ}`` leaves the float range past
    ``bJ ~ 355``, which raises an ArithmeticError.
    """
    bj, y = params.beta * params.J, params.beta * params.h
    u, _, g, k, top = _ising1d_scaled(bj, y)
    ratio = g / k  # in [0, 1]; g^2 itself underflows long before k does
    variance = ratio * ratio * (1.0 + u) / 2.0 / k
    if math.isinf(variance):
        raise OverflowError("per-site variance beyond the float range")
    return Ising1DQuantities(
        magnetization=_tilted_magnetization(params, 0.0),
        pressure=abs(y) + (bj + math.log(top)),
        nn_correlation=1.0 - 2.0 * ratio * g / top,
        variance_per_site=variance,
    )


# ---------------------------------------------------------------------------
# Square-lattice zero-field Ising model
# ---------------------------------------------------------------------------

def ising2d_critical_beta(J: float) -> float:
    """Self-dual point ``log(1 + sqrt(2)) / (2 J)`` where sinh(2 beta J) = 1."""
    return math.log(1.0 + math.sqrt(2.0)) / (2.0 * J)


def onsager_pressure(beta: float, J: float) -> float:
    """Exact pressure ``log2/2 + (2 pi)^-1 int_0^pi log[cosh^2(2bJ) + k] dtheta``
    with ``k = sqrt(s^2 + 1 - 2 s cos 2 theta)`` and ``s = sinh^2(2bJ)``.

    ``k`` depends on theta only through ``sin^2 theta``, so the quadrature
    runs over the half period ``[0, pi/2]`` and divides by pi.  It is the one
    quadrature of the 2-D model; ``k`` is taken as
    ``hypot(s - 1, 2 sqrt(s) sin theta)``, which does not cancel to 0 at
    ``s ~ 1`` and does not square s, which overflows from beta J ~ 89.
    """
    s = math.sinh(2.0 * beta * J) ** 2
    cosh2 = 1.0 + s
    if not math.isfinite(cosh2 + s):
        # The integrand log(cosh^2 + k), with k up to 1 + s, would be inf on
        # [0, pi/2], and the quadrature would refine it to its panel limit.
        raise OverflowError("cosh^2(2bJ) + k beyond the float range")
    s_minus_1, two_root_s = s - 1.0, 2.0 * math.sqrt(s)
    tol = 1e-8 if abs(s_minus_1) < 1e-3 else 1e-10
    integral = adaptive_simpson(
        lambda theta: math.log(cosh2 + math.hypot(s_minus_1, two_root_s * math.sin(theta))),
        0.0,
        0.5 * math.pi,
        tol=0.5 * tol,
    )
    return 0.5 * math.log(2.0) + integral / math.pi


# The AGM converges quadratically: it takes at most 9 steps, next to beta_c
# where k' is smallest; the cap only guards against a loop that never ends.
_AGM_MAX_STEPS = 64


def onsager_bond_density(beta: float, J: float) -> float:
    """Per-site nearest-neighbor sum ``lim N^-1 E(sum_<xy> s_x s_y)``, in
    Onsager's closed form (Onsager 1944): with ``t = tanh(2bJ)``,
    ``u = coth(2bJ) [1 + (2/pi) (2 t^2 - 1) K(k)]``, where K is the complete
    elliptic integral of the first kind at modulus
    ``k = 2 sinh(2bJ) / cosh^2(2bJ)``.

    ``K = pi / (2 agm(1, k'))`` (Abramowitz & Stegun 17.6) with the
    complementary modulus ``k' = |2 t^2 - 1|``, which follows from
    ``1 - k^2 = ((s - 1)/(s + 1))^2`` for ``s = sinh^2(2bJ)``; k itself is
    never formed, since it rounds above 1 next to beta_c.  The AGM is
    accumulated as ``1 - agm = sum c_n`` over its positive half-differences
    ``c_1 = (1 - k')/2`` (``1 - t^2`` or ``t^2``) and
    ``c_{n+1} = c_n^2 / (2 (a_n + b_n))``, so
    ``u = (2 t^2 - sum c) / (t (1 - sum c))`` neither cancels at small bJ
    nor overflows at large bJ.  At ``2 t^2 = 1`` (beta_c) the product
    ``(2 t^2 - 1) K`` vanishes and u is ``coth(2bJ)``.
    """
    t = math.tanh(2.0 * beta * J)
    signed_kp = 2.0 * t * t - 1.0
    if signed_kp == 0.0:
        return 1.0 / t
    c = 1.0 - t * t if signed_kp > 0.0 else t * t
    a, b = 1.0 - c, math.sqrt(abs(signed_kp))
    deficit = c
    for _ in range(_AGM_MAX_STEPS):
        c = c * c / (2.0 * (a + b))
        deficit += c
        if c <= deficit * 2.0**-53:
            break
        a, b = a - c, math.sqrt(a * b)
    return (2.0 * t * t - deficit) / (t * (1.0 - deficit))


@dataclass(frozen=True)
class Ising2DQuantities:
    spontaneous_magnetization: float
    pressure: float
    nn_correlation: float


def ising2d_quantities(params: Ising2DParams) -> Ising2DQuantities:
    """Spontaneous magnetization ``[1 - sinh^-4(2bJ)]^{1/8}`` above the
    critical coupling (0 below, with the sign of the branch; Yang's formula),
    bond density in Onsager's elliptic-integral form, and the pressure, which
    alone runs a quadrature."""
    beta, J = params.beta, params.J
    m0 = 0.0
    if beta > ising2d_critical_beta(J):
        s = math.sinh(2.0 * beta * J) ** 2
        m0 = (1.0 - 1.0 / (s * s)) ** 0.125
    return Ising2DQuantities(
        spontaneous_magnetization=-m0 if params.branch == "minus" else m0,
        pressure=onsager_pressure(beta, J),
        nn_correlation=onsager_bond_density(beta, J),
    )


# ---------------------------------------------------------------------------
# Mean field
# ---------------------------------------------------------------------------

def _bisect_root(f, lo: float, hi: float) -> float:
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MeanFieldQuantities:
    m: float
    h_mf: float
    pressure: float
    variance_per_site: float


def meanfield_solve(params: MeanFieldParams) -> MeanFieldQuantities:
    """Solve ``m = tanh(beta (h + J d m))`` and return the derived quantities.

    Bisection on [-1, 1]: for h = 0 the sign is chosen by the branch (the
    origin is the unique root when ``beta J d <= 1``); for h != 0 the root
    with the sign of h — the stable branch — is bracketed directly.  The
    fixed-point residual at the returned m is below 1e-12.
    """
    beta, J, h, d = params.beta, params.J, params.h, params.d
    slope = beta * J * d

    def gap(m: float) -> float:
        return math.tanh(beta * h + slope * m) - m

    if h == 0.0:
        if slope <= 1.0:
            m = 0.0
        else:
            m = _bisect_root(gap, 1e-12, 1.0)
            if params.branch == "lower":
                m = -m
    elif h > 0.0:
        m = _bisect_root(gap, 0.0, 1.0)
    else:
        # gap(-1) > 0 > gap(0), mirror of the h > 0 case.
        m = _bisect_root(gap, -1.0, 0.0)

    if abs(gap(m)) > 1e-12:
        raise NumericsError(f"mean-field fixed point residual {gap(m)!r} > 1e-12")
    h_mf = h + J * d * m
    return MeanFieldQuantities(
        m=m,
        h_mf=h_mf,
        pressure=_log_two_cosh(beta * h_mf),
        variance_per_site=1.0 - m * m,
    )


# ---------------------------------------------------------------------------
# Cross-model quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSolution:
    """What the cross-model formulas read of one model.

    The per-site Hamiltonian is ``-bond_coeff * (nn bond sum) - field_coeff
    * (spin sum)``, beta included; mean field has no bond term (its
    ``bond_density`` is NaN) and the 2-D model is never a baseline (its
    ``variance_per_site`` is NaN).
    """

    magnetization: float
    pressure: float
    bond_density: float
    variance_per_site: float
    bond_coeff: float
    field_coeff: float


@functools.lru_cache(maxsize=8)
def model_solution(model: ModelSpec) -> ModelSolution:
    """The closed-form solution of one model, memoized on its (frozen)
    parameters, so a grid point solves each of its models once however
    often its rate or CGF is evaluated."""
    if isinstance(model, Ising1DParams):
        q = ising1d_quantities(model)
        return ModelSolution(q.magnetization, q.pressure, q.nn_correlation,
                             q.variance_per_site, model.beta * model.J, model.beta * model.h)
    if isinstance(model, Ising2DParams):
        q = ising2d_quantities(model)
        return ModelSolution(q.spontaneous_magnetization, q.pressure, q.nn_correlation,
                             math.nan, model.beta * model.J, 0.0)
    if isinstance(model, MeanFieldParams):
        q = meanfield_solve(model)
        return ModelSolution(q.m, q.pressure, math.nan, q.variance_per_site,
                             0.0, model.beta * q.h_mf)
    raise UnsupportedModelError(f"unknown model {model!r}")


_SUPPORTED_PAIRS = {
    (MeanFieldParams, MeanFieldParams),
    (Ising1DParams, MeanFieldParams),
    (Ising2DParams, MeanFieldParams),
    (Ising1DParams, Ising1DParams),
}


def _check_supported_pair(model_q: ModelSpec, model_p: ModelSpec) -> None:
    pair = (type(model_q), type(model_p))
    if pair not in _SUPPORTED_PAIRS:
        raise UnsupportedModelError(
            f"no closed-form relative entropy rate for {pair[0].__name__} "
            f"versus {pair[1].__name__}"
        )


def check_phase_sweep(model_q: ModelSpec, model_p: ModelSpec, sweep_parameter: str) -> None:
    """Raise unless :func:`phase_bound_point` can evaluate this target,
    baseline and sweep parameter: the pair must have a closed-form rate, and
    a field sweep needs a field on both sides, which the 2-D model lacks."""
    if sweep_parameter not in ("beta", "h"):
        raise ParameterError(f"sweep parameter must be 'beta' or 'h', got {sweep_parameter!r}")
    if sweep_parameter == "h" and Ising2DParams in (type(model_q), type(model_p)):
        raise ParameterError("the 2-D Ising model has no field parameter to sweep")
    _check_supported_pair(model_q, model_p)


def cross_model_re_rate(model_q: ModelSpec, model_p: ModelSpec) -> float:
    """Per-site relative entropy rate ``lim N^-1 R(mu_Q || mu_P)``.

    Evaluated through the Gibbs identity
    ``pressure(P) - pressure(Q) + lim N^-1 E_Q(H_P - H_Q)``, with the energy
    expectation assembled from Q's exact bond density and magnetization.
    Supported ordered pairs: (mean field, mean field), (Ising 1-D, mean
    field), (Ising 2-D, mean field), (Ising 1-D, Ising 1-D).

    A same-bond pair (mean field against mean field, or 1-D chains at one
    ``beta J``) differs only in the field, and the identity is then Q's
    centred CGF at the gap ``d = field_coeff(P) - field_coeff(Q)``,
    ``model_cgf(Q, d) - d m_Q``, with an absolute error of a few
    ``1e-16 |d m_Q|`` (for ``|d| <= 1``; past that the CGF is itself a
    difference of pressures).  Otherwise the rate is a difference of O(1)
    pressures, so its absolute error floor is about 1e-16: a smaller true
    rate comes back as rounding noise.  Next to a mean-field critical point
    (slope ``beta J d = 1``) the magnetization adds its own error, since
    :func:`meanfield_solve` cannot resolve ``|m| < 1.7e-8`` there: the gap
    ``tanh(m) - m ~ -m^3/3`` is below the spacing of m.
    """
    _check_supported_pair(model_q, model_p)
    q, p = model_solution(model_q), model_solution(model_p)
    if type(model_q) is type(model_p) and q.bond_coeff == p.bond_coeff:
        gap = p.field_coeff - q.field_coeff
        rate = model_cgf(model_q, gap) - gap * q.magnetization
    else:
        energy_gap = (q.field_coeff - p.field_coeff) * q.magnetization
        energy_gap += (q.bond_coeff - p.bond_coeff) * q.bond_density
        rate = p.pressure - q.pressure + energy_gap
    if rate < -1e-9:
        raise NumericsError(f"relative entropy rate evaluated to {rate!r} < 0")
    return max(rate, 0.0)


def model_cgf(model_p: ModelSpec, c: float) -> float:
    """Per-site uncentered CGF of the extensive magnetization under model P.

    Mean field: ``log[cosh(c + beta h_mf) / cosh(beta h_mf)]``.
    Ising 1-D: pressure with the field tilt shifted by c, minus the pressure
    (a field shift h -> h + c/beta).  The 2-D model is not a supported
    baseline.
    """
    if isinstance(model_p, MeanFieldParams):
        x = model_solution(model_p).field_coeff
        if abs(c) > 1.0:
            return _log_two_cosh(c + x) - _log_two_cosh(x)
        # log[cosh c + tanh(x) sinh c] in log1p form: the difference above
        # carries an absolute error of ~1e-16, which (K(c) + R)/c divides by c.
        return math.log1p(2.0 * math.sinh(0.5 * c) ** 2 + math.tanh(x) * math.sinh(c))
    if isinstance(model_p, Ising1DParams):
        y = model_p.beta * model_p.h
        if 0.0 < abs(c) <= 1.0 and abs(y) <= 300.0:  # sinh(2y + c) overflows past ~354
            # With S(t) = sqrt(sinh^2 t + e^{-4 beta J}) the pressure is
            # beta J + log(cosh t + S(t)); the difference in log1p form, its
            # numerator written without cancellation, keeps chi c^2/2 at tiny c.
            floor = math.exp(-4.0 * model_p.beta * model_p.J)
            s_y, s_yc = (math.sqrt(math.sinh(t) ** 2 + floor) for t in (y, y + c))
            rise = 2.0 * math.sinh(y + 0.5 * c) * math.sinh(0.5 * c)
            rise += math.sinh(2.0 * y + c) * math.sinh(c) / (s_yc + s_y)
            return math.log1p(rise / (math.cosh(y) + s_y))
        return ising1d_pressure_tilted(
            model_p.beta, model_p.J, y + c
        ) - ising1d_pressure_tilted(model_p.beta, model_p.J, y)
    raise UnsupportedModelError(
        f"no closed-form CGF for baseline {type(model_p).__name__}"
    )


def _tilted_magnetization(model_p: ModelSpec, c: float) -> float:
    """The slope of :func:`model_cgf` at c: P's magnetization at field tilt
    shifted by c (``tanh(c + beta h_mf)`` for mean field)."""
    if isinstance(model_p, MeanFieldParams):
        return math.tanh(c + model_solution(model_p).field_coeff)
    y = model_p.beta * model_p.h + c
    _, v, _, k, _ = _ising1d_scaled(model_p.beta * model_p.J, y)
    return -v / 2.0 / k if y < 0.0 else v / 2.0 / k


# ---------------------------------------------------------------------------
# Phase-diagram bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """One grid point of a phase-diagram sweep with its bounds."""

    param: float
    baseline_qoi: float
    true_qoi: float
    xi_lower: float
    xi_upper: float
    lin_lower: float
    lin_upper: float
    re_rate: float

    FIELDS = (
        "param",
        "baseline_qoi",
        "true_qoi",
        "xi_lower",
        "xi_upper",
        "lin_lower",
        "lin_upper",
        "re_rate",
    )

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in self.FIELDS)


def phase_bound_point(
    model_q: ModelSpec, model_p: ModelSpec, param_value: float, sweep_parameter: str
) -> PhasePoint:
    """Bounds on the target-model magnetization at one grid point.

    The baseline magnetization plus :func:`~infoscale.goal_oriented.xi_bounds`
    of the baseline's centered per-site CGF (``model_cgf`` minus its linear
    term, and the tilted magnetization minus the baseline's as its slope) at
    the cross-model relative entropy rate; identical models give the
    baseline magnetization back on both sides.
    """
    check_phase_sweep(model_q, model_p, sweep_parameter)
    qp = replace(model_q, **{sweep_parameter: param_value})
    pp = replace(model_p, **{sweep_parameter: param_value})
    try:
        base = model_solution(pp)
        baseline = base.magnetization
        true_qoi = model_solution(qp).magnetization
        rate = cross_model_re_rate(qp, pp)
        source = AnalyticCgf(fn=lambda c: (model_cgf(pp, c) - c * baseline,
                                           _tilted_magnetization(pp, c) - baseline),
                             check_contract=False)
        bound = xi_bounds(source, rate, variance=base.variance_per_site)
    except ArithmeticError as exc:  # overflow of an exact formula far from its range
        raise NumericsError(f"{sweep_parameter} = {param_value!r}: {exc}") from exc
    return PhasePoint(
        param=param_value,
        baseline_qoi=baseline,
        true_qoi=true_qoi,
        xi_lower=baseline + bound.xi_minus,
        xi_upper=baseline + bound.xi_plus,
        lin_lower=baseline - bound.linearized_half_width,
        lin_upper=baseline + bound.linearized_half_width,
        re_rate=rate,
    )
