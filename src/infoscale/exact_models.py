"""Closed-form thermodynamic-limit quantities for exactly solvable models.

Covers the one-dimensional Ising chain, the zero-field square-lattice Ising
model, and the mean-field (Curie-Weiss type) approximation, plus the
cross-model relative-entropy rates and per-site cumulant generating
functions used to assemble phase-diagram uncertainty bounds.

All pressures here are per-site log partition functions in the infinite
volume limit; couplings are in energy units with the inverse temperature
carried separately.  Internal lookups share a small memo of mean-field
solutions keyed by the (frozen, hashable) parameters, so a grid point solves
each mean-field model once however often its CGF is evaluated.
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


@dataclass(frozen=True)
class Ising1DParams:
    """Nearest-neighbor Ising chain: coupling J and external field h at
    inverse temperature beta."""

    beta: float
    J: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0):
            raise ParameterError("inverse temperature must be positive")


@dataclass(frozen=True)
class Ising2DParams:
    """Square-lattice zero-field Ising model.  ``branch`` selects the sign of
    the spontaneous magnetization (the h -> 0+ or h -> 0- definition)."""

    beta: float
    J: float = 1.0
    branch: str = "plus"

    def __post_init__(self):
        if not (self.beta > 0):
            raise ParameterError("inverse temperature must be positive")
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
        if not (self.beta > 0):
            raise ParameterError("inverse temperature must be positive")
        if self.d < 1 or int(self.d) != self.d:
            raise ParameterError("dimension must be a positive integer")
        if self.branch not in ("upper", "lower"):
            raise ParameterError(f"branch must be 'upper' or 'lower', got {self.branch!r}")


ModelSpec = Union[Ising1DParams, Ising2DParams, MeanFieldParams]


# ---------------------------------------------------------------------------
# One-dimensional Ising chain
# ---------------------------------------------------------------------------

def _ising1d_scaled(bj: float, y: float) -> tuple[float, float, float]:
    """``(e^{-2|y|}, k1 e^{-|y|}, (e^{bJ} cosh y + k1) e^{-|y|})`` with
    ``k1 = sqrt(e^{2bJ} sinh^2 y + e^{-2bJ})``, finite for any tilt y."""
    u = math.exp(-2.0 * abs(y))
    k = math.sqrt(math.exp(2.0 * bj) * (1.0 - u) ** 2 / 4.0 + u * math.exp(-2.0 * bj))
    return u, k, math.exp(bj) * (1.0 + u) / 2.0 + k


def ising1d_pressure_tilted(beta: float, J: float, y: float) -> float:
    """Pressure of the chain as a function of the field tilt y = beta*h.

    Equals ``log(e^{bJ} cosh y + sqrt(e^{2bJ} sinh^2 y + e^{-2bJ}))``,
    evaluated overflow-safely by :func:`_ising1d_scaled`.
    """
    _, _, top = _ising1d_scaled(beta * J, y)
    return abs(y) + math.log(top)


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
    factor e^{|bh|} divided out.
    """
    bj, y = params.beta * params.J, params.beta * params.h
    u, k, top = _ising1d_scaled(bj, y)
    m = math.exp(bj) * (1.0 - u) / 2.0 / k
    return Ising1DQuantities(
        magnetization=-m if y < 0.0 else m,
        pressure=abs(y) + math.log(top),
        nn_correlation=1.0 - 2.0 * u * math.exp(-2.0 * bj) / (k * top),
        variance_per_site=math.exp(-bj) * u * (1.0 + u) / 2.0 / k**3,
    )


# ---------------------------------------------------------------------------
# Square-lattice zero-field Ising model
# ---------------------------------------------------------------------------

def ising2d_critical_beta(J: float) -> float:
    """Self-dual point ``log(1 + sqrt(2)) / (2 J)`` where sinh(2 beta J) = 1."""
    return math.log(1.0 + math.sqrt(2.0)) / (2.0 * J)


def _onsager_k(s: float, theta: float) -> float:
    # sqrt(s^2 + 1 - 2 s cos 2 theta) without cancellation to 0 when s ~ 1.
    return math.sqrt((s - 1.0) ** 2 + 4.0 * s * math.sin(theta) ** 2)


def onsager_pressure(beta: float, J: float) -> float:
    """Exact pressure ``log2/2 + (2 pi)^-1 int_0^pi log[cosh^2(2bJ) + k] dtheta``."""
    s = math.sinh(2.0 * beta * J) ** 2
    cosh2 = 1.0 + s
    tol = 1e-8 if abs(s - 1.0) < 1e-3 else 1e-10
    integral = adaptive_simpson(
        lambda theta: math.log(cosh2 + _onsager_k(s, theta)), 0.0, math.pi, tol=tol
    )
    return 0.5 * math.log(2.0) + integral / (2.0 * math.pi)


def onsager_bond_density(beta: float, J: float) -> float:
    """Per-site nearest-neighbor sum ``lim N^-1 E(sum_<xy> s_x s_y)``.

    The textbook integrand ``k^-1 [1 - (1 + cos 2 theta)/(cosh^2(2bJ) + k)]``
    reduces algebraically to ``(s + k - 1) / (2 s k)`` with
    ``s = sinh^2(2bJ)``, which stays regular through the critical point where
    it degenerates to the constant 1/2.
    """
    s = math.sinh(2.0 * beta * J) ** 2
    if abs(s - 1.0) < 1e-14:
        return math.sinh(4.0 * beta * J) / 2.0
    tol = 1e-8 if abs(s - 1.0) < 1e-3 else 1e-10
    integral = adaptive_simpson(
        lambda theta: (s + _onsager_k(s, theta) - 1.0) / (2.0 * s * _onsager_k(s, theta)),
        0.0,
        math.pi,
        tol=tol,
    )
    return math.sinh(4.0 * beta * J) / math.pi * integral


@dataclass(frozen=True)
class Ising2DQuantities:
    spontaneous_magnetization: float
    pressure: float
    nn_correlation: float


def _spontaneous_magnetization(params: Ising2DParams) -> float:
    """``[1 - sinh^-4(2bJ)]^{1/8}`` above the critical coupling (0 below),
    with the sign of the branch."""
    beta, J = params.beta, params.J
    if beta > ising2d_critical_beta(J):
        s = math.sinh(2.0 * beta * J) ** 2
        m0 = (1.0 - 1.0 / (s * s)) ** 0.125
    else:
        m0 = 0.0
    return -m0 if params.branch == "minus" else m0


def ising2d_quantities(params: Ising2DParams) -> Ising2DQuantities:
    """Spontaneous magnetization (closed form), pressure and bond density;
    only the last two run a quadrature."""
    return Ising2DQuantities(
        spontaneous_magnetization=_spontaneous_magnetization(params),
        pressure=onsager_pressure(params.beta, params.J),
        nn_correlation=onsager_bond_density(params.beta, params.J),
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


@functools.lru_cache(maxsize=8)
def _solved(params: MeanFieldParams) -> MeanFieldQuantities:
    """Memoized :func:`meanfield_solve` for the lookups below; the public
    function stays uncached, so each of its calls is a real solve."""
    return meanfield_solve(params)


# ---------------------------------------------------------------------------
# Cross-model quantities
# ---------------------------------------------------------------------------

def magnetization(model: ModelSpec) -> float:
    if isinstance(model, Ising1DParams):
        return ising1d_quantities(model).magnetization
    if isinstance(model, Ising2DParams):
        return _spontaneous_magnetization(model)
    if isinstance(model, MeanFieldParams):
        return _solved(model).m
    raise UnsupportedModelError(f"unknown model {model!r}")


def pressure(model: ModelSpec) -> float:
    if isinstance(model, Ising1DParams):
        return ising1d_quantities(model).pressure
    if isinstance(model, Ising2DParams):
        return onsager_pressure(model.beta, model.J)
    if isinstance(model, MeanFieldParams):
        return _solved(model).pressure
    raise UnsupportedModelError(f"unknown model {model!r}")


def variance_per_site(model: ModelSpec) -> float:
    if isinstance(model, Ising1DParams):
        return ising1d_quantities(model).variance_per_site
    if isinstance(model, MeanFieldParams):
        return _solved(model).variance_per_site
    raise UnsupportedModelError(
        "per-site variance has no closed form for this model here"
    )


def _energy_coefficients(model: ModelSpec) -> tuple[float, float]:
    """(bond coefficient, field coefficient): the per-site Hamiltonian is
    ``-a_bond * (nn bond sum) - a_field * (spin sum)`` per site."""
    if isinstance(model, Ising1DParams):
        return model.beta * model.J, model.beta * model.h
    if isinstance(model, Ising2DParams):
        return model.beta * model.J, 0.0
    if isinstance(model, MeanFieldParams):
        return 0.0, model.beta * _solved(model).h_mf
    raise UnsupportedModelError(f"unknown model {model!r}")


def _bond_density(model: ModelSpec) -> float:
    if isinstance(model, Ising1DParams):
        return ising1d_quantities(model).nn_correlation
    if isinstance(model, Ising2DParams):
        return onsager_bond_density(model.beta, model.J)
    raise UnsupportedModelError("bond density is only needed for Ising targets")


_SUPPORTED_PAIRS = {
    (MeanFieldParams, MeanFieldParams),
    (Ising1DParams, MeanFieldParams),
    (Ising2DParams, MeanFieldParams),
    (Ising1DParams, Ising1DParams),
}


def cross_model_re_rate(model_q: ModelSpec, model_p: ModelSpec) -> float:
    """Per-site relative entropy rate ``lim N^-1 R(mu_Q || mu_P)``.

    Evaluated through the Gibbs identity
    ``pressure(P) - pressure(Q) + lim N^-1 E_Q(H_P - H_Q)``, with the energy
    expectation assembled from Q's exact bond density and magnetization.
    Supported ordered pairs: (mean field, mean field), (Ising 1-D, mean
    field), (Ising 2-D, mean field), (Ising 1-D, Ising 1-D).
    """
    pair = (type(model_q), type(model_p))
    if pair not in _SUPPORTED_PAIRS:
        raise UnsupportedModelError(
            f"no closed-form relative entropy rate for {pair[0].__name__} "
            f"versus {pair[1].__name__}"
        )
    bond_q, field_q = _energy_coefficients(model_q)
    bond_p, field_p = _energy_coefficients(model_p)
    m_q = magnetization(model_q)
    energy_gap = (field_q - field_p) * m_q
    if bond_q != bond_p:
        energy_gap += (bond_q - bond_p) * _bond_density(model_q)
    rate = pressure(model_p) - pressure(model_q) + energy_gap
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
        x = model_p.beta * _solved(model_p).h_mf
        if abs(c) > 1.0:
            return _log_two_cosh(c + x) - _log_two_cosh(x)
        # log[cosh c + tanh(x) sinh c] in log1p form: the difference above
        # carries an absolute error of ~1e-16, which (K(c) + R)/c divides by c.
        return math.log1p(2.0 * math.sinh(0.5 * c) ** 2 + math.tanh(x) * math.sinh(c))
    if isinstance(model_p, Ising1DParams):
        y = model_p.beta * model_p.h
        return ising1d_pressure_tilted(
            model_p.beta, model_p.J, y + c
        ) - ising1d_pressure_tilted(model_p.beta, model_p.J, y)
    raise UnsupportedModelError(
        f"no closed-form CGF for baseline {type(model_p).__name__}"
    )


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


def _with_parameter(model: ModelSpec, name: str, value: float) -> ModelSpec:
    if name == "beta":
        return replace(model, beta=value)
    if name == "h":
        if isinstance(model, Ising2DParams):
            raise ParameterError("the 2-D Ising model has no field parameter to sweep")
        return replace(model, h=value)
    raise ParameterError(f"sweep parameter must be 'beta' or 'h', got {name!r}")


def phase_bound_point(
    model_q: ModelSpec, model_p: ModelSpec, param_value: float, sweep_parameter: str
) -> PhasePoint:
    """Bounds on the target-model magnetization at one grid point.

    The baseline magnetization plus :func:`~infoscale.goal_oriented.xi_bounds`
    of the baseline's centered per-site CGF (``model_cgf`` minus its linear
    term) at the cross-model relative entropy rate; identical models give
    the baseline magnetization back on both sides.
    """
    qp = _with_parameter(model_q, sweep_parameter, param_value)
    pp = _with_parameter(model_p, sweep_parameter, param_value)
    baseline = magnetization(pp)
    true_qoi = magnetization(qp)
    rate = cross_model_re_rate(qp, pp)
    source = AnalyticCgf(fn=lambda c: model_cgf(pp, c) - c * baseline, check_contract=False)
    bound = xi_bounds(source, rate, variance=variance_per_site(pp))
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


def phase_bound(
    model_q: ModelSpec,
    model_p: ModelSpec,
    sweep_parameter: str,
    values,
) -> list[PhasePoint]:
    """Evaluate :func:`phase_bound_point` over a parameter grid, in order."""
    return [
        phase_bound_point(model_q, model_p, float(v), sweep_parameter) for v in values
    ]
