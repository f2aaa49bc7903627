"""Markov-chain divergence rates and steady-state goal-oriented bounds.

Rates are per-step limits of path-measure divergences: the relative entropy
rate is a stationary average of row-wise KL divergences, while Renyi-type
rates are logarithms of Perron roots of entrywise-tilted transition matrices.
The steady-state QoI gap ``E_{mu_q}(g) - E_{mu_p}(g)`` is sandwiched by
optimizing ``(lambda_{p,g}(c) + r)/c`` over c, exactly as in the
single-measure goal-oriented bound with the CGF replaced by the principal
eigenvalue curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergences import DiscreteDistribution, DivergenceReport, Observable, _logsumexp
from .errors import (
    AbsoluteContinuityError,
    DimensionError,
    EnumerationLimitError,
    NormalizationError,
    NumericsError,
    ParameterError,
    StructureError,
)
from .goal_oriented import AnalyticCgf, GoalBound, xi_bounds

_ROW_SUM_TOL = 1e-12
_PERRON_TOL = 1e-13
_PERRON_STALL_LIMIT = 600
_PATH_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A row-stochastic, irreducible transition matrix on a finite state space."""

    rows: np.ndarray
    labels: tuple[str, ...] | None = None

    def __init__(self, rows, labels=None):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DimensionError("transition matrix must be square and nonempty")
        if not np.all(np.isfinite(arr)):
            raise NormalizationError("transition matrix contains non-finite entries")
        if np.any(arr < 0):
            raise NormalizationError("transition probabilities must be nonnegative")
        row_sums = arr.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_TOL):
            raise NormalizationError(
                f"rows must sum to 1 within {_ROW_SUM_TOL}; sums are {row_sums!r}"
            )
        if not _is_irreducible(arr > 0):
            raise StructureError("transition matrix is reducible")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != arr.shape[0]:
                raise DimensionError("label count does not match the state count")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return int(self.rows.shape[0])

    def mutually_absolutely_continuous_with(self, other: "TransitionMatrix") -> bool:
        _check_same_space(self, other)
        return bool(np.all((self.rows > 0) == (other.rows > 0)))

    def is_aperiodic(self) -> bool:
        return _period(self.rows > 0) == 1


def _check_same_space(p: TransitionMatrix, q: TransitionMatrix) -> None:
    if p.size != q.size:
        raise DimensionError(f"state space sizes differ: {p.size} vs {q.size}")


def _require_mutual_row_ac(q: TransitionMatrix, p: TransitionMatrix) -> None:
    _check_same_space(q, p)
    if not q.mutually_absolutely_continuous_with(p):
        raise AbsoluteContinuityError(
            "rate undefined: the rows of the two chains are not mutually "
            "absolutely continuous"
        )


def _is_irreducible(adjacency: np.ndarray) -> bool:
    n = adjacency.shape[0]
    reach = adjacency | np.eye(n, dtype=bool)
    for _ in range(int(math.ceil(math.log2(max(n, 2)))) + 1):
        new = reach | (reach @ reach)
        if np.array_equal(new, reach):
            break
        reach = new
    return bool(reach.all())


def _period(adjacency: np.ndarray) -> int:
    """Period of a strongly connected directed graph (gcd of cycle lengths)."""
    n = adjacency.shape[0]
    level = np.full(n, -1, dtype=int)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adjacency[u])[0]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    us, vs = np.nonzero(adjacency)
    for u, v in zip(us, vs):
        g = math.gcd(g, int(level[u] + 1 - level[v]))
    return g if g > 0 else 1


def perron_root(matrix: np.ndarray) -> float:
    """Dominant eigenvalue of a nonnegative matrix with irreducible pattern.

    Power iteration on the diagonally shifted matrix ``I + M/s`` (the shift
    makes periodic patterns primitive and maps the spectrum affinely), from a
    deterministic positive start vector, with the rigorous Collatz-Wielandt
    ratio enclosure as the convergence test.  Each step applies a
    repeatedly-squared power of the iteration matrix, which shares its
    eigenvectors, so convergence needs far fewer steps without changing the
    fixed point.

    Extreme exponential tilts can underflow entries to exact zeros, leaving a
    numerically reducible pattern whose iterates lose their positivity, and
    a root far below the row-sum scale loses precision to cancellation; both
    regimes fall back to a dense eigensolve, which is exact for these small
    matrices.  An iterate with a zero entry falls back at once.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if np.any(m < 0):
        raise ParameterError("Perron root requires a nonnegative matrix")
    scale = float(m.sum(axis=1).max())
    if scale == 0.0:
        return 0.0
    shifted = np.eye(n) + m / scale
    # (I + M/s)^(2^k) is entrywise positive once 2^k reaches the graph
    # diameter, keeping the iterates strictly positive.
    squarings = max(4, int(math.ceil(math.log2(max(n, 2)))))
    stepper = shifted.copy()
    for _ in range(squarings):
        stepper = stepper @ stepper
        stepper /= stepper.max()
    x = np.full(n, 1.0 / n)
    for _ in range(_PERRON_STALL_LIMIT):
        if x.min() <= 0.0:
            break  # an entry underflowed; the ratio enclosure is undefined
        y = shifted @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= _PERRON_TOL * hi:
            # Collatz-Wielandt: the eigenvalue of `shifted` lies in [lo, hi].
            rho = (0.5 * (lo + hi) - 1.0) * scale
            if rho > 1e-6 * scale:
                return rho
            break  # cancellation-dominated; use the direct solve
        x = stepper @ x
        x /= x.sum()
    # The spectral radius of a nonnegative matrix is itself an eigenvalue.
    rho = float(np.max(np.linalg.eigvals(m).real))
    return max(rho, 0.0)


def stationary_distribution(p: TransitionMatrix) -> DiscreteDistribution:
    """The unique stationary law, by direct linear solve of the balance equations.

    Solves ``(p^T - I) mu = 0`` with one row replaced by the normalization
    constraint, then verifies the fixed-point residual to 1e-12.
    """
    n = p.size
    a = p.rows.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        mu = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        mu, *_ = np.linalg.lstsq(a, b, rcond=None)
    mu = np.clip(mu, 0.0, None)
    mu = mu / mu.sum()
    residual = float(np.max(np.abs(mu @ p.rows - mu)))
    if residual > 1e-12:
        raise NumericsError(f"stationary solve residual {residual!r} exceeds 1e-12")
    return DiscreteDistribution(mu, renormalize=True)


def _row_kl(q_row: np.ndarray, p_row: np.ndarray) -> float:
    mask = q_row > 0
    return float(np.sum(q_row[mask] * (np.log(q_row[mask]) - np.log(p_row[mask]))))


def relative_entropy_rate(q: TransitionMatrix, p: TransitionMatrix) -> float:
    """Relative entropy rate ``sum_x mu_q(x) R(q(x,.) || p(x,.))`` in nats/step."""
    _require_mutual_row_ac(q, p)
    mu_q = stationary_distribution(q).weights
    total = sum(
        mu_q[x] * _row_kl(q.rows[x], p.rows[x]) for x in range(q.size)
    )
    return max(float(total), 0.0)


def renyi_rate(q: TransitionMatrix, p: TransitionMatrix, alpha: float) -> float:
    """Renyi divergence rate ``(alpha-1)^-1 log rho(alpha)``.

    ``rho(alpha)`` is the Perron root of the matrix with entries
    ``q(x,y)^alpha p(x,y)^(1-alpha)``.  Orders within 1e-6 of 1 fall back to
    the relative entropy rate, mirroring the single-measure convention.
    """
    if not (alpha > 0):
        raise ParameterError(f"Renyi order must be positive, got {alpha!r}")
    if abs(alpha - 1.0) < 1e-6:
        if alpha == 1.0:
            raise ParameterError("Renyi order 1 is the KL rate; use relative_entropy_rate")
        return relative_entropy_rate(q, p)
    _require_mutual_row_ac(q, p)
    support = q.rows > 0
    tilted = np.zeros_like(q.rows)
    tilted[support] = np.exp(
        alpha * np.log(q.rows[support]) + (1.0 - alpha) * np.log(p.rows[support])
    )
    rate = math.log(perron_root(tilted)) / (alpha - 1.0)
    return max(rate, 0.0)


def chi2_rate(q: TransitionMatrix, p: TransitionMatrix) -> float:
    """Growth rate ``log rho(2)`` of ``log(1 + chi^2)`` along the path measures."""
    _require_mutual_row_ac(q, p)
    support = q.rows > 0
    tilted = np.zeros_like(q.rows)
    tilted[support] = q.rows[support] ** 2 / p.rows[support]
    return max(math.log(perron_root(tilted)), 0.0)


def hellinger_rate_limit(q: TransitionMatrix, p: TransitionMatrix) -> float:
    """Limiting path Hellinger distance: sqrt(2) for distinct chains, else 0."""
    _check_same_space(q, p)
    return 0.0 if np.array_equal(q.rows, p.rows) else math.sqrt(2.0)


def _check_observable(p: TransitionMatrix, g: Observable) -> None:
    if g.values.size != p.size:
        raise DimensionError(
            f"observable has {g.values.size} values for {p.size} states"
        )


def lambda_pg(p: TransitionMatrix, g: Observable, c: float) -> float:
    """Principal-eigenvalue curve: log Perron root of ``p(x,y) e^{c gbar(y)}``.

    ``gbar`` is g centered by its stationary mean, so ``lambda(0) = 0`` and
    the curve is convex with zero slope at the origin.  Entries are rescaled
    by the maximal tilt before the eigenvalue solve and the log is restored
    afterwards, keeping the computation overflow-safe for large ``|c|``.
    """
    _check_observable(p, g)
    mu = stationary_distribution(p).weights
    centered = g.values - float(mu @ g.values)
    return _lambda_curve(p.rows, centered)(c)


def _lambda_curve(rows: np.ndarray, centered: np.ndarray) -> Callable[[float], float]:
    if float(np.max(np.abs(centered))) == 0.0:
        return lambda c: 0.0

    def curve(c: float) -> float:
        if c == 0.0:
            return 0.0
        tilt = c * centered
        shift = float(np.max(tilt))
        rho = perron_root(rows * np.exp(tilt - shift)[None, :])
        if rho <= 0.0:
            return -math.inf
        return math.log(rho) + shift

    return curve


@dataclass(frozen=True, eq=False)
class RateBound:
    """Steady-state QoI bound data for a pair of chains.

    ``xi_minus_rate <= E_{mu_q}(g) - E_{mu_p}(g) <= xi_plus_rate``.
    ``iact`` is the integrated autocorrelation of g under p (NaN when p is
    periodic, where the autocovariance series has no absolute-convergence
    guarantee).
    """

    rer: float
    xi_plus_rate: float
    xi_minus_rate: float
    lambda_curve: Callable[[float], float]
    iact: float


def integrated_autocorrelation(p: TransitionMatrix, g: Observable) -> float:
    """Variance plus twice the summed stationary autocovariances of g.

    Computed exactly by the fundamental-matrix method: with gbar the centered
    observable and mu the stationary law, solve the deflated system
    ``(I - p + 1 mu^T) h = gbar`` so that ``h = sum_k p^k gbar``, giving
    ``v = 2 gbar^T D h - gbar^T D gbar``.  Requires aperiodicity.
    """
    _check_observable(p, g)
    if not p.is_aperiodic():
        raise StructureError(
            "integrated autocorrelation requires an aperiodic chain"
        )
    mu = stationary_distribution(p).weights
    centered = g.values - float(mu @ g.values)
    n = p.size
    system = np.eye(n) - p.rows + np.outer(np.ones(n), mu)
    h = np.linalg.solve(system, centered)
    weighted = mu * centered
    value = 2.0 * float(weighted @ h) - float(weighted @ centered)
    if value < -1e-10:
        raise NumericsError(f"integrated autocorrelation {value!r} < 0")
    return max(value, 0.0)


def _rate_bound_setup(
    q: TransitionMatrix, p: TransitionMatrix, g: Observable
) -> tuple[AnalyticCgf, float, float | None]:
    """Checks and inputs shared by the steady-state bounds of a chain pair:
    the lambda-curve source, the IACT (NaN for a periodic p) and the variance
    for :func:`xi_bounds` (None where the IACT is NaN)."""
    _require_mutual_row_ac(q, p)
    _check_observable(p, g)
    mu = stationary_distribution(p).weights
    centered = g.values - float(mu @ g.values)
    source = AnalyticCgf(fn=_lambda_curve(p.rows, centered), check_contract=False)
    iact = integrated_autocorrelation(p, g) if p.is_aperiodic() else math.nan
    return source, iact, iact if math.isfinite(iact) else None


def xi_rate_bounds(q: TransitionMatrix, p: TransitionMatrix, g: Observable) -> RateBound:
    """Goal-oriented rate bounds sandwiching the stationary QoI gap.

    ``xi_plus = inf_{c>0} (lambda_{p,g}(c) + r)/c`` with r the relative
    entropy rate, and the mirrored supremum below; c = 0 is understood as the
    limiting value, which the degenerate short-circuit (r = 0) returns.
    """
    source, iact, variance = _rate_bound_setup(q, p, g)
    r = relative_entropy_rate(q, p)
    bound = xi_bounds(source, r, variance=variance)
    return RateBound(
        rer=r,
        xi_plus_rate=bound.xi_plus,
        xi_minus_rate=bound.xi_minus,
        lambda_curve=source.fn,
        iact=iact,
    )


@dataclass(frozen=True, eq=False)
class CheapRateBounds:
    """Rate bounds recomputed with the two computable entropy-rate surrogates.

    ``rer <= sup_row_re <= sup_log_ratio`` always, so each surrogate yields a
    valid but wider sandwich than the exact-rate bound.
    """

    rer: float
    sup_row_re: float
    sup_log_ratio: float
    bounds_sup_row_re: GoalBound
    bounds_sup_log_ratio: GoalBound


def cheap_rate_bounds(
    q: TransitionMatrix, p: TransitionMatrix, g: Observable
) -> CheapRateBounds:
    """Bounds using ``sup_x R(q(x,.) || p(x,.))`` and ``sup_{x,y} |log(q/p)|``.

    Both surrogates dominate the relative entropy rate; the returned
    GoalBounds carry the corresponding optimized intervals and the linearized
    half-widths ``sqrt(v) sqrt(2 surrogate)`` with v the integrated
    autocorrelation.
    """
    source, _, variance = _rate_bound_setup(q, p, g)
    r = relative_entropy_rate(q, p)
    sup_row = max(_row_kl(q.rows[x], p.rows[x]) for x in range(q.size))
    support = q.rows > 0
    sup_ratio = float(
        np.max(np.abs(np.log(q.rows[support]) - np.log(p.rows[support])))
    )
    return CheapRateBounds(
        rer=r,
        sup_row_re=sup_row,
        sup_log_ratio=sup_ratio,
        bounds_sup_row_re=xi_bounds(source, sup_row, variance=variance),
        bounds_sup_log_ratio=xi_bounds(source, sup_ratio, variance=variance),
    )


def path_divergence_report(
    p: TransitionMatrix,
    q: TransitionMatrix,
    n_steps: int,
    *,
    nu_p: DiscreteDistribution | None = None,
    nu_q: DiscreteDistribution | None = None,
    alpha: float = 2.0,
) -> DivergenceReport:
    """Exact divergences between the length-``n_steps`` path measures.

    Enumerates all ``|S|^(n_steps+1)`` paths (capped at 2e6), including the
    initial-distribution term that the rate limits drop; initial laws default
    to the stationary distributions.  This is the finite-horizon verification
    route for the rate formulas.
    """
    _check_same_space(q, p)
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ParameterError(f"n_steps must be a positive integer, got {n_steps!r}")
    n = p.size
    n_paths = n ** (n_steps + 1)
    if n_paths > _PATH_CAP:
        raise EnumerationLimitError(
            f"{n_paths} paths exceed the enumeration cap {_PATH_CAP}"
        )
    nu_p = stationary_distribution(p) if nu_p is None else nu_p
    nu_q = stationary_distribution(q) if nu_q is None else nu_q
    if not np.array_equal(nu_p.weights > 0, nu_q.weights > 0):
        raise AbsoluteContinuityError(
            "initial distributions must be mutually absolutely continuous"
        )

    with np.errstate(divide="ignore"):
        log_p_step = np.log(p.rows)
        log_q_step = np.log(q.rows)
        log_p = np.log(nu_p.weights)
        log_q = np.log(nu_q.weights)
    last = np.arange(n)
    for _ in range(int(n_steps)):
        log_p = (log_p[:, None] + log_p_step[last, :]).ravel()
        log_q = (log_q[:, None] + log_q_step[last, :]).ravel()
        last = np.tile(np.arange(n), log_p.size // n)

    # Mutual AC of rows and initial laws makes the supports coincide.
    mask = np.isfinite(log_q)
    lq, lp = log_q[mask], log_p[mask]
    q_path = np.exp(lq)
    kl = float(np.sum(q_path * (lq - lp)))

    d_alpha = _logsumexp(alpha * lq + (1.0 - alpha) * lp) / (alpha - 1.0)
    chi2 = math.expm1(_logsumexp(2.0 * lq - lp))
    bhattacharyya = math.exp(_logsumexp(0.5 * (lq + lp)))
    h = math.sqrt(max(2.0 - 2.0 * bhattacharyya, 0.0))
    tv_all = 0.5 * float(
        np.sum(np.abs(np.exp(log_q) - np.exp(log_p)))
    )
    report = DivergenceReport(
        tv=tv_all,
        hellinger=h,
        kl=max(kl, 0.0),
        renyi_alpha=alpha,
        renyi=max(d_alpha, 0.0),
        chi2=max(chi2, 0.0),
    )
    report.validate_chain(tol=1e-8)
    return report


def path_cgf(
    p: TransitionMatrix,
    g: Observable,
    n_steps: int,
    c: float,
    *,
    nu_p: DiscreteDistribution | None = None,
) -> float:
    """Centered finite-horizon CGF ``log E[e^{c sum_{k=1}^N g(X_k)}] - c N E(f_N)``.

    Computed by N tilted matrix-vector products with log-domain rescaling;
    the centering uses the exact finite-horizon mean of the additive
    functional under the initial law (stationary by default).
    """
    _check_observable(p, g)
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ParameterError(f"n_steps must be a positive integer, got {n_steps!r}")
    nu = stationary_distribution(p) if nu_p is None else nu_p
    shift = c * float(np.max(g.values))
    tilt = np.exp(c * g.values - shift)
    vec = nu.weights.astype(float).copy()
    log_scale = 0.0
    marginal = vec.copy()
    mean_sum = 0.0
    for _ in range(int(n_steps)):
        marginal = marginal @ p.rows
        mean_sum += float(marginal @ g.values)
        vec = (vec @ p.rows) * tilt
        s = float(vec.sum())
        log_scale += math.log(s) + shift
        vec /= s
    return log_scale - c * mean_sum
