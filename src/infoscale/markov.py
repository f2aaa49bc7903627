"""Markov-chain divergence rates and steady-state goal-oriented bounds.

Rates are per-step limits of path-measure divergences: the relative entropy
rate is a stationary average of row-wise KL divergences, while Renyi-type
rates are logarithms of Perron roots of entrywise-tilted transition matrices.
The steady-state QoI gap ``E_{mu_q}(g) - E_{mu_p}(g)`` is sandwiched by
optimizing ``(lambda_{p,g}(c) + r)/c`` over c, exactly as in the
single-measure goal-oriented bound with the CGF replaced by the principal
eigenvalue curve, whose slope ``sum l g r / sum l r`` comes from the left and
right Perron vectors l, r of the same solve.

The lambda-curve and the Renyi rates take every tilted Perron root through
one shift rule, :func:`_log_perron`; the row KL terms, the checks and the
Renyi order rule are those of :mod:`infoscale.divergences`.

:func:`xi_rate_bounds` sets a chain pair up once, in a :class:`RateBound`
(stationary laws, rate, lambda-curve, IACT); :func:`cheap_rate_bounds`
reuses it for the two surrogate rates.

The finite-horizon path divergences and CGF are sums over paths of products
along the path, so they are transfer products in O(N |S|^2) work: additive
sums of row terms for the KL and Hellinger, and for the Renyi sums and the
centred CGF the path-measure transfer ``divergences._PathTransfer`` with
one-state blocks, shared with the Gibbs measures: the Renyi sums are log
partitions of its tilted transfer, and the CGF its centred-CGF method.  No
path law is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .divergences import (
    DiscreteDistribution, DivergenceReport, Observable, _check_same_support, _clamp_nonneg,
    _kl_terms, _log_on, _near_kl, _PathTransfer, _positive_int, _renyi_exponents,
    _require_mutual_ac,
)
from .errors import (
    DimensionError,
    NormalizationError,
    NumericsError,
    ParameterError,
    StructureError,
)
from .goal_oriented import AnalyticCgf, GoalBound, _spread, xi_bounds

_ROW_SUM_TOL = 1e-12
_PERRON_TOL = 1e-13
_PERRON_STEPS = 30
# Below this many states a dense Perron solve costs less than a power
# iteration that converges in 12 to 14 steps: about 150 us either way at 24
# states, 19 against 160 or more at 3 (numpy on a 2-CPU x86-64 host).
_DENSE_BELOW = 24
_CHI2_LIMIT = math.expm1(700.0)  # a path chi-squared past it is reported as inf


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A row-stochastic, irreducible transition matrix on a finite state space.

    ``rows`` is kept read-only.  A float64 array that owns its memory and is
    already read-only (what :func:`~infoscale.jsonio.load_chain` reads, or
    another chain's ``rows``) is taken as it is; any other input, such as an
    array its caller can still write, is copied.
    """

    rows: np.ndarray
    labels: tuple[str, ...] | None = None

    def __init__(self, rows, labels=None):
        taken = (isinstance(rows, np.ndarray) and rows.dtype == np.float64
                 and rows.flags.owndata and not rows.flags.writeable)
        arr = rows if taken else np.array(rows, dtype=float)
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

    @cached_property
    def _stationary(self) -> DiscreteDistribution:
        """:func:`stationary_distribution`, solved on the first request; the
        rows are read-only, so it holds for the matrix's lifetime."""
        return stationary_distribution(self)


def _bfs_levels(adjacency: np.ndarray) -> np.ndarray:
    """Breadth-first distance of each state from state 0 (-1: unreachable)."""
    level = np.full(adjacency.shape[0], -1)
    level[0] = 0
    frontier = np.array([0])
    while frontier.size:
        frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & (level < 0))
        level[frontier] = level.max() + 1
    return level


def _is_irreducible(adjacency: np.ndarray) -> bool:
    """Every state reaches state 0 and is reached from it."""
    return bool((_bfs_levels(adjacency) >= 0).all() and (_bfs_levels(adjacency.T) >= 0).all())


@dataclass
class _PerronRoute:
    """The route of one chain's Perron solves: ``power`` is None until the
    first solve sets it by size, and False once a power iteration falls
    back, so each later solve of the chain goes straight to the dense one."""

    power: bool | None = None


def _power_iteration(step: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Left and right Perron vectors (unit sums) of ``step``, whose largest
    row sum is 1, by ``r <- step r``, ``l <- l step`` from the uniform start;
    None where the iteration does not settle within ``_PERRON_STEPS`` steps
    or an iterate gets a zero entry."""
    n = step.shape[0]
    right = left = np.full(n, 1.0 / n)
    for _ in range(_PERRON_STEPS):
        y, z = step @ right, left @ step
        if min(y.min(), z.min()) <= 0.0:
            return None  # an entry underflowed; the ratio enclosure is undefined
        ratios, left_ratios = y / right, z / left
        lo, hi = float(ratios.min()), float(ratios.max())
        right, left = y / y.sum(), z / z.sum()
        if max(hi - lo, float(np.ptp(left_ratios))) <= _PERRON_TOL * hi:
            return left, right
    return None


def perron_root(
    matrix: np.ndarray | Callable[[], np.ndarray], route: _PerronRoute | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """``(rho, l, r)``: the dominant eigenvalue of a nonnegative matrix with
    irreducible pattern and its left and right Perron vectors (unit sums).

    Two routes.  The dense one: an eigensolve for rho and the null vectors
    of ``M - rho I`` by one SVD.  The power one: iteration with ``M/s``, s
    the largest row sum, until the Collatz-Wielandt ratios of each iterate,
    which enclose the root, agree to a relative ``_PERRON_TOL``; rho is then
    the Rayleigh quotient ``l M r / l r``.  A matrix of fewer than
    ``_DENSE_BELOW`` states takes the dense route, which costs less there
    than a power iteration that converges.  A larger one takes the power
    route, and falls back to the dense one where the iteration does not
    settle within ``_PERRON_STEPS`` steps (a periodic or slowly mixing
    pattern) or its iterate gets a zero entry (a pattern that extreme tilts
    have underflowed to reducible).  ``route``, shared by the solves of one
    chain, keeps the first solve's choice and sends every solve after a
    fallback straight to the dense route.

    ``matrix`` is an array, which is never written, or a function that
    builds a new one on each call: the power route then scales that one in
    place, and a fallback builds it again for the dense solve, so either
    route sees the same bits as it would on an array.
    """
    build = matrix if callable(matrix) else None
    m = np.asarray(matrix, dtype=float) if build is None else build()
    if not np.isfinite(m).all():
        raise ParameterError("Perron root requires finite entries")
    if np.any(m < 0):
        raise ParameterError("Perron root requires a nonnegative matrix")
    n = m.shape[0]
    scale = float(m.sum(axis=1).max())
    if scale == 0.0:
        uniform = np.full(n, 1.0 / n)
        return 0.0, uniform, uniform
    if route is None:
        route = _PerronRoute()
    if route.power is None:
        route.power = n >= _DENSE_BELOW
    if route.power:
        step = np.divide(m, scale, out=None if build is None else m)
        vectors = _power_iteration(step)
        if vectors is not None:
            left, right = vectors
            return scale * float(left @ step @ right) / float(left @ right), left, right
        route.power = False
        if build is not None:
            del m, step
            m = build()  # rebuilt, not divided back, so the dense solve sees the same bits
    # The spectral radius of a nonnegative matrix is itself an eigenvalue.
    rho = max(float(np.max(np.linalg.eigvals(m).real)), 0.0)
    u, _, vt = np.linalg.svd(m - rho * np.eye(n))
    left, right = np.abs(u[:, -1]), np.abs(vt[-1])
    return rho, left / left.sum(), right / right.sum()


def stationary_distribution(p: TransitionMatrix) -> DiscreteDistribution:
    """The unique stationary law, by direct linear solve of the balance equations.

    Solves ``(p^T - I) mu = 0`` with one row replaced by the normalization
    constraint, then verifies the fixed-point residual to 1e-12.
    """
    n = p.size
    a = p.rows.T.copy()
    a.flat[:: n + 1] -= 1.0
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


def _row_relative_entropies(q: TransitionMatrix, p: TransitionMatrix) -> np.ndarray:
    """``R(q(x,.) || p(x,.))`` for every state x: its row of the Bregman
    terms of ``divergences._kl_terms``, each >= 0, summed."""
    return _kl_terms(q.rows, p.rows).sum(axis=1)


def relative_entropy_rate(q: TransitionMatrix, p: TransitionMatrix) -> float:
    """Relative entropy rate ``sum_x mu_q(x) R(q(x,.) || p(x,.))`` in nats/step."""
    _require_mutual_ac(q.rows, p.rows, "relative entropy rate")
    rows = _row_relative_entropies(q, p)
    return float(q._stationary.weights @ rows)


def renyi_rate(q: TransitionMatrix, p: TransitionMatrix, alpha: float) -> float:
    """Renyi divergence rate ``(alpha-1)^-1 log rho(alpha)``.

    ``rho(alpha)`` is the Perron root of the matrix with entries
    ``q(x,y)^alpha p(x,y)^(1-alpha)``.  Orders within 1e-6 of 1 fall back to
    the relative entropy rate, mirroring the single-measure convention.  The
    Perron enclosure leaves an absolute error of ``_PERRON_TOL / |alpha - 1|``;
    a root that the shift underflows to 0 raises NumericsError.
    """
    if _near_kl(alpha, "relative_entropy_rate"):
        return relative_entropy_rate(q, p)
    _require_mutual_ac(q.rows, p.rows, "Renyi rate")
    log_rho = _log_perron(1.0, _renyi_exponents(q.rows, p.rows, alpha))[0]
    if log_rho == -math.inf:
        raise NumericsError("the tilted matrix underflowed to a zero Perron root")
    return max(log_rho / (alpha - 1.0), 0.0)


def chi2_rate(q: TransitionMatrix, p: TransitionMatrix) -> float:
    """Growth rate ``log rho(2)`` of ``log(1 + chi^2)`` along the path measures:
    the Renyi rate of order 2."""
    return renyi_rate(q, p, 2.0)


def hellinger_rate_limit(q: TransitionMatrix, p: TransitionMatrix) -> float:
    """Limiting path Hellinger distance: sqrt(2) for distinct chains, else 0."""
    _check_same_support(q.rows, p.rows, "Hellinger rate")
    return 0.0 if np.array_equal(q.rows, p.rows) else math.sqrt(2.0)


def _check_observable(p: TransitionMatrix, g: Observable) -> None:
    if g.values.size != p.size:
        raise DimensionError(
            f"observable has {g.values.size} values for {p.size} states"
        )


def lambda_pg(p: TransitionMatrix, g: Observable, c: float) -> float:
    """Principal-eigenvalue curve: log Perron root of ``p(x,y) e^{c gbar(y)}``.

    ``gbar`` is g centered by its stationary mean, so ``lambda(0) = 0`` and
    the curve is convex with zero slope at the origin.  The tilt is shifted
    into floating-point range before the eigenvalue solve and the shift
    restored afterwards (:func:`_log_perron`), so large ``|c|`` is safe.
    """
    _check_observable(p, g)
    mu = p._stationary.weights
    centered = g.values - float(mu @ g.values)
    return _lambda_curve(p.rows, centered, mu)(c)[0]


def _log_perron(
    base, exponents: np.ndarray, route: _PerronRoute | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """``log rho(base * e^exponents)`` (entrywise, numpy broadcasting; a
    ``-inf`` exponent is a zero entry, a zero root gives ``-inf``), with the
    left and right Perron vectors of :func:`perron_root` on ``route``.

    e^x overflows past x = 709 and underflows below -745, and a large tilt
    or a tiny entry of p reaches either.  The exponents are shifted by their
    largest, unless they span more than 700: then the smallest finite one is
    kept at -700 instead, as long as the largest stays at or below 700.  A
    small entry can close the cycle that sets the root (e^-200 across from
    e^600), so it is not given up while the range still holds it.
    """
    top = float(np.max(exponents))
    low = float(np.min(exponents, where=exponents > -math.inf, initial=top))
    shift = max(top - 700.0, min(top, low + 700.0))
    shape = np.broadcast_shapes(np.shape(base), exponents.shape)

    def tilted() -> np.ndarray:  # in one n x n buffer, which perron_root may scale
        matrix = np.subtract(exponents, shift)
        np.exp(matrix, out=matrix)
        return np.multiply(base, matrix, out=matrix if matrix.shape == shape else None)

    rho, left, right = perron_root(tilted, route)
    return (math.log(rho) + shift if rho > 0.0 else -math.inf), left, right


def _lambda_curve(
    rows: np.ndarray, centered: np.ndarray, mu: np.ndarray
) -> Callable[[float], tuple[float, float]]:
    """``c -> (lambda, lambda')`` of ``log rho(rows(x, y) e^{c centered(y)})``,
    (0, 0) at c = 0; ``lambda' = sum l g r / sum l r`` (Kato, Perturbation
    Theory for Linear Operators, ch. II), NaN if l and r share no support.
    Every evaluation shares one Perron route, so after the first power
    solve that falls back the values come from the dense solve (the two
    routes agree to about 1e-15 relative).

    Where ``|c| max|centered| < 1``, ``rho - 1`` is ``sum_i mu_i expm1(c
    centered_i) r_i / sum_i mu_i r_i``, exactly, as ``mu^T rows = mu^T`` for
    the stationary law mu (r the right Perron vector), so lambda rounds to
    about ``ulp(c centered)``, not ``ulp(1)``.

    A finite lambda is clamped at 0: ``lambda(c) >= c mu . centered = 0``
    (the Donsker-Varadhan variational form at ``nu = mu``), so a negative
    value is rounding (in the dense solve of a periodic chain).  A ``-inf``
    (a cycle that the shift underflowed) stays: the optimizer takes a
    non-finite value as out of range, while 0 there would let a bound run
    down to ``r / c`` at the cap."""
    span = _spread(centered)
    route = _PerronRoute()

    def curve(c: float) -> tuple[float, float]:
        if c == 0.0 or span == 0.0:
            return 0.0, 0.0
        tilt = c * centered
        log_rho, left, right = _log_perron(rows, tilt, route)
        if abs(c) * span < 1.0:
            weighted = mu * right
            log_rho = math.log1p(float(weighted @ np.expm1(tilt)) / float(weighted.sum()))
        overlap = left * right
        total = float(overlap.sum())
        if -math.inf < log_rho < 0.0:
            log_rho = 0.0
        return log_rho, float(overlap @ centered) / total if total > 0.0 else math.nan

    return curve


@dataclass(frozen=True, eq=False)
class RateBound:
    """Steady-state QoI bound data for a pair of chains.

    ``xi_minus_rate <= E_{mu_q}(g) - E_{mu_p}(g) <= xi_plus_rate``.
    ``lambda_curve(c)`` is ``(lambda(c), lambda'(c))``; ``iact`` is the
    asymptotic variance ``lambda''(0)`` of g under p (see
    :func:`integrated_autocorrelation`), which sets the linearized half
    width; ``mu_q`` and ``mu_p`` are the two stationary laws.
    """

    rer: float
    xi_plus_rate: float
    xi_minus_rate: float
    lambda_curve: Callable[[float], tuple[float, float]]
    iact: float
    mu_q: DiscreteDistribution
    mu_p: DiscreteDistribution


def integrated_autocorrelation(p: TransitionMatrix, g: Observable) -> float:
    """Asymptotic variance ``sigma^2 = lambda''(0)`` of g under p, for any
    irreducible p, periodic or not.

    With gbar the centered observable and mu the stationary law, the deflated
    system ``(I - p + 1 mu^T) h = gbar`` is invertible for every irreducible
    p (Kemeny and Snell, Finite Markov Chains, 1960); its solution solves the
    Poisson equation ``(I - p) h = gbar`` with ``mu . h = 0``, and
    ``sigma^2 = 2 gbar^T D h - gbar^T D gbar`` with ``D = diag(mu)``.  Where the
    powers of p converge, ``h = sum_k p^k gbar`` and sigma^2 is the variance
    plus twice the summed stationary autocovariances of g.
    """
    _check_observable(p, g)
    mu = p._stationary.weights
    centered = g.values - float(mu @ g.values)
    system = -p.rows
    system.flat[:: p.size + 1] += 1.0
    system += mu  # I - p + 1 mu^T, summed in that order
    h = np.linalg.solve(system, centered)
    weighted = mu * centered
    with np.errstate(over="ignore"):
        value = 2.0 * float(weighted @ h) - float(weighted @ centered)
    if not math.isfinite(value):
        raise NumericsError("integrated autocorrelation beyond the float range")
    if value < -1e-10:
        raise NumericsError(f"integrated autocorrelation {value!r} < 0")
    return max(value, 0.0)


def _optimized(curve: Callable[[float], tuple[float, float]], iact: float, rate: float) -> GoalBound:
    """The goal-oriented bound of the lambda-curve at entropy budget ``rate``,
    linearized with the IACT, which is ``lambda''(0)``."""
    return xi_bounds(AnalyticCgf(fn=curve, check_contract=False), rate, variance=iact)


def xi_rate_bounds(q: TransitionMatrix, p: TransitionMatrix, g: Observable) -> RateBound:
    """Goal-oriented rate bounds sandwiching the stationary QoI gap.

    ``xi_plus = inf_{c>0} (lambda_{p,g}(c) + r)/c`` with r the relative
    entropy rate, and the mirrored supremum below; c = 0 is understood as the
    limiting value, which the degenerate short-circuit (r = 0) returns.
    """
    _require_mutual_ac(q.rows, p.rows, "steady-state rate bound")
    _check_observable(p, g)
    mu_p, mu_q = p._stationary, q._stationary
    centered = g.values - float(mu_p.weights @ g.values)
    curve = _lambda_curve(p.rows, centered, mu_p.weights)
    iact = integrated_autocorrelation(p, g)
    rer = float(mu_q.weights @ _row_relative_entropies(q, p))
    bound = _optimized(curve, iact, rer)
    return RateBound(rer, bound.xi_plus, bound.xi_minus, curve, iact, mu_q, mu_p)


@dataclass(frozen=True, eq=False)
class CheapRateBounds:
    """Rate bounds recomputed with the two computable entropy-rate surrogates.

    ``rer <= sup_row_re <= sup_log_ratio`` always, so each surrogate yields a
    valid but wider sandwich than the exact-rate bound ``exact``.
    """

    exact: RateBound
    sup_row_re: float
    sup_log_ratio: float
    bounds_sup_row_re: GoalBound
    bounds_sup_log_ratio: GoalBound

    @property
    def rer(self) -> float:
        return self.exact.rer


def cheap_rate_bounds(
    q: TransitionMatrix, p: TransitionMatrix, g: Observable
) -> CheapRateBounds:
    """Bounds using ``sup_x R(q(x,.) || p(x,.))`` and ``sup_{x,y} |log(q/p)|``.

    Both surrogates dominate the relative entropy rate; the returned
    GoalBounds carry the corresponding optimized intervals and the linearized
    half-widths ``sqrt(v) sqrt(2 surrogate)`` with v the integrated
    autocorrelation.  The exact-rate bound of :func:`xi_rate_bounds`, whose
    lambda-curve and IACT these reuse, comes along as ``exact``.
    """
    exact = xi_rate_bounds(q, p, g)
    sup_row = float(_row_relative_entropies(q, p).max())
    support = q.rows > 0
    log_ratio = _log_on(q.rows, support, 0.0)
    log_ratio -= _log_on(p.rows, support, 0.0)
    sup_ratio = float(np.abs(log_ratio, out=log_ratio).max())
    bounds = [_optimized(exact.lambda_curve, exact.iact, r) for r in (sup_row, sup_ratio)]
    return CheapRateBounds(exact, sup_row, sup_ratio, *bounds)


def _initial_law(p: TransitionMatrix, nu: DiscreteDistribution | None) -> np.ndarray:
    """Weights of an initial law on p's states, p's stationary law by default."""
    if nu is None:
        return p._stationary.weights
    if nu.support_size != p.size:
        raise DimensionError(f"initial law has {nu.support_size} states for {p.size}")
    return nu.weights


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

    Each is a sum over the ``|S|^(N+1)`` paths of a product along the path,
    so a transfer product gives it exactly in O(N |S|^2) work, with no path
    law built.  With ``rowKL(x) = R(q(x,.) || p(x,.))`` and
    ``rowH2(x) = sum_y (sqrt q(x,y) - sqrt p(x,y))^2``:

    - ``KL = R(nu_q || nu_p) + sum_{t<N} (nu_q q^t) . rowKL``;
    - ``H^2 = sum (sqrt nu_q - sqrt nu_p)^2 + sum_{t<N} (sqrt(nu_q nu_p) B^t) . rowH2``
      with ``B = sqrt(q p)`` entrywise;
    - the Renyi order alpha is ``log(nu_q^a nu_p^(1-a) . M^N . 1) / (a - 1)``
      with ``M = q^a p^(1-a)`` entrywise (orders within 1e-6 of 1 give the
      KL, as in :func:`~infoscale.divergences.renyi_divergence`);
    - ``chi^2 = sum (q - p)^2 / p``, carried with ``sum (q - p)`` and ``sum p``
      over the paths ending at each state, keeps its digits for nearby
      chains (``inf`` past ``expm1(700)``, where ``log(1 + chi^2)`` passes 700).

    ``tv`` is None: a sum of absolute values over paths has no transfer form.
    The initial-distribution terms, which the rate limits drop, are included;
    initial laws default to the stationary distributions.  Initial laws or
    rows that are not mutually absolutely continuous raise
    :class:`~infoscale.errors.AbsoluteContinuityError`.  This is the
    finite-horizon verification route for the rate formulas.
    """
    _check_same_support(q.rows, p.rows, "path divergences")
    n = _positive_int(n_steps, "n_steps")
    near_kl = _near_kl(alpha, "the report's kl")
    start_p, start_q = _initial_law(p, nu_p), _initial_law(q, nu_q)
    if np.array_equal(q.rows, p.rows) and np.array_equal(start_q, start_p):
        return DivergenceReport(None, 0.0, 0.0, alpha, 0.0, 0.0)
    _require_mutual_ac(start_q, start_p, "path divergences")
    _require_mutual_ac(q.rows, p.rows, "path divergences")
    row_kl = _row_relative_entropies(q, p)
    row_h2 = ((np.sqrt(q.rows) - np.sqrt(p.rows)) ** 2).sum(axis=1)
    overlap = np.sqrt(q.rows * p.rows)
    kl_terms = [float(_kl_terms(start_q, start_p).sum())]
    h2_terms = [float(((np.sqrt(start_q) - np.sqrt(start_p)) ** 2).sum())]
    marginal, affinity = start_q, np.sqrt(start_q * start_p)
    for _ in range(n):
        kl_terms.append(float(marginal @ row_kl))
        h2_terms.append(float(affinity @ row_h2))
        marginal, affinity = marginal @ q.rows, affinity @ overlap
    kl = math.fsum(kl_terms)
    if near_kl:
        renyi = kl
    else:
        exponents = _renyi_exponents(q.rows, p.rows, alpha)[:, None, :]  # one-state blocks
        transfer = _PathTransfer(_renyi_exponents(start_q, start_p, alpha), exponents, n)
        renyi = _clamp_nonneg(transfer.log_partition / (alpha - 1.0), "path Renyi divergence")
    chi2 = _path_chi2(q, p, start_q, start_p, n)
    report = DivergenceReport(None, math.sqrt(math.fsum(h2_terms)), kl, alpha, renyi, chi2)
    report.validate_chain()
    return report


def _path_chi2(q: TransitionMatrix, p: TransitionMatrix, start_q: np.ndarray,
               start_p: np.ndarray, n: int) -> float:
    """``sum (q - p)^2 / p`` over the length-n paths, by the recursion over
    paths ending at y of ``E = sum (q - p)^2 / p``, ``F = sum (q - p)`` and
    ``G = sum p``: with ``d = q(x,y) - p(x,y)``, a step maps them to
    ``E q^2/p + 2 F q d/p + G d^2/p``, ``F q + G d`` and ``G p``.

    ``inf`` where the total is past ``expm1(700)`` (``log(1 + chi^2) >
    700``) or not finite: the path chi-squared only grows with n, so a
    recursion that leaves the float range has passed that limit."""
    diff, on = q.rows - p.rows, p.rows > 0
    inverse = np.divide(1.0, p.rows, out=np.zeros_like(diff), where=on)
    square, cross, spread = q.rows**2 * inverse, q.rows * diff * inverse, diff**2 * inverse
    start_diff = start_q - start_p
    e = np.divide(start_diff**2, start_p, out=np.zeros_like(start_diff), where=start_p > 0)
    f, g = start_diff, start_p
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n):
            e, f, g = e @ square + 2.0 * (f @ cross) + g @ spread, f @ q.rows + g @ diff, g @ p.rows
            if step % 64 == 63 and not e.sum() <= _CHI2_LIMIT:
                break  # checked every 64 steps: each later total is larger still
        total = float(e.sum())
    if not total <= _CHI2_LIMIT:
        return math.inf
    return _clamp_nonneg(total, "path chi-squared")


def path_cgf(
    p: TransitionMatrix,
    g: Observable,
    n_steps: int,
    c: float,
    *,
    nu_p: DiscreteDistribution | None = None,
) -> float:
    """Centered finite-horizon CGF ``log E[e^{c S_N}] - c E(S_N)`` of the
    additive functional ``S_N = sum_{k=1}^N g(X_k)``, under the initial law
    (stationary by default).

    It is the centred CGF (``divergences._PathTransfer.cgf``) of the path sum
    ``c S_N`` under the chain's path transfer: in its ``log1p`` tail form
    wherever ``c S_N`` stays within 1 of its mean on every path, which keeps
    the digits of a small c, and otherwise the difference of the log
    partitions of the tilt ``log p(x,y) + c g(y)`` and of the chain, so any
    c is safe.  Exactly 0 at c = 0 and for a constant g.  The tilt is of g
    less its midrange, so an offset of g stays out of the rounding of c g.
    """
    _check_observable(p, g)
    n = _positive_int(n_steps, "n_steps")
    with np.errstate(divide="ignore"):
        transfer = _PathTransfer(np.log(_initial_law(p, nu_p)), np.log(p.rows)[:, None, :], n)
    tilt = c * (g.values - (g.values.max() / 2 + g.values.min() / 2))
    return transfer.cgf(np.zeros(p.size), np.tile(tilt, (p.size, 1, 1)))
