"""Markov-chain divergence rates and steady-state goal-oriented bounds.

Rates are per-step limits of path-measure divergences: the relative entropy
rate is a stationary average of row-wise KL divergences, while Renyi-type
rates are logarithms of Perron roots of entrywise-tilted transition matrices.
The steady-state QoI gap ``E_{mu_q}(g) - E_{mu_p}(g)`` is sandwiched by
optimizing ``(lambda_{p,g}(c) + r)/c`` over c, exactly as in the
single-measure goal-oriented bound with the CGF replaced by the principal
eigenvalue curve, whose slope ``sum l g r / sum l r`` comes from the left and
right Perron vectors l, r of the same solve.

The stationary law and the Poisson solution (the IACT, the stationary gap)
come from Grassmann-Taksar-Heyman state reduction, :func:`_gth_reduce`, in
one n x n work array, with no subtraction and no linear solve.  The
lambda-curve and the Renyi rates take every tilted Perron root through one
shift rule, :func:`_log_perron`, whose tilted matrix :func:`perron_root`
only reads (its power iteration scales the iterates); every row term, the
checks and the Renyi order rule are those of :mod:`infoscale.divergences`.
The other n x n passes (row KL terms, log ratios, the rows of ``q - p``) go
by row blocks, so a dense chain pair holds one n x n array beyond its two
chains at a time.

:func:`xi_rate_bounds` sets a chain pair up once, in a :class:`RateBound`
(rate, lambda-curve, IACT, the stationary gap); :func:`cheap_rate_bounds`
reuses it, and its row KL divergences, for the two surrogate rates.

The finite-horizon path divergences and CGF are sums over paths of products
along the path, so they are transfer products in O(N |S|^2) work: one pass
over the steps sums the KL and Hellinger row terms along the marginals and
carries the three vectors of the Renyi sum ``sum q^a p^(1-a) - 1`` of the
order 2 (the chi-squared) and of the report's order; the centred CGF, and a
Renyi sum far from 0, run on ``divergences._PathTransfer`` with one-state
blocks, shared with the Gibbs measures (log partitions of its tilted
transfer, and its centred-CGF method).  No path law is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .divergences import (
    DiscreteDistribution, DivergenceReport, Observable, _check_same_support, _clamp_nonneg,
    _hellinger_terms, _kl_terms, _log_on, _log_ratio, _near_kl, _PathTransfer, _positive_int,
    _renyi_exponents, _renyi_tails, _require_mutual_ac,
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
# A row-blocked pass over an n x n array takes 1/_ROW_BLOCKS of its rows at
# a time, so its temporaries are a small part of one n x n array; a block
# holds at least _BLOCK_ENTRIES entries, so a small chain is one block.
_ROW_BLOCKS = 32
_BLOCK_ENTRIES = 1024
# States per block of the GTH reduction.  At 300 states a reduction took 5
# ms in blocks of 32, 6 ms in blocks of 16 or 64, and 12 ms as plain rank-1
# updates of the whole array (numpy on a 2-CPU x86-64 host).
_GTH_BLOCK = 32


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


def _power_iteration(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """``(rho, l, r)`` of ``m`` by ``r <- m r / s``, ``l <- l m / s`` from the
    uniform start, s the largest row sum: the iterates, not m, are divided,
    so they stay at most 1 and m is only read.  rho is the Rayleigh quotient
    ``l m r / l r``.  None where the iteration does not settle within
    ``_PERRON_STEPS`` steps or an iterate gets a zero entry."""
    n = m.shape[0]
    scale = float(m.sum(axis=1).max())
    right = left = np.full(n, 1.0 / n)
    for _ in range(_PERRON_STEPS):
        y, z = m @ right / scale, left @ m / scale
        if min(y.min(), z.min()) <= 0.0:
            return None  # an entry underflowed; the ratio enclosure is undefined
        ratios, left_ratios = y / right, z / left
        lo, hi = float(ratios.min()), float(ratios.max())
        right, left = y / y.sum(), z / z.sum()
        if max(hi - lo, float(np.ptp(left_ratios))) <= _PERRON_TOL * hi:
            return float(left @ m @ right) / float(left @ right), left, right
    return None


def perron_root(
    matrix: np.ndarray, route: _PerronRoute | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """``(rho, l, r)``: the dominant eigenvalue of a nonnegative matrix with
    irreducible pattern and its left and right Perron vectors (unit sums).

    Two routes; neither writes M.  The dense one: an eigensolve for rho and the
    null vectors of ``M - rho I`` by one SVD.  The power one: iteration with M,
    each iterate divided by s, the largest row sum, until the Collatz-Wielandt
    ratios of each iterate, which enclose the root, agree to a relative
    ``_PERRON_TOL``; rho is then the Rayleigh quotient ``l M r / l r``.  A
    matrix of fewer than ``_DENSE_BELOW`` states takes the dense route, which
    costs less there than a power iteration that converges.  A larger one takes
    the power route, and falls back to the dense one where the iteration does
    not settle within ``_PERRON_STEPS`` steps (a periodic or slowly mixing
    pattern) or its iterate gets a zero entry (a pattern that extreme tilts
    have underflowed to reducible).  ``route``, shared by the solves of one
    chain, keeps the first solve's choice and sends every solve after a
    fallback straight to the dense route.
    """
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ParameterError("Perron root requires finite entries")
    if np.any(m < 0):
        raise ParameterError("Perron root requires a nonnegative matrix")
    n = m.shape[0]
    if not m.any():
        uniform = np.full(n, 1.0 / n)
        return 0.0, uniform, uniform
    if route is None:
        route = _PerronRoute()
    if route.power is None:
        route.power = n >= _DENSE_BELOW
    if route.power:
        found = _power_iteration(m)
        if found is not None:
            return found
        route.power = False
    # The spectral radius of a nonnegative matrix is itself an eigenvalue.
    rho = max(float(np.max(np.linalg.eigvals(m).real)), 0.0)
    u, _, vt = np.linalg.svd(m - rho * np.eye(n))
    left, right = np.abs(u[:, -1]), np.abs(vt[-1])
    return rho, left / left.sum(), right / right.sum()


def _row_blocks(n: int) -> list[slice]:
    """Slices covering ``range(n)``: the row blocks of an n x n array, each of
    ``ceil(n / _ROW_BLOCKS)`` rows or ``ceil(_BLOCK_ENTRIES / n)``, the more."""
    step = max(-(-n // _ROW_BLOCKS), -(-_BLOCK_ENTRIES // n))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _unit_triangular_inverse(t: np.ndarray) -> np.ndarray:
    """``(I - t)^-1`` of a strictly triangular nonnegative b x b matrix t, as
    ``(I + t)(I + t^2)(I + t^4)...`` up to ``t^b = 0``: sums of products of
    nonnegative numbers, with no subtraction."""
    inverse, power, span = np.eye(len(t)) + t, t, 2
    while span < len(t):
        power = power @ power
        inverse += inverse @ power
        span *= 2
    return inverse


def _gth_reduce(rows: np.ndarray) -> np.ndarray:
    """Grassmann-Taksar-Heyman state reduction of a stochastic matrix (Oper.
    Res. 33, 1985), in one new n x n array.

    States are eliminated from the last.  Eliminating k censors the chain to
    the states below k: ``a(i, j) += a(i, k) a(k, j) / s_k`` for i, j < k,
    with the pivot ``s_k = sum_{j<k} a(k, j)``, the mass that row k sends to
    the states left.  So ``1 - a(k, k)`` is never formed and nothing is
    subtracted.  For each k >= 1 the array returned holds, as they were when
    k was eliminated, row k left of the diagonal and column k divided by
    ``s_k`` above it, and ``s_k`` on the diagonal: with that array a, ``I -
    p = U L``, ``U(i, k) = -a(i, k)`` for i < k, ``L(k, j) = -a(k, j)`` for j
    < k and ``L(k, k) = s_k``.

    The states go in blocks of ``_GTH_BLOCK`` from the last.  A block is
    reduced in a copy of its own, with a first column that lumps the mass
    each of its rows sends to the lower states, so its rank-1 updates are
    small (:func:`_reduce_block`).  Its rows and columns outside it then
    take the block's eliminations at once (:func:`_carry_block`), and the
    lower states take its update ``a += c r``, c its scaled columns and r
    its rows, as matmuls of nonnegative terms over row blocks.
    """
    a = np.array(rows, dtype=float)
    for end in range(len(a), 0, -_GTH_BLOCK):
        start = max(end - _GTH_BLOCK, 0)
        pivots = _reduce_block(a, start, end)
        if start:
            _carry_block(a, start, end, pivots)
            for lower in _row_blocks(start):
                update = a[lower, start:end] @ a[start:end, :start]
                update += a[lower, :start]  # an in-place add would copy the strided view twice
                a[lower, :start] = update
    return a


def _reduce_block(a: np.ndarray, start: int, end: int) -> np.ndarray:
    """Eliminate the states ``start..end-1`` of :func:`_gth_reduce`'s array
    from the last, in a copy of their block whose first column lumps the
    mass each row sends below ``start``; write their factors back and return
    their pivots.  State 0 is never eliminated."""
    block = np.empty((end - start, end - start + 1))
    np.sum(a[start:end, :start], axis=1, out=block[:, 0])
    block[:, 1:] = a[start:end, start:end]
    for m in range(end - start - 1, -1 if start else 0, -1):
        row = block[m, : m + 1]
        pivot = row.sum()
        block[m, m + 1] = pivot
        column = block[:m, m + 1]
        column /= pivot
        block[:m, : m + 1] += np.multiply.outer(column, row)
    a[start:end, start:end] = block[:, 1:]
    return np.diagonal(block, 1).copy()


def _carry_block(a: np.ndarray, start: int, end: int, pivots: np.ndarray) -> None:
    """Give the rows and columns of the states ``start..end-1`` outside their
    block the eliminations within it: ``r <- (I - T)^-1 r`` for the rows,
    with ``T(m, k) = a(m, k)``, the block's scaled columns (m < k), and ``c
    <- c (I - T')^-1 diag(1/s)`` for the columns, with ``T'(k, m) = a(k, m)
    / s_k`` (m < k); both inverses by :func:`_unit_triangular_inverse`."""
    factors = a[start:end, start:end]
    inverse = _unit_triangular_inverse(np.triu(factors, 1))
    for lower in _row_blocks(start):
        a[start:end, lower] = inverse @ a[start:end, lower]
    inverse = _unit_triangular_inverse(np.tril(factors, -1) / pivots[:, None])
    inverse /= pivots
    for lower in _row_blocks(start):
        a[lower, start:end] = a[lower, start:end] @ inverse


def stationary_distribution(p: TransitionMatrix) -> DiscreteDistribution:
    """The unique stationary law, by GTH state reduction (:func:`_gth_reduce`).

    ``mu_0 = 1`` and ``mu_k = sum_{i<k} mu_i a(i, k)`` over the reduced array
    a (whose columns are divided by their pivots), normalized: the balance of
    state k in the chain censored to the states up to k.  Every term is a
    nonnegative product, so each entry of mu is accurate to a few ulps
    however small it is (O'Cinneide, Numer. Math. 65, 1993); a law with
    entries near 1e-300 keeps them.  The fixed-point residual ``max |mu p -
    mu|`` is then checked to 1e-12.
    """
    reduced = _gth_reduce(p.rows)
    mu = np.empty(p.size)
    mu[0] = 1.0
    for k in range(1, p.size):
        mu[k] = mu[:k] @ reduced[:k, k]
    mu /= mu.sum()
    residual = float(np.max(np.abs(mu @ p.rows - mu)))
    if residual > 1e-12:
        raise NumericsError(f"stationary solve residual {residual!r} exceeds 1e-12")
    return DiscreteDistribution(mu, renormalize=True)


def relative_entropy_rate(q: TransitionMatrix, p: TransitionMatrix) -> float:
    """Relative entropy rate ``sum_x mu_q(x) R(q(x,.) || p(x,.))`` in nats/step."""
    _require_mutual_ac(q.rows, p.rows, "relative entropy rate")
    return float(q._stationary.weights @ _row_kl(q.rows, p.rows))


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

    def exponents() -> np.ndarray:  # by row blocks, into the buffer that _log_perron tilts
        out = np.empty(q.rows.shape)
        for rows in _row_blocks(q.size):
            out[rows] = _renyi_exponents(q.rows[rows], p.rows[rows], alpha)
        return out

    log_rho = _log_perron(1.0, exponents)[0]
    if log_rho == -math.inf:
        raise NumericsError("the tilted matrix underflowed to a zero Perron root")
    return max(0.0, log_rho / (alpha - 1.0))  # 0.0 first: max keeps it over a -0.0


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
    base, exponents, route: _PerronRoute | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """``log rho(base * e^exponents)`` entrywise, for n x n exponents and a
    scalar or n x n base, or n exponents that tilt the columns of an n x n
    base (a ``-inf`` exponent is a zero entry, a zero root gives ``-inf``),
    with the left and right Perron vectors of :func:`perron_root`, which
    only reads the tilted matrix built here in one buffer, on ``route``.
    ``exponents`` is an array, which is never written, or a function that
    returns a new one, which becomes the buffer.

    e^x overflows past x = 709 and underflows below -745, and a large tilt
    or a tiny entry of p reaches either.  The exponents are shifted by their
    largest, unless they span more than 700: then the smallest finite one is
    kept at -700 instead, as long as the largest stays at or below 700.  A
    small entry can close the cycle that sets the root (e^-200 across from
    e^600), so it is not given up while the range still holds it.
    """
    matrix = exponents() if callable(exponents) else np.array(exponents, dtype=float)
    top = float(np.max(matrix))
    low = float(np.min(matrix, where=matrix > -math.inf, initial=top))
    shift = max(top - 700.0, min(top, low + 700.0))
    matrix -= shift
    np.exp(matrix, out=matrix)
    if matrix.ndim == 2:
        tilted = np.multiply(base, matrix, out=matrix)
    else:  # a tilt of the columns; a broadcast product would buffer 64 KB more
        tilted = np.einsum("ij,j->ij", base, matrix)
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
    width; ``stationary_gap`` is ``E_{mu_q}(g) - E_{mu_p}(g)`` itself, taken
    as ``mu_q ((q - p) h)`` with h the Poisson solution of
    :func:`_poisson_solution`, which keeps its digits as q nears p.
    """

    rer: float
    xi_plus_rate: float
    xi_minus_rate: float
    lambda_curve: Callable[[float], tuple[float, float]]
    iact: float
    stationary_gap: float


def _poisson_solution(p: TransitionMatrix, g: Observable) -> np.ndarray:
    """h solving the Poisson equation ``(I - p) h = gbar`` with ``mu . h =
    0``, for gbar the observable centered by p's stationary law mu.

    ``U L h = gbar`` over the GTH factors a of :func:`_gth_reduce`: ``U y =
    gbar`` by one backward sweep, ``y_k = gbar_k + sum_{j>k} a(k, j) y_j``,
    then ``L h = y`` by one forward sweep, ``h_k = (y_k + sum_{j<k} a(k, j)
    h_j) / s_k``, and h less ``mu . h``.  ``L(0, 0) = 0``, as ``I - p`` is
    singular: h_0 is taken as 0, and ``mu . gbar = 0`` is what makes row 0
    consistent.  The chain keeps the read-only h of the last observable it
    was asked for, so the IACT and the stationary gap of one pair read one
    reduction and one pair of sweeps.
    """
    kept = p.__dict__.get("_poisson")
    if kept is not None and kept[0] is g:
        return kept[1]
    mu = p._stationary.weights
    centered = g.values - float(mu @ g.values)
    reduced = _gth_reduce(p.rows)
    y = np.array(centered)
    for k in range(p.size - 2, 0, -1):
        y[k] += reduced[k, k + 1 :] @ y[k + 1 :]
    h = np.zeros(p.size)
    for k in range(1, p.size):
        h[k] = (y[k] + reduced[k, :k] @ h[:k]) / reduced[k, k]
    h -= mu @ h
    h.setflags(write=False)
    p.__dict__["_poisson"] = (g, h)
    return h


def integrated_autocorrelation(p: TransitionMatrix, g: Observable) -> float:
    """Asymptotic variance ``sigma^2 = lambda''(0)`` of g under p, for any
    irreducible p, periodic or not.

    With gbar the centered observable, mu the stationary law and h the
    Poisson solution of :func:`_poisson_solution` (``(I - p) h = gbar``,
    ``mu . h = 0``, from p's GTH factors), ``sigma^2 = 2 gbar^T D h - gbar^T
    D gbar`` with ``D = diag(mu)``.  Where the powers of p converge, ``h =
    sum_k p^k gbar`` and sigma^2 is the variance plus twice the summed
    stationary autocovariances of g.
    """
    _check_observable(p, g)
    mu = p._stationary.weights
    centered = g.values - float(mu @ g.values)
    h = _poisson_solution(p, g)
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

    The gap itself is ``mu_q ((q - p) h)`` (``mu_q (I - p) h = mu_q gbar``),
    with the diagonal of ``q - p`` taken as minus its off-diagonal row sum,
    as both rows sum to 1: no term is a difference of the two expectations.
    h is the Poisson solution that the IACT reads.
    """
    return _rate_bound(q, p, g)[0]


def _rate_bound(
    q: TransitionMatrix, p: TransitionMatrix, g: Observable
) -> tuple[RateBound, np.ndarray]:
    """:func:`xi_rate_bounds`, and the row KL divergences of the rate."""
    _require_mutual_ac(q.rows, p.rows, "steady-state rate bound")
    _check_observable(p, g)
    mu_p, mu_q = p._stationary.weights, q._stationary.weights
    centered = g.values - float(mu_p @ g.values)
    curve = _lambda_curve(p.rows, centered, mu_p)
    iact = integrated_autocorrelation(p, g)
    row_kl = _row_kl(q.rows, p.rows)
    rer = float(mu_q @ row_kl)
    bound = _optimized(curve, iact, rer)
    h = _poisson_solution(p, g)
    drift = np.empty(p.size)  # (q - p) h
    for rows in _row_blocks(p.size):
        diff = q.rows[rows] - p.rows[rows]
        square = diff[:, rows]
        np.fill_diagonal(square, 0.0)
        np.fill_diagonal(square, -diff.sum(axis=1))
        drift[rows] = diff @ h
    return RateBound(rer, bound.xi_plus, bound.xi_minus, curve, iact, float(mu_q @ drift)), row_kl


def _row_kl(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``R(q(x,.) || p(x,.))`` of each row x: the terms of :func:`_kl_terms`
    summed by row blocks, so the pass holds a small part of one n x n array."""
    out = np.empty(len(q))
    for rows in _row_blocks(len(q)):
        out[rows] = _kl_terms(q[rows], p[rows]).sum(axis=1)
    return out


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


def _sup_log_ratio(q: np.ndarray, p: np.ndarray) -> float:
    """``max |log(q / p)|`` over the support of q, by row blocks."""
    top = 0.0
    for rows in _row_blocks(len(q)):
        support = q[rows] > 0
        log_ratio = _log_on(q[rows], support, 0.0)
        log_ratio -= _log_on(p[rows], support, 0.0)
        top = max(top, float(np.abs(log_ratio, out=log_ratio).max()))
    return top


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
    exact, row_kl = _rate_bound(q, p, g)
    sup_row = float(row_kl.max())
    sup_ratio = _sup_log_ratio(q.rows, p.rows)
    bounds = [_optimized(exact.lambda_curve, exact.iact, r) for r in (sup_row, sup_ratio)]
    return CheapRateBounds(exact, sup_row, sup_ratio, *bounds)


def _initial_law(p: TransitionMatrix, nu: DiscreteDistribution | None) -> np.ndarray:
    """Weights of an initial law on p's states, p's stationary law by default."""
    if nu is None:
        return p._stationary.weights
    if nu.support_size != p.size:
        raise DimensionError(f"initial law has {nu.support_size} states for {p.size}")
    return nu.weights


def _renyi_steps(q: np.ndarray, p: np.ndarray, alpha: float) -> tuple[np.ndarray, ...]:
    """``(p e^{a s}, a q expm1((a - 1) s), p (tail(a s) - a tail(s)))``
    entrywise, any shape, with ``s = log(q / p)`` and every term 0 where p
    is 0 (q must be 0 there too): the three matrices of one step of the
    path Renyi sum (see :func:`path_divergence_report`).  The last two keep
    their digits as q nears p; where ``e^{a s}`` or ``e^s`` overflows they
    are ``a (p e^{a s} - q)`` and ``p e^{a s} - a q + (a - 1) p``, in which
    one term outweighs the others."""
    s = np.where(p > 0, _log_ratio(q, p), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        tilt = np.exp(_renyi_exponents(q, p, alpha))
        cross = q * np.expm1((alpha - 1.0) * s)
        spread = p * _renyi_tails(s, alpha)
        cross = np.where(np.isfinite(cross), cross, tilt - q)
        spread = np.where(np.isfinite(spread), spread, tilt - alpha * q + (alpha - 1.0) * p)
    return tilt, alpha * cross, spread


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
    so one pass over the N steps gives them exactly in O(N |S|^2) work, with
    no path law built, each from the term kernels of
    :mod:`~infoscale.divergences`.  With ``rowKL(x) = R(q(x,.) || p(x,.))`` and
    ``rowH2(x) = sum_y (sqrt q(x,y) - sqrt p(x,y))^2``:

    - ``KL = R(nu_q || nu_p) + sum_{t<N} (nu_q q^t) . rowKL``;
    - ``H^2 = sum (sqrt nu_q - sqrt nu_p)^2 + sum_{t<N} (sqrt(nu_q nu_p) B^t) . rowH2``
      with ``B = sqrt(q p)`` entrywise;
    - the Renyi order a is ``log1p(S_a) / (a - 1)`` with ``S_a = sum p
      (tail(a G) - a tail(G)) = sum q^a p^(1-a) - 1``, ``G = log(q / p)`` of
      the path and ``tail(y) = e^y - 1 - y``, and ``chi^2 = S_2``.  Over the
      paths ending at y, ``e = sum p (tail(a G) - a tail(G))``, ``b = sum (q
      - p)`` and ``c = sum p`` step to ``e M + b X + c W``, ``b q + c (q -
      p)`` and ``c p``, with the matrices of :func:`_renyi_steps`, ``M = p
      e^{a s}``, ``X = a q expm1((a - 1) s)`` and ``W = p (tail(a s) - a
      tail(s))`` (``s = log(q / p)``); no term is a difference of numbers
      near 1, so ``S_a`` keeps its digits as q nears p.  One pass carries
      the order 2 and the report's order.  chi^2 is ``inf`` past
      ``expm1(700)`` or where the recursion leaves the float range; the
      Renyi divergence is then, or where ``1 + S_a < 1/2``, the log of the
      path transfer ``nu_q^a nu_p^(1-a) . M^N . 1`` (orders within 1e-6 of 1
      give the KL, as in :func:`~infoscale.divergences.renyi_divergence`).

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
    _require_mutual_ac(start_q, start_p, "path divergences")
    _require_mutual_ac(q.rows, p.rows, "path divergences")
    row_kl = _row_kl(q.rows, p.rows)
    row_h2 = _hellinger_terms(q.rows, p.rows).sum(axis=1)
    overlap = np.sqrt(q.rows * p.rows)
    orders = (2.0,) if near_kl or alpha == 2.0 else (2.0, alpha)
    steps = [_renyi_steps(q.rows, p.rows, a) for a in orders]
    sums = [_renyi_steps(start_q, start_p, a)[2] for a in orders]
    kl_terms = [float(_kl_terms(start_q, start_p).sum())]
    h2_terms = [float(_hellinger_terms(start_q, start_p).sum())]
    marginal, affinity = start_q, np.sqrt(start_q * start_p)
    diff, b, c = q.rows - p.rows, start_q - start_p, start_p
    with np.errstate(over="ignore", invalid="ignore"):  # S_a past the float range
        for _ in range(n):
            kl_terms.append(float(marginal @ row_kl))
            h2_terms.append(float(affinity @ row_h2))
            marginal, affinity = marginal @ q.rows, affinity @ overlap
            sums = [e @ m + b @ x + c @ w for e, (m, x, w) in zip(sums, steps)]
            b, c = b @ q.rows + c @ diff, c @ p.rows
        chi2, total = float(sums[0].sum()), float(sums[-1].sum())
    chi2 = _clamp_nonneg(chi2, "path chi-squared") if chi2 <= _CHI2_LIMIT else math.inf
    kl = math.fsum(kl_terms)
    if near_kl:
        renyi = kl
    elif math.isfinite(total) and total >= -0.5:
        renyi = _clamp_nonneg(math.log1p(total) / (alpha - 1.0), "path Renyi divergence")
    else:
        exponents = _renyi_exponents(q.rows, p.rows, alpha)[:, None, :]  # one-state blocks
        transfer = _PathTransfer(_renyi_exponents(start_q, start_p, alpha), exponents, n)
        renyi = _clamp_nonneg(transfer.log_partition / (alpha - 1.0), "path Renyi divergence")
    report = DivergenceReport(None, math.sqrt(math.fsum(h2_terms)), kl, alpha, renyi, chi2)
    report.validate_chain()
    return report


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
