"""Finite-support distributions, information divergences, and classical QoI bounds.

Conventions
-----------
All divergences take the approximating / perturbed measure ``q`` first and the
reference measure ``p`` second, i.e. ``relative_entropy(q, p)`` is the KL
divergence of ``q`` from ``p`` (``sum q log(q/p)``).  Entropic sums use the
convention ``0 * log(0/p) = 0``.  Absolute-continuity violations raise
:class:`~infoscale.errors.AbsoluteContinuityError`.

The Markov and Gibbs layers share this module's array kernels: the one
max-shifted log-sum-exp; the one path-measure transfer, :class:`_PathTransfer`
(Markov paths, Gibbs measures), whose forward recursion steps on that shift
rule and whose centred-CGF method gives the path CGF and the Gibbs relative
entropy; the exponential tail ``e^y - 1 - y``; one term kernel per
divergence (Bregman KL, Hellinger, chi-squared, the Renyi exponents); the
size and absolute-continuity checks, and the Renyi order rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    DimensionError,
    NormalizationError,
    NumericsError,
    ParameterError,
)

_NORMALIZATION_TOL = 1e-12
_CHAIN_TOL = 1e-10
# Below this distance from 1, the Renyi order is evaluated by its KL limit
# to avoid catastrophic cancellation in the 1/(alpha-1) prefactor.
_RENYI_KL_WINDOW = 1e-6
_FLOAT_MIN = float(np.finfo(float).min)


def _as_readonly_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise NormalizationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """A probability vector on a finite support.

    Weights must be nonnegative and sum to one within 1e-12.  Pass
    ``renormalize=True`` to accept arbitrary positive weight vectors and
    rescale them; by default nothing is rescaled so results are reproducible
    bit-for-bit from the input.
    """

    weights: np.ndarray

    def __init__(self, weights, *, renormalize: bool = False):
        arr = _as_readonly_array(weights, "weights")
        if np.any(arr < 0):
            raise NormalizationError("weights must be nonnegative")
        total = float(arr.sum())
        if renormalize:
            if total <= 0:
                raise NormalizationError("cannot renormalize a zero weight vector")
            arr = arr / total
        elif abs(total - 1.0) > _NORMALIZATION_TOL:
            raise NormalizationError(
                f"weights sum to {total!r}, outside tolerance {_NORMALIZATION_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def support_size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class Observable:
    """A real-valued function on a finite support, aligned index-by-index."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _as_readonly_array(values, "values"))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def expectation(self, dist: DiscreteDistribution) -> float:
        self._check_aligned(dist)
        return float(np.dot(dist.weights, self.values))

    def variance(self, dist: DiscreteDistribution) -> float:
        return self.second_moment(dist, about=self.expectation(dist))

    def second_moment(self, dist: DiscreteDistribution, about: float = 0.0) -> float:
        """``sum p_i (f_i - about)^2`` over the atoms with ``p_i > 0``; inf past the float range."""
        self._check_aligned(dist)
        on = dist.weights > 0
        with np.errstate(over="ignore"):
            return float(np.dot(dist.weights[on], (self.values[on] - about) ** 2))

    def _check_aligned(self, dist: DiscreteDistribution) -> None:
        if self.values.size != dist.support_size:
            raise DimensionError(
                f"observable has {self.values.size} values but the "
                f"distribution support size is {dist.support_size}"
            )


def _check_same_support(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Raise DimensionError unless the arrays ``a`` and ``b`` (weights or
    transition rows) have one shape; ``what`` names the quantity."""
    if a.shape != b.shape:
        raise DimensionError(f"{what}: support sizes differ: {len(a)} vs {len(b)}")


def _require_ac(q: np.ndarray, p: np.ndarray, what: str) -> None:
    """Raise unless ``q`` and ``p`` have one shape (DimensionError) and q
    vanishes wherever p does (AbsoluteContinuityError)."""
    _check_same_support(q, p, what)
    if np.any((q > 0) & (p == 0)):
        raise AbsoluteContinuityError(f"{what} undefined: q is not absolutely continuous w.r.t. p")


def _require_mutual_ac(q: np.ndarray, p: np.ndarray, what: str) -> None:
    """Raise unless ``q`` and ``p`` have one shape (DimensionError) and
    vanish at the same entries (AbsoluteContinuityError)."""
    _check_same_support(q, p, what)
    if not np.array_equal(q > 0, p > 0):
        raise AbsoluteContinuityError(
            f"{what} requires mutually absolutely continuous measures"
        )


# 1/k!, k = 11 to 2: (e^y - 1 - y) / y^2 to 4e-18 relative for |y| <= 1/8.
_EXP_TAIL = [1.0 / math.factorial(k) for k in range(11, 1, -1)]


def _exp_tail(y: np.ndarray, em1: np.ndarray) -> np.ndarray:
    """``e^y - 1 - y`` to full relative precision, given ``em1 = expm1(y)``:
    by its Taylor series where ``|y| <= 1/8``, where ``em1 - y`` cancels."""
    return np.where(np.abs(y) <= 0.125, np.polyval(_EXP_TAIL, y) * y * y, em1 - y)


def _log_ratio(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``log(q / p)`` entrywise, any shape, ``-inf`` where q is 0; p must be
    positive wherever q is.  It is ``log q - log p``, except where that lies
    within 1/8 of 0: there it is ``log1p((q - p) / p)``, whose difference is
    exact, so it keeps its relative digits however close q is to p."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(q)
        s -= np.log(p)
        near = np.abs(s) <= 0.125
        p_near = p[near]
        s[near] = np.log1p((q[near] - p_near) / p_near)
    return s


def _kl_terms(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The Bregman terms ``q log(q / p) - q + p`` entrywise, any shape: each
    is >= 0, and it is p where q is 0; p must be positive wherever q is.
    Over two laws they sum to the relative entropy.  Where ``|s| <= 1/8``,
    ``s = log(q / p)`` and ``d = e^s - 1``, a term is ``p (d s - tail(s))``
    with ``tail(s) = e^s - 1 - s`` (:func:`_exp_tail`): both parts are of
    the order of s^2, so it keeps its relative digits however close q is
    to p."""
    s = _log_ratio(q, p)
    near = np.abs(s) <= 0.125
    s_near = s[near]
    terms = s  # in place: the Markov rows pass whole transition matrices
    with np.errstate(invalid="ignore"):  # 0 * -inf where q is 0, set below
        terms *= q
        terms -= q
        terms += p
    d = np.expm1(s_near)
    terms[near] = p[near] * (d * s_near - _exp_tail(s_near, d))
    absent = q == 0
    terms[absent] = p[absent]
    return terms


def _hellinger_terms(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``(sqrt q - sqrt p)^2`` entrywise, any shape, 0 where q and p are both
    0, taken as ``((q - p) / (sqrt q + sqrt p))^2``: the difference is exact,
    so it keeps its relative digits however close q is to p."""
    with np.errstate(invalid="ignore"):  # 0 / 0 where both are 0, set below
        terms = np.subtract(q, p)
        terms /= np.sqrt(q) + np.sqrt(p)
    terms *= terms
    terms[(q == 0) & (p == 0)] = 0.0
    return terms


def _chi2_terms(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``(q - p)^2 / p`` entrywise, any shape, 0 where p is 0 (q must be 0
    there too): the difference is exact, so it keeps its relative digits."""
    diff = np.subtract(q, p)
    diff *= diff
    return np.divide(diff, p, out=np.zeros_like(diff), where=p > 0)


def _log_on(x: np.ndarray, support: np.ndarray, fill: float) -> np.ndarray:
    """``log x`` on ``support`` and ``fill`` off it, in one new array."""
    return np.log(x, where=support, out=np.full_like(x, fill))


def _renyi_exponents(q: np.ndarray, p: np.ndarray, alpha: float) -> np.ndarray:
    """``alpha log q + (1 - alpha) log p`` entrywise, ``-inf`` where q is 0;
    any shape, alpha > 0, and q and p must be mutually absolutely continuous."""
    support = q > 0
    exponents = _log_on(q, support, -math.inf)
    exponents *= alpha
    log_p = _log_on(p, support, 0.0)
    log_p *= 1.0 - alpha
    exponents += log_p
    return exponents


def _near_kl(alpha: float, kl_name: str) -> bool:
    """Check a Renyi order: positive, finite and not 1 (``kl_name`` is the KL
    function to call instead).  True within ``_RENYI_KL_WINDOW`` of 1, where
    the order is evaluated by its KL limit."""
    if not (0 < alpha < math.inf):
        raise ParameterError(f"Renyi order must be positive and finite, got {alpha!r}")
    if alpha == 1.0:
        raise ParameterError(f"Renyi order 1 is the KL limit; use {kl_name}")
    return abs(alpha - 1.0) < _RENYI_KL_WINDOW


def _positive_int(value, name: str) -> int:
    """``value`` as an int if it is a whole real number >= 1 (not a bool)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and value >= 1 and int(value) == value):
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _clamp_nonneg(value: float, what: str) -> float:
    # Rounding can push an exact zero slightly negative; anything worse is a bug.
    # A -0.0 comes back as 0.0, and a NaN as it is.
    if value < -1e-12:
        raise NumericsError(f"{what} evaluated to {value!r} < 0")
    return 0.0 if value <= 0.0 else value


def _logsumexp(exponents: np.ndarray, weights: np.ndarray | None = None) -> float:
    """``log sum_i w_i e^{x_i}`` over nonnegative weights (all 1 by default),
    shifted by the largest exponent that carries weight, so no term
    overflows; an infinite or NaN maximum comes back as it is, and no weight
    gives ``-inf``."""
    if weights is not None:
        exponents, weights = exponents[weights > 0], weights[weights > 0]
    m = float(np.max(exponents, initial=-math.inf))
    if not math.isfinite(m):
        return m
    terms = np.exp(exponents - m)
    return m + math.log(float(np.sum(terms) if weights is None else weights @ terms))


def _logsumexp_columns(terms: np.ndarray) -> np.ndarray:
    """``log sum exp`` down axis 0 of ``terms``, each column shifted by its
    largest exponent as in :func:`_logsumexp`.  Run it under
    ``np.errstate(all="ignore")``: an all ``-inf`` column warns (and stays
    ``-inf``)."""
    top = terms.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    return shift + np.log(np.exp(terms - shift).sum(axis=0))


class _PathTransfer:
    """A measure on the paths ``b_0 .. b_n`` of n = ``steps`` steps over
    blocks, with log weight ``log_start[b_0] + sum_t exponents[p, m, x]``
    (a ``-inf`` entry is a zero weight).  A step moves block ``p q^(w-1) +
    m`` (of q^w blocks, numbered first spin most significant) to block ``m
    q + x``, so each block has q predecessors and ``exponents`` has shape
    ``(q, q^(w-1), q)``; without steps it is never read.  A Markov path is
    the case w = 1 (``log nu`` and ``log P[:, None, :]``); a 1-D Gibbs chain
    is a block of r spins, r the interaction's range, and any other volume
    one block of all its sites with no steps.

    Construction runs no pass: ``log_partition``, log Z, is one forward
    pass on first read.
    """

    def __init__(self, log_start, exponents, steps: int):
        self.log_start, self.exponents, self.steps = log_start, exponents, steps

    @cached_property
    def log_partition(self) -> float:
        return self._forward()[2]

    def cgf(self, start, window, log_ratio: float | None = None, name="the path sum") -> float:
        """``log E e^G - E G`` under this measure, for the path sum G of
        ``start``/``window`` (laid out as ``log_start``/``exponents``); a
        tilt c is G scaled by c.  Exactly 0 where G is constant.  Where G
        stays within 1 of its mean m on every path, it is ``log1p E(e^(G -
        m) - 1 - (G - m))``, which keeps its digits however small it is;
        elsewhere ``log_ratio - m``, with ``log_ratio`` the log Z of the
        measure tilted by e^G less this one's (computed when not given).
        ParameterError names G (``name``) where it leaves the float range."""
        largest, smallest, log_z, mean = self._forward(start, window, extremes=True)
        if not (math.isfinite(largest) and math.isfinite(smallest)):
            raise ParameterError(f"{name} leaves the float range")
        if largest == smallest:
            return 0.0
        if largest - mean <= 1.0 and mean - smallest <= 1.0:
            # G - n k has the same centred CGF; k, the window's midrange, keeps y near 0
            lift = window.max() / 2 + window.min() / 2 if self.steps else 0.0
            tail = self._forward(start, window - lift, centre=mean - self.steps * lift)[3]
            if math.isfinite(tail):
                return math.log1p(tail)
        if log_ratio is None:
            tilted = _PathTransfer(self.log_start + start, self.exponents + window, self.steps)
            log_ratio = tilted.log_partition - log_z
        return log_ratio - mean

    def _forward(
        self, start=None, window=None, centre: float | None = None, extremes: bool = False
    ) -> tuple[float, float, float, float]:
        """One forward pass of this measure, for the path sum G of
        ``start``/``window`` (this measure's own log weight by default):
        with ``extremes``, the largest and the smallest G, by max-plus (NaN
        where a sum meets ``inf - inf``); log Z, from the log-sum-exp
        ``log_alpha``; and, for a given G, ``E(G)``, or, given ``centre``,
        ``E(e^y - 1 - y)`` with ``y = G - centre``.  The last rides on the
        conditional means, per block, of y and of ``e^y - 1 - y``, which a
        step with increment d maps to ``y + d`` and ``F e^d + y (e^d - 1) +
        (e^d - 1 - d)``; a block no path reaches has law 0.  Each step
        lowers its exponents by the largest finite running log weight, so
        those stay O(1) and the predecessor laws are differences of O(1)
        numbers, not of O(t) ones; log Z is the ``math.fsum`` of the shifts
        and the last log-sum-exp.  E(G) is kept the same way: each step
        shifts the conditional means of G by their largest value, and the
        shifts are summed back at the end.  What a pass does not carry comes
        back NaN."""
        expectation = start is not None
        start, window = (start, window) if expectation else (self.log_start, self.exponents)
        heads = self.exponents.shape[:2] + (1,)  # a block's conditional mean, by predecessor
        log_alpha, high, low, shifts, offsets = self.log_start, start, start, [], []
        with np.errstate(all="ignore"):
            y = start if centre is None else start - centre
            if centre is not None:
                f, em1 = _exp_tail(y, np.expm1(y)), np.expm1(window)
                tail = _exp_tail(window, em1)
            for _ in range(self.steps):
                if extremes:
                    high = _block_terms(high, window).max(axis=0).ravel()
                    low = _block_terms(low, window).min(axis=0).ravel()
                shifts.append(_peak(log_alpha))
                terms = _block_terms(log_alpha, self.exponents - shifts[-1])
                log_alpha = _logsumexp_columns(terms)
                if expectation:
                    # of the predecessor, given the block; 0 where no path reaches it
                    law = np.exp(terms - np.maximum(log_alpha, _FLOAT_MIN))
                    if centre is not None:
                        f = law * (f.reshape(heads) * (1.0 + em1) + y.reshape(heads) * em1 + tail)
                        f = f.sum(axis=0).ravel()
                    y = (law * _block_terms(y, window)).sum(axis=0).ravel()
                    if centre is None:  # y is only read at the end: keep it O(1)
                        offsets.append(_peak(y))
                        y = y - offsets[-1]
                log_alpha = log_alpha.ravel()
            log_last = _logsumexp(log_alpha)
            log_z = math.fsum(shifts + [log_last])
            value = math.nan
            if expectation:
                last = np.exp(log_alpha - log_last)
                value = math.fsum(offsets + [float(last @ (y if centre is None else f))])
        largest, smallest = (float(high.max()), float(low.min())) if extremes else (math.nan,) * 2
        return largest, smallest, log_z, value


def _peak(log_weights: np.ndarray) -> float:
    """The largest entry of ``log_weights``, or 0 where that is not finite:
    the shift that keeps a transfer's running log weights, or conditional
    means, O(1)."""
    top = float(log_weights.max())
    return top if math.isfinite(top) else 0.0


def _block_terms(vec: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``vec[p q^(w-1) + m, ...] + exponents[p, m, x]`` at ``[p, m, x, ...]``:
    for each block ``m q + x`` of the next step, its q predecessors down axis
    0.  Trailing axes of ``vec`` ride along."""
    head = vec.reshape(exponents.shape[:2] + (1,) + vec.shape[1:])
    return head + exponents.reshape(exponents.shape + (1,) * (vec.ndim - 1))


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, ``0.5 * sum |q - p|``; symmetric, in [0, 1]."""
    _check_same_support(p.weights, q.weights, "total variation")
    return 0.5 * float(np.sum(np.abs(q.weights - p.weights)))


def relative_entropy(q: DiscreteDistribution, p: DiscreteDistribution) -> float:
    """Kullback-Leibler divergence ``R(q || p) = sum q log(q / p)`` in nats,
    summed as the Bregman terms of :func:`_kl_terms`, each >= 0.

    Requires q absolutely continuous w.r.t. p.
    """
    _require_ac(q.weights, p.weights, "relative entropy")
    return float(np.sum(_kl_terms(q.weights, p.weights)))


def chi_squared(q: DiscreteDistribution, p: DiscreteDistribution) -> float:
    """Chi-squared divergence ``sum (q - p)^2 / p``, summed as the terms of
    :func:`_chi2_terms`, each >= 0.  Requires q absolutely continuous w.r.t. p."""
    _require_ac(q.weights, p.weights, "chi-squared divergence")
    return float(np.sum(_chi2_terms(q.weights, p.weights)))


def hellinger(q: DiscreteDistribution, p: DiscreteDistribution) -> float:
    """Hellinger distance ``sqrt(sum (sqrt(q) - sqrt(p))^2)``, in [0, sqrt(2)],
    summed as the terms of :func:`_hellinger_terms`."""
    _check_same_support(q.weights, p.weights, "Hellinger distance")
    return float(np.sqrt(np.sum(_hellinger_terms(q.weights, p.weights))))


def renyi_divergence(
    q: DiscreteDistribution, p: DiscreteDistribution, alpha: float
) -> float:
    """Renyi divergence of order alpha, ``(alpha-1)^-1 log sum q^a p^(1-a)``.

    With ``s = log(q / p)`` and ``tail(y) = e^y - 1 - y``, that log is
    ``log1p(sum p (tail(a s) - a tail(s)))``, whose terms all have the sign
    of ``a - 1``, so it keeps its digits however close q is to p.  It is a
    log-sum-exp past ``max(a, 1) max|s| = 700``, where ``e^(a s)`` could
    overflow, and where the log1p argument is below -1/2: there the sum is
    far from 1, and its absolute error of about 1e-16 per term would swamp
    a sum near 0.  Nondecreasing in alpha.  Orders within 1e-6 of 1 are
    evaluated by the KL limit.  Requires mutual absolute continuity and
    ``alpha > 0``.
    """
    if _near_kl(alpha, "relative_entropy"):
        return relative_entropy(q, p)
    _require_mutual_ac(q.weights, p.weights, "Renyi divergence")
    mask = q.weights > 0
    q_mask, p_mask = q.weights[mask], p.weights[mask]
    s = _log_ratio(q_mask, p_mask)
    if max(alpha, 1.0) * float(np.max(np.abs(s))) <= 700.0:
        a_s = alpha * s
        terms = _exp_tail(a_s, np.expm1(a_s)) - alpha * _exp_tail(s, np.expm1(s))
        gap = float(p_mask @ terms)
        if gap >= -0.5:  # below, the sum is under 1/2 and its log needs no log1p
            return _clamp_nonneg(math.log1p(gap) / (alpha - 1.0), "Renyi divergence")
    value = _logsumexp(_renyi_exponents(q_mask, p_mask, alpha)) / (alpha - 1.0)
    return _clamp_nonneg(value, "Renyi divergence")


@dataclass(frozen=True)
class DivergenceReport:
    """The five divergences for one ordered pair of measures.

    ``tv`` is None for product-measure reports produced by
    :func:`iid_scaled_divergences` and for Markov path-measure reports of
    :func:`infoscale.markov.path_divergence_report`: total variation has no
    product or transfer form.  The chain ordering
    ``H^2 <= D_{1/2} <= KL <= D_2 <= chi^2`` is validated on construction via
    the Hellinger / chi-squared representations of the order-1/2 and order-2
    Renyi divergences.
    """

    tv: float | None
    hellinger: float
    kl: float
    renyi_alpha: float
    renyi: float
    chi2: float

    def chain_values(self) -> tuple[float, float, float, float, float]:
        """(H^2, D_1/2, KL, D_2, chi^2) derived from the stored quantities."""
        h2 = self.hellinger**2
        d_half = -2.0 * math.log1p(-0.5 * h2) if h2 < 2.0 else math.inf
        d_two = math.log1p(self.chi2) if math.isfinite(self.chi2) else math.inf
        return h2, d_half, self.kl, d_two, self.chi2

    def validate_chain(self, tol: float = _CHAIN_TOL) -> None:
        h2, d_half, kl, d_two, chi2 = self.chain_values()
        if h2 < 2.0 * (1.0 - 1e-13):
            seq = (h2, d_half, kl, d_two, chi2)
        else:
            # A saturated Hellinger distance (product measures at very large
            # N) no longer determines the order-1/2 divergence, so only the
            # KL tail of the chain remains checkable.
            seq = (kl, d_two, chi2)
        for left, right in zip(seq, seq[1:]):
            if left > right + tol:
                raise NumericsError(
                    f"divergence chain violated: {seq!r} is not nondecreasing"
                )

    def as_dict(self) -> dict:
        return asdict(self)


def divergence_report(
    p: DiscreteDistribution, q: DiscreteDistribution, alpha: float = 2.0
) -> DivergenceReport:
    """Compute all five divergences of ``q`` from ``p`` and validate the chain."""
    report = DivergenceReport(
        tv=total_variation(p, q),
        hellinger=hellinger(q, p),
        kl=relative_entropy(q, p),
        renyi_alpha=alpha,
        renyi=renyi_divergence(q, p, alpha),
        chi2=chi_squared(q, p),
    )
    report.validate_chain()
    return report


def iid_scaled_divergences(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    n: int,
    alpha: float = 2.0,
) -> DivergenceReport:
    """Divergences between the N-fold product measures, from single-site values.

    Closed forms (never by enumeration):
    ``KL_N = N KL``, ``D_alpha,N = N D_alpha``,
    ``chi2_N = (1 + chi2)^N - 1`` and
    ``H_N = sqrt(2 - 2 (1 - H^2/2)^N)``.
    Both powers are taken as ``expm1(N log1p(.))``, so a large N gives the
    chi-squared ``+inf`` rather than an overflow, and a tiny H keeps its
    digits.  Total variation has no product form and is reported as None.
    """
    n = _positive_int(n, "N")
    kl_1 = relative_entropy(q, p)
    renyi_1 = renyi_divergence(q, p, alpha)
    chi2_1 = chi_squared(q, p)
    h_1 = hellinger(q, p)

    log_chi2_base = math.log1p(chi2_1)
    chi2_n = math.inf if n * log_chi2_base > 700.0 else math.expm1(n * log_chi2_base)
    half_h2 = 0.5 * h_1**2  # 1 where H rounds to sqrt(2), and log1p(-1) raises
    h_n = math.sqrt(2.0 if half_h2 >= 1.0 else -2.0 * math.expm1(n * math.log1p(-half_h2)))

    report = DivergenceReport(
        tv=None,
        hellinger=h_n,
        kl=n * kl_1,
        renyi_alpha=alpha,
        renyi=n * renyi_1,
        chi2=chi2_n,
    )
    report.validate_chain()
    return report


@dataclass(frozen=True)
class ClassicalBounds:
    """Half-widths of the six classical QoI bounds.

    Each field B satisfies ``|E_q f - E_p f| <= B``.  They are reported
    per-bound without clamping against each other, so e.g. the Scheffe bound
    equals ``sup|f|`` even when p = q.
    """

    ckp: float
    pinsker: float
    pinsker_alpha: float
    scheffe: float
    chapman_robbins: float
    le_cam: float
    hellinger_improved: float

    def as_dict(self) -> dict:
        return asdict(self)


def classical_qoi_bounds(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    f: Observable,
    alpha: float = 0.5,
) -> ClassicalBounds:
    """The six classical bounds on ``|E_q(f) - E_p(f)|``.

    ``alpha`` is the order of the generalized Pinsker bound and must lie in
    (0, 1]; at alpha = 1 it coincides with the CKP bound.  The Hellinger
    bound uses the variance-based form with the optimal centering shift,
    ``sqrt(2) H sqrt(Var_p f + Var_q f + (E_q f - E_p f)^2 / 2)``, which is
    never worse than the second-moment form (see
    :func:`dashti_stuart_half_width`).  A zero chi^2 or H gives its bound 0,
    even where a variance leaves the float range.
    """
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(
            f"generalized Pinsker order must be in (0, 1], got {alpha!r}"
        )
    f._check_aligned(p)
    f._check_aligned(q)
    sup = f.sup_norm
    r = relative_entropy(q, p)
    d_alpha = r if alpha == 1.0 else renyi_divergence(q, p, alpha)
    chi2 = chi_squared(q, p)
    h = hellinger(q, p)
    gap = f.expectation(q) - f.expectation(p)
    var_p, var_q = f.variance(p), f.variance(q)

    return ClassicalBounds(
        ckp=sup * math.sqrt(2.0 * r),
        pinsker=sup * math.sqrt(2.0 * d_alpha / alpha),
        pinsker_alpha=alpha,
        scheffe=sup * (2.0 - math.exp(-r)),
        chapman_robbins=math.sqrt(var_p) * math.sqrt(chi2) if chi2 else 0.0,
        le_cam=2.0 * sup * h * math.sqrt(max(1.0 - 0.25 * h**2, 0.0)),
        hellinger_improved=(math.sqrt(2.0) * h * math.sqrt(var_p + var_q + 0.5 * gap * gap)
                            if h else 0.0),
    )


def dashti_stuart_half_width(
    p: DiscreteDistribution, q: DiscreteDistribution, f: Observable
) -> float:
    """Second-moment Hellinger bound ``sqrt(2) H sqrt(E_p f^2 + E_q f^2)``;
    0 where H is 0."""
    h = hellinger(q, p)
    return math.sqrt(2.0) * h * math.sqrt(f.second_moment(p) + f.second_moment(q)) if h else 0.0
