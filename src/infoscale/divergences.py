"""Finite-support distributions, information divergences, and classical QoI bounds.

Conventions
-----------
All divergences take the approximating / perturbed measure ``q`` first and the
reference measure ``p`` second, i.e. ``relative_entropy(q, p)`` is the KL
divergence of ``q`` from ``p`` (``sum q log(q/p)``).  Entropic sums use the
convention ``0 * log(0/p) = 0``.  Absolute-continuity violations raise
:class:`~infoscale.errors.AbsoluteContinuityError`.

The Markov and Gibbs layers share this module's array kernels: the one
max-shifted log-sum-exp and the log-domain transfer product on its shift
rule (Markov paths, 1-D Gibbs chains), the exponential tail ``e^y - 1 - y``,
the Bregman KL terms, the size and mutual absolute-continuity checks, and
the Renyi order rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
        mean = self.expectation(dist)
        return float(np.dot(dist.weights, (self.values - mean) ** 2))

    def second_moment(self, dist: DiscreteDistribution) -> float:
        self._check_aligned(dist)
        return float(np.dot(dist.weights, self.values**2))

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


def _near_kl(alpha: float, kl_name: str) -> bool:
    """Check a Renyi order: positive and not 1 (``kl_name`` is the KL function
    to call instead).  True within ``_RENYI_KL_WINDOW`` of 1, where the order
    is evaluated by its KL limit."""
    if not (alpha > 0):
        raise ParameterError(f"Renyi order must be positive, got {alpha!r}")
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
    if value < -1e-12:
        raise NumericsError(f"{what} evaluated to {value!r} < 0")
    return max(value, 0.0)


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


def _log_transfer(log_start: np.ndarray, exponents: np.ndarray, n_steps: int) -> float:
    """``log sum exp(log_start[x_0] + sum_t exponents[x_t, x_(t+1)])`` over the
    paths ``x_0 .. x_n_steps`` (a ``-inf`` entry is a zero weight).

    Each step is one :func:`_logsumexp_columns` of ``vec[:, None] +
    exponents``, so nothing under- or overflows however far the exponents
    spread (a tiny entry can close the cycle that carries the sum); an all
    ``-inf`` column stays ``-inf``.  O(n_steps S^2) work.
    """
    vec = log_start
    with np.errstate(all="ignore"):
        for _ in range(n_steps):
            vec = _logsumexp_columns(np.add(vec[:, None], exponents))
    return _logsumexp(vec)


def _logsumexp_columns(terms: np.ndarray) -> np.ndarray:
    """``log sum exp`` down axis 0 of ``terms``, each column shifted by its
    largest exponent as in :func:`_logsumexp`.  Run it under
    ``np.errstate(all="ignore")``: an all ``-inf`` column warns (and stays
    ``-inf``)."""
    top = terms.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    return shift + np.log(np.exp(terms - shift).sum(axis=0))


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance, ``0.5 * sum |q - p|``; symmetric, in [0, 1]."""
    _check_same_support(p.weights, q.weights, "total variation")
    return 0.5 * float(np.sum(np.abs(q.weights - p.weights)))


def relative_entropy(q: DiscreteDistribution, p: DiscreteDistribution) -> float:
    """Kullback-Leibler divergence ``R(q || p) = sum q log(q / p)`` in nats,
    summed as the Bregman terms of :func:`_kl_terms`, each >= 0.

    Requires q absolutely continuous w.r.t. p.
    """
    _check_same_support(q.weights, p.weights, "relative entropy")
    if np.any((q.weights > 0) & (p.weights == 0)):
        raise AbsoluteContinuityError(
            "relative entropy undefined: q is not absolutely continuous w.r.t. p"
        )
    return float(np.sum(_kl_terms(q.weights, p.weights)))


def chi_squared(q: DiscreteDistribution, p: DiscreteDistribution) -> float:
    """Chi-squared divergence ``sum (q - p)^2 / p``, each term >= 0."""
    _check_same_support(q.weights, p.weights, "chi-squared divergence")
    if np.any((q.weights > 0) & (p.weights == 0)):
        raise AbsoluteContinuityError(
            "chi-squared divergence undefined: q is not absolutely continuous w.r.t. p"
        )
    mask = p.weights > 0
    p_mask = p.weights[mask]
    return float(np.sum((q.weights[mask] - p_mask) ** 2 / p_mask))


def hellinger(q: DiscreteDistribution, p: DiscreteDistribution) -> float:
    """Hellinger distance ``sqrt(sum (sqrt(q) - sqrt(p))^2)``, in [0, sqrt(2)],
    each difference taken as ``(q - p) / (sqrt q + sqrt p)``."""
    _check_same_support(q.weights, p.weights, "Hellinger distance")
    mask = (q.weights > 0) | (p.weights > 0)
    q_mask, p_mask = q.weights[mask], p.weights[mask]
    return float(np.sqrt(np.sum(((q_mask - p_mask) / (np.sqrt(q_mask) + np.sqrt(p_mask))) ** 2)))


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
            return math.log1p(gap) / (alpha - 1.0)
    value = _logsumexp(alpha * np.log(q_mask) + (1.0 - alpha) * np.log(p_mask)) / (alpha - 1.0)
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
        return {
            "tv": self.tv,
            "hellinger": self.hellinger,
            "kl": self.kl,
            "renyi_alpha": self.renyi_alpha,
            "renyi": self.renyi,
            "chi2": self.chi2,
        }


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
    The chi-squared form is evaluated in the log domain, so very large N
    returns ``+inf`` rather than overflowing.  Total variation has no product
    closed form and is reported as None.
    """
    n = _positive_int(n, "N")
    kl_1 = relative_entropy(q, p)
    renyi_1 = renyi_divergence(q, p, alpha)
    chi2_1 = chi_squared(q, p)
    h_1 = hellinger(q, p)

    log_chi2_base = math.log1p(chi2_1)
    chi2_n = math.inf if n * log_chi2_base > 700.0 else math.expm1(n * log_chi2_base)
    h2_half = 1.0 - 0.5 * h_1**2  # in [0, 1]
    h_n = math.sqrt(max(2.0 - 2.0 * h2_half**n, 0.0))

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
        return {
            "ckp": self.ckp,
            "pinsker": self.pinsker,
            "pinsker_alpha": self.pinsker_alpha,
            "scheffe": self.scheffe,
            "chapman_robbins": self.chapman_robbins,
            "le_cam": self.le_cam,
            "hellinger_improved": self.hellinger_improved,
        }


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
    :func:`dashti_stuart_half_width`).
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

    return ClassicalBounds(
        ckp=sup * math.sqrt(2.0 * r),
        pinsker=sup * math.sqrt(2.0 * d_alpha / alpha),
        pinsker_alpha=alpha,
        scheffe=sup * (2.0 - math.exp(-r)),
        chapman_robbins=math.sqrt(f.variance(p)) * math.sqrt(chi2),
        le_cam=2.0 * sup * h * math.sqrt(max(1.0 - 0.25 * h**2, 0.0)),
        hellinger_improved=math.sqrt(2.0)
        * h
        * math.sqrt(f.variance(p) + f.variance(q) + 0.5 * gap**2),
    )


def dashti_stuart_half_width(
    p: DiscreteDistribution, q: DiscreteDistribution, f: Observable
) -> float:
    """Second-moment Hellinger bound ``sqrt(2) H sqrt(E_p f^2 + E_q f^2)``."""
    return (
        math.sqrt(2.0)
        * hellinger(q, p)
        * math.sqrt(f.second_moment(p) + f.second_moment(q))
    )
