"""The optimized bounds against a 60-digit oracle.

The oracle solves ``h(c) = c K'(c) - K(c) = R`` with ``mpmath`` at 60 digits
and returns ``(K(c) + R) / c`` at the root, or at the optimizer's cap where h
stays below R.  Each float bound must lie in
``[oracle - 1e-14 |oracle|, oracle + 1e-10 max(1, |oracle|)]``: never
noticeably below the infimum (it is a value of the objective), and within
1e-10 above it.  The CGFs are exact for the float inputs: empirical ones
(some with R above ``-log p(argmax f)``, which puts the optimum at the cap),
mean-field and 1-D baselines of phase points, and a 3-state lambda-curve
from ``mpmath.eig``.
"""

import math

import mpmath
import numpy as np
import pytest

import infoscale.exact_models as exact_models
from infoscale import (
    DiscreteDistribution,
    EmpiricalCgf,
    Ising1DParams,
    MeanFieldParams,
    Observable,
    TransitionMatrix,
    relative_entropy,
    stationary_distribution,
    xi_bounds,
    xi_rate_bounds,
)

CAP = 1e12
DPS = 60


def _mp_bound(k, dk, r):
    """``inf_{0 < c <= CAP} (K(c) + R) / c`` for mpmath callables K and K'."""
    r = mpmath.mpf(r)
    h = lambda t: mpmath.exp(t) * dk(mpmath.exp(t)) - k(mpmath.exp(t)) - r
    t_cap = mpmath.log(CAP)
    if h(t_cap) <= 0:
        c = mpmath.mpf(CAP)
    else:
        lo = mpmath.mpf(0)
        while h(lo) > 0:
            lo -= 8
        hi = lo + 8
        while h(hi) < 0:
            lo, hi = hi, min(hi + 8, t_cap)
        for _ in range(80):  # bisection, then the secant method from 1e-23 wide
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h(mid) < 0 else (lo, mid)
        c = mpmath.exp(mpmath.findroot(h, (lo, hi), solver="secant"))
    return (k(c) + r) / c


def _assert_matches(bound, k, dk, r):
    """Both sides of a GoalBound against the oracle of K(c) and K(-c)."""
    with mpmath.workdps(DPS):
        upper = float(_mp_bound(k, dk, r))
        lower = -float(_mp_bound(lambda c: k(-c), lambda c: -dk(-c), r))
    assert upper - 1e-14 * abs(upper) <= bound.xi_plus <= upper + 1e-10 * max(1.0, abs(upper))
    assert lower - 1e-10 * max(1.0, abs(lower)) <= bound.xi_minus <= lower + 1e-14 * abs(lower)


def _empirical_problems(rng, count):
    for i in range(count):
        n = int(rng.integers(2, 41))
        p = DiscreteDistribution(rng.dirichlet(np.ones(n)))
        q = DiscreteDistribution(rng.dirichlet(np.ones(n)))
        f = Observable(rng.normal(size=n))
        r = relative_entropy(q, p)
        if i % 4 == 0:  # past -log p(argmax f) and -log p(argmin f): both at the cap
            r += -math.log(float(p.weights[[np.argmax(f.values), np.argmin(f.values)]].min()))
        yield p, f, r


def test_empirical_bounds_match_the_oracle():
    rng = np.random.default_rng(60)
    for p, f, r in _empirical_problems(rng, 40):
        with mpmath.workdps(DPS):
            w = [mpmath.mpf(float(x)) for x in p.weights]
            total = mpmath.fsum(w)
            w = [x / total for x in w]
            mean = mpmath.fsum(a * mpmath.mpf(float(b)) for a, b in zip(w, f.values))
            d = [mpmath.mpf(float(b)) - mean for b in f.values]

        def k(c):
            return mpmath.log(mpmath.fsum(a * mpmath.exp(c * b) for a, b in zip(w, d)))

        def dk(c):
            tilted = [a * mpmath.exp(c * b) for a, b in zip(w, d)]
            return mpmath.fsum(t * b for t, b in zip(tilted, d)) / mpmath.fsum(tilted)

        _assert_matches(xi_bounds(EmpiricalCgf(p, f), r), k, dk, r)


def _captured_bound(monkeypatch, model_q, model_p, value, sweep):
    """The GoalBound that ``phase_bound_point`` adds to the baseline, and the
    rate it used."""
    seen = []

    def capture(source, r, **kwargs):
        seen.append((exact_models_xi_bounds(source, r, **kwargs), r))
        return seen[-1][0]

    exact_models_xi_bounds = exact_models.xi_bounds
    monkeypatch.setattr(exact_models, "xi_bounds", capture)
    exact_models.phase_bound_point(model_q, model_p, value, sweep)
    return seen[0]


@pytest.mark.parametrize("beta", np.linspace(0.3, 1.5, 10))
def test_meanfield_baseline_matches_the_oracle(monkeypatch, beta):
    # A 1-D chain against a mean-field baseline with a field, over beta.
    model_q, model_p = Ising1DParams(beta=1.0, J=1.0, h=0.1), MeanFieldParams(beta=1.0, J=1.0, h=0.1)
    bound, r = _captured_bound(monkeypatch, model_q, model_p, float(beta), "beta")
    solution = exact_models.model_solution(MeanFieldParams(beta=float(beta), J=1.0, h=0.1))
    x, m = (mpmath.mpf(v) for v in (solution.field_coeff, solution.magnetization))
    _assert_matches(
        bound,
        lambda c: mpmath.log(mpmath.cosh(c + x) / mpmath.cosh(x)) - c * m,
        lambda c: mpmath.tanh(c + x) - m,
        r,
    )


@pytest.mark.parametrize("h", np.linspace(-0.9, 0.9, 10))
def test_ising1d_baseline_matches_the_oracle(monkeypatch, h):
    # Chains at two temperatures, over the field.
    model_q, model_p = Ising1DParams(beta=1.3, J=1.0), Ising1DParams(beta=0.9, J=1.0)
    bound, r = _captured_bound(monkeypatch, model_q, model_p, float(h), "h")
    bj, y = mpmath.mpf(0.9), mpmath.mpf(0.9 * float(h))
    m = mpmath.mpf(exact_models.model_solution(Ising1DParams(beta=0.9, J=1.0, h=float(h))).magnetization)

    def pressure(t):
        return mpmath.log(mpmath.exp(bj) * mpmath.cosh(t)
                          + mpmath.sqrt(mpmath.exp(2 * bj) * mpmath.sinh(t) ** 2 + mpmath.exp(-2 * bj)))

    def magnetization(t):
        return mpmath.exp(bj) * mpmath.sinh(t) / mpmath.sqrt(
            mpmath.exp(2 * bj) * mpmath.sinh(t) ** 2 + mpmath.exp(-2 * bj))

    _assert_matches(
        bound,
        lambda c: pressure(y + c) - pressure(y) - c * m,
        lambda c: magnetization(y + c) - m,
        r,
    )


def test_lambda_curve_matches_the_oracle():
    p = TransitionMatrix([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]])
    q = TransitionMatrix([[0.4, 0.4, 0.2], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]])
    g = Observable([-1.0, 0.0, 1.0])
    bound = xi_rate_bounds(q, p, g)
    mu = stationary_distribution(p).weights
    centered = g.values - float(mu @ g.values)

    def lam(c):
        m = mpmath.matrix(3)
        for i in range(3):
            for j in range(3):
                m[i, j] = mpmath.mpf(float(p.rows[i, j])) * mpmath.exp(c * mpmath.mpf(float(centered[j])))
        return mpmath.log(max(mpmath.re(e) for e in mpmath.eig(m, left=False, right=False)))

    class Rates:
        xi_plus, xi_minus = bound.xi_plus_rate, bound.xi_minus_rate

    _assert_matches(Rates, lam, lambda c: mpmath.diff(lam, c), bound.rer)
