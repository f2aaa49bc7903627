"""The scalar optimizer's (value, slope) contract and its stopping rules: the
exit at the cap, the relative x-tolerance, a NaN slope and the evaluation
ceilings.  Evaluations are counted by wrapping the objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoscale.goal_oriented as goal_oriented
from infoscale import (
    AnalyticCgf,
    DiscreteDistribution,
    EmpiricalCgf,
    Observable,
    relative_entropy,
    xi_bounds,
)
from infoscale.optimize import minimize_positive_scalar

CAP = 1e12  # the optimizer's cap for sources with an unbounded CGF domain


@pytest.fixture
def counts(monkeypatch):
    """Evaluations of each minimization ``xi_bounds`` runs, in call order."""
    made = []

    def counted(objective, **kwargs):
        made.append(0)

        def wrapped(c):
            made[-1] += 1
            return objective(c)

        return minimize_positive_scalar(wrapped, **kwargs)

    monkeypatch.setattr(goal_oriented, "minimize_positive_scalar", counted)
    return made


def test_at_cap_bound_exits_early(counts):
    p = DiscreteDistribution([0.5, 0.3, 0.2])
    f = Observable([0.0, 1.0, 2.0])
    r = 2.0  # above -log p(argmax f) = 1.61 and -log p(argmin f) = 0.69
    b = xi_bounds(EmpiricalCgf(p, f), r)
    assert len(counts) == 2 and max(counts) <= 8
    mean = f.expectation(p)
    assert abs(b.xi_plus - (2.0 - mean)) <= r / CAP + 1e-12
    assert abs(b.xi_minus - (0.0 - mean)) <= r / CAP + 1e-12
    assert b.c_star_plus == b.c_star_minus == CAP


def test_constant_observable_with_variance_exits_early(counts):
    src = EmpiricalCgf(DiscreteDistribution([0.4, 0.6]), Observable([2.0, 2.0]))
    r = 1.5
    b = xi_bounds(src, r, variance=0.0)
    assert len(counts) == 2 and max(counts) <= 8
    assert b.xi_plus == pytest.approx(r / CAP, rel=1e-12)
    assert b.xi_minus == pytest.approx(-r / CAP, rel=1e-12)


@pytest.mark.parametrize("slope", [1.0, 1e6])
def test_minimum_next_to_the_cap_is_refined(slope):
    # The expansion's last step lands on the cap and rises there: the
    # minimum at 0.75 * cap is interior and must be refined, not returned
    # as the point before the cap (2^31 ~ 0.002 * cap).  The slope jumps
    # from -slope / target to +slope / target at the minimum, so only the
    # x-tolerance stops the search.
    made = [0]
    target = 0.75 * CAP

    def objective(c):
        made[0] += 1
        return slope * abs(c / target - 1.0), slope * math.copysign(1.0, c - target) / target

    c_best, f_best = minimize_positive_scalar(objective, hi_cap=CAP)
    assert c_best == pytest.approx(target, rel=1e-9)
    assert f_best <= slope * 1e-9
    # 7 evaluations reach the cap; a jump in the slope leaves the root solve
    # little better than bisection, about 50 steps down to 1e-10 relative.
    assert made[0] <= 100


@pytest.mark.parametrize("scale", [1.0, 15.0])
def test_minimum_before_a_finite_domain_bound_is_refined(scale, counts):
    # K(c) = D^2 k(c / D) with k(u) = 2 - 2 sqrt(1 - u) - u below c = D and
    # infinite from there, and R = D^2: (K(c) + R) / c = D (k(u) + 1) / u has
    # its minimum, D times the golden ratio, at u = 0.854, and is 2 D at the
    # domain bound.  The quadratic start sqrt(2 R / Var) = 2 D lies past the
    # bound, so the search brackets back toward it, where stopping would give
    # a bound 24% too loose.
    def k(c):
        u = c / scale
        if u >= 1.0:
            return math.inf, math.nan
        return scale**2 * (2.0 - 2.0 * math.sqrt(1.0 - u) - u), scale * (1.0 / math.sqrt(1.0 - u) - 1.0)

    b = xi_bounds(AnalyticCgf(fn=k), scale**2)
    assert b.xi_plus == pytest.approx(scale * (1.0 + math.sqrt(5.0)) / 2.0, rel=1e-9)
    assert b.c_star_plus == pytest.approx(scale * 0.8541019662496845, rel=1e-4)
    assert counts[0] <= 16


def _random_problem(rng):
    """An EmpiricalCgf on 2 to 40 atoms and the relative entropy of a random q."""
    n = int(rng.integers(2, 41))
    p = DiscreteDistribution(rng.dirichlet(np.ones(n)))
    q = DiscreteDistribution(rng.dirichlet(np.ones(n)))
    return EmpiricalCgf(p, Observable(rng.normal(size=n))), relative_entropy(q, p)


def test_evaluation_ceilings(counts):
    # At most 16 evaluations per interior minimization and 8 per one that
    # ends at the cap, over 2 x 100 minimizations.
    rng = np.random.default_rng(16)
    at_cap = []
    for _ in range(100):
        source, r = _random_problem(rng)
        b = xi_bounds(source, r)
        at_cap += [b.c_star_plus == CAP, b.c_star_minus == CAP]
    interior = [n for n, cap in zip(counts, at_cap) if not cap]
    capped = [n for n, cap in zip(counts, at_cap) if cap]
    assert len(interior) > 150 and capped
    assert max(interior) <= 16 and float(np.median(interior)) <= 9
    assert max(capped) <= 8


def _objective(source, r, nan_from):
    """``c -> ((K(c) + R) / c, slope)`` with the slope NaN from ``nan_from`` on,
    as where a tilted matrix has underflowed; and the evaluations made."""
    made = []

    def objective(c):
        made.append(c)
        k, dk = source.evaluate(c)
        value = (k + r) / c
        return value, math.nan if c >= nan_from else (dk - value) / c

    return objective, made


@pytest.mark.parametrize("fraction", [0.5, 0.9, 1.1, 2.0])
def test_nan_slope_neither_stops_nor_loosens_the_search(fraction):
    rng = np.random.default_rng(7)
    for _ in range(20):
        source, r = _random_problem(rng)
        clean, _ = _objective(source, r, math.inf)
        c_star, best = minimize_positive_scalar(clean, c_init=1.0, hi_cap=CAP)
        objective, made = _objective(source, r, fraction * c_star)
        c_nan, with_nan = minimize_positive_scalar(objective, c_init=1.0, hi_cap=CAP)
        assert with_nan <= best * (1.0 + 1e-12)
        assert c_nan == pytest.approx(c_star, rel=1e-4)
        # A NaN slope costs a second evaluation, and next to the optimum
        # the backward difference is lost to rounding, so the search bisects.
        assert len(made) <= 80


def test_nan_slope_at_large_c_still_reaches_the_cap():
    # R above -log p(argmax f): the infimum is the c -> inf limit, and the
    # slope is NaN from c = 100 on.
    p = DiscreteDistribution([0.5, 0.3, 0.2])
    source, r = EmpiricalCgf(p, Observable([0.0, 1.0, 2.0])), 2.0
    objective, made = _objective(source, r, 100.0)
    c_best, best = minimize_positive_scalar(objective, c_init=1.0, hi_cap=CAP)
    assert c_best == CAP
    assert best == pytest.approx(2.0 - 0.7, abs=r / CAP + 1e-12)
    assert len(made) <= 16


def _grid_bounds(p, f, r):
    """Minima of (K(+-c) + R)/c over 10^4 log-spaced c in [1e-6, 1e3]."""
    grid = np.logspace(-6.0, 3.0, 10_000)
    w, centered = p.weights, f.values - f.expectation(p)
    out = []
    for sign in (1.0, -1.0):
        exponents = sign * grid[:, None] * centered[None, :]
        shift = exponents.max(axis=1)
        k = shift + np.log(np.exp(exponents - shift[:, None]) @ w)
        out.append(float(np.min((k + r) / grid)))
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    data=st.data(),
    at_cap=st.booleans(),
    extra=st.floats(0.01, 3.0),
)
def test_empirical_bounds_keep_the_sandwich(n, data, at_cap, extra):
    weights = st.lists(st.floats(0.02, 1.0), min_size=n, max_size=n)
    p_w, q_w = np.array(data.draw(weights)), np.array(data.draw(weights))
    p, q = DiscreteDistribution(p_w / p_w.sum()), DiscreteDistribution(q_w / q_w.sum())
    f = Observable(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    r = relative_entropy(q, p)
    if at_cap:  # above -log p(x) at every x, so both optima sit at c -> inf
        r = max(r, -math.log(float(p.weights.min())) + extra)
    b = xi_bounds(EmpiricalCgf(p, f), r)
    gap = f.expectation(q) - f.expectation(p)
    assert b.xi_minus - 1e-12 <= gap <= b.xi_plus + 1e-12
    upper, lower = _grid_bounds(p, f, r)
    assert b.xi_plus <= upper + 1e-9
    assert -b.xi_minus <= lower + 1e-9
    if at_cap:
        mean = f.expectation(p)
        hi, lo = float(f.values.max()) - mean, mean - float(f.values.min())
        assert hi - 1e-12 <= b.xi_plus <= hi + r / CAP + 1e-12
        assert lo - 1e-12 <= -b.xi_minus <= lo + r / CAP + 1e-12
