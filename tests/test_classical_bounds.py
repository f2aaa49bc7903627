import math

import mpmath
import numpy as np
import pytest

from conftest import close_pair, random_triple
from infoscale import (
    DiscreteDistribution,
    Observable,
    ParameterError,
    classical_qoi_bounds,
    dashti_stuart_half_width,
    iid_scaled_divergences,
    relative_entropy,
)
from infoscale.goal_oriented import EmpiricalCgf, xi_bounds


def test_identical_measures_all_zero_except_scheffe():
    p = DiscreteDistribution([0.3, 0.7])
    f = Observable([2.0, -1.5])
    b = classical_qoi_bounds(p, p, f)
    assert b.ckp == 0.0
    assert b.pinsker == 0.0
    assert b.chapman_robbins == 0.0
    assert b.le_cam == 0.0
    assert b.hellinger_improved == 0.0
    # Scheffe degenerates to sup|f| at R = 0 and is reported unclamped.
    assert b.scheffe == pytest.approx(f.sup_norm)


def test_all_bounds_dominate_gap(rng):
    for _ in range(300):
        p, q, f = random_triple(rng)
        gap = abs(f.expectation(q) - f.expectation(p))
        b = classical_qoi_bounds(p, q, f, alpha=float(rng.uniform(0.2, 1.0)))
        for name, value in b.as_dict().items():
            if name == "pinsker_alpha":
                continue
            assert value + 1e-12 >= gap, f"{name} fails: {value} < {gap}"


def test_improved_hellinger_beats_second_moment_form(rng):
    # The optimal centering shift can only tighten the bound.
    for _ in range(300):
        p, q, f = random_triple(rng)
        improved = classical_qoi_bounds(p, q, f).hellinger_improved
        assert improved <= dashti_stuart_half_width(p, q, f) + 1e-12


def test_ckp_growth_for_sample_mean(rng):
    # For the sample mean over N iid sites, sup|f_N| is constant and the
    # product relative entropy is N R, so the CKP half-width is exactly
    # sqrt(N) times the single-site one while the true gap stays fixed.
    p, q, f = random_triple(rng, n=3)
    r1 = relative_entropy(q, p)
    base = f.sup_norm * math.sqrt(2.0 * r1)
    for n in (2, 5, 10, 100):
        rn = iid_scaled_divergences(p, q, n).kl
        bound_n = f.sup_norm * math.sqrt(2.0 * rn)
        assert bound_n / base == pytest.approx(math.sqrt(n), rel=1e-12)


def test_pinsker_order_validation():
    p = DiscreteDistribution([0.5, 0.5])
    f = Observable([0.0, 1.0])
    with pytest.raises(ParameterError):
        classical_qoi_bounds(p, p, f, alpha=1.5)
    with pytest.raises(ParameterError):
        classical_qoi_bounds(p, p, f, alpha=0.0)


def test_pinsker_at_order_one_is_ckp(rng):
    p, q, f = random_triple(rng)
    b = classical_qoi_bounds(p, q, f, alpha=1.0)
    assert b.pinsker == pytest.approx(b.ckp, rel=1e-12)


def test_close_measures_stay_sandwiched():
    # Q off P by relative differences of 1e-12 to 1e-2, on 3 to 8 atoms whose
    # float weights are the measures (conftest.close_pair), so the gap has one
    # exact value.  Every classical half-width covers it, and the
    # goal-oriented interval at R = R(Q || P) contains it, up to 1e-12 of the
    # gap: the divergences keep their digits however close Q is to P.
    rng = np.random.default_rng(26)
    misses = []
    for draw in range(1500):
        n = int(rng.integers(3, 9))
        p, q = close_pair(rng, n, 10.0 ** rng.uniform(-12.0, -2.0))
        f = Observable(rng.uniform(-1.0, 1.0, n))
        with mpmath.workdps(40):
            gap = float(mpmath.fsum(
                (mpmath.mpf(float(a)) - mpmath.mpf(float(b))) * mpmath.mpf(float(v))
                for a, b, v in zip(q.weights, p.weights, f.values)
            ))
        slack = 1e-12 * abs(gap)
        bounds = classical_qoi_bounds(p, q, f, alpha=0.5).as_dict()
        misses += [(draw, name) for name, value in bounds.items()
                   if name != "pinsker_alpha" and value < abs(gap) - slack]
        xi = xi_bounds(EmpiricalCgf(p, f), relative_entropy(q, p))
        if not xi.xi_minus - slack <= gap <= xi.xi_plus + slack:
            misses.append((draw, "xi"))
    assert misses == []


def test_huge_value_on_a_zero_weight_atom_adds_nothing():
    # The square of 1e200 overflows; as 0 * inf it made the variance, and both
    # variance-based bounds, NaN.  Only the atoms that p weighs count.
    p, q = DiscreteDistribution([0.5, 0.5, 0.0]), DiscreteDistribution([0.4, 0.6, 0.0])
    f = Observable([1.0, 2.0, 1e200])
    assert f.variance(p) == 0.25 and f.second_moment(p) == 2.5
    bounds = classical_qoi_bounds(p, q, f)
    assert all(math.isfinite(v) for v in bounds.as_dict().values())
    assert bounds.chapman_robbins == pytest.approx(0.5 * math.sqrt(0.04), rel=1e-14)
    assert math.isfinite(dashti_stuart_half_width(p, q, f))


def test_spread_past_the_float_range_is_inf():
    # On the support the square really overflows: inf, with no warning (a
    # RuntimeWarning fails this suite) and no OverflowError from the gap.
    p, q = DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([0.4, 0.6])
    f = Observable([1e200, -1e200])
    assert f.variance(p) == math.inf and f.second_moment(q) == math.inf
    bounds = classical_qoi_bounds(p, q, f)
    assert bounds.chapman_robbins == bounds.hellinger_improved == math.inf


def test_identical_measures_with_a_spread_past_the_float_range_give_zero():
    # Var f is inf on the support, and H = chi^2 = 0: sqrt(inf) * 0 made the
    # Chapman-Robbins and both Hellinger bounds NaN.
    p = DiscreteDistribution([0.5, 0.5, 0.0])
    f = Observable([1e200, -1e200, 0.0])
    bounds = classical_qoi_bounds(p, p, f)
    assert bounds.chapman_robbins == bounds.hellinger_improved == 0.0
    assert dashti_stuart_half_width(p, p, f) == 0.0
