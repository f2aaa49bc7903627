import math

import numpy as np
import pytest

from conftest import (
    assert_cgf_matches_oracle,
    product_measure,
    random_distribution,
    random_triple,
)
from infoscale import (
    AnalyticCgf,
    CgfDomainError,
    DiscreteDistribution,
    EmpiricalCgf,
    ExponentialFamily,
    Observable,
    ParameterError,
    UnboundedObservableError,
    expfam_relative_entropy,
    expfam_xi_bounds,
    linearized_half_width,
    relative_entropy,
    xi_bounds,
    xi_tensorized,
)


def additive_product_problem(p, q, g, n):
    """Explicit product measures and the extensive observable sum_k g(x_k)."""
    pn = DiscreteDistribution(product_measure(p.weights, n))
    qn = DiscreteDistribution(product_measure(q.weights, n))
    total = np.zeros(1)
    for _ in range(n):
        total = (total[:, None] + g.values[None, :]).ravel()
    return pn, qn, Observable(total)


class TestCenteredCgf:
    def test_zero_at_origin(self, rng):
        p, _, f = random_triple(rng)
        assert EmpiricalCgf(p, f).evaluate(0.0) == (0.0, 0.0)

    def test_constant_observable_is_zero(self):
        src = EmpiricalCgf(DiscreteDistribution([0.4, 0.6]), Observable([3.0, 3.0]))
        for c in (-5.0, 0.0, 2.0, 50.0):
            assert src.evaluate(c) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_bernoulli_value(self):
        src = EmpiricalCgf(DiscreteDistribution([0.5, 0.5]), Observable([0.0, 1.0]))
        assert src.evaluate(1.0) == pytest.approx(
            (math.log(math.cosh(0.5)), 0.5 * math.tanh(0.5)), abs=1e-12
        )

    def test_overflow_safe_at_large_c(self, rng):
        p, _, f = random_triple(rng)
        value, slope = EmpiricalCgf(p, f).evaluate(1e8)
        assert math.isfinite(value) and math.isfinite(slope)

    def test_overflowing_spread_raises(self):
        # A spread past 1.34e154 has a variance beyond the float range.
        p = DiscreteDistribution([0.5, 0.5])
        EmpiricalCgf(p, Observable([1e154, -1e154]))
        with pytest.raises(UnboundedObservableError):
            EmpiricalCgf(p, Observable([1e155, -1e155]))

    def test_equal_values_merge_into_one_atom(self):
        # A goal-bound input whose observable repeats values: 5 atoms, 3
        # distinct values; K matches the oracle over all 5.
        p = DiscreteDistribution([0.1, 0.2, 0.3, 0.15, 0.25])
        values = [1.0, -0.5, 1.0, 2.0, -0.5]
        src = EmpiricalCgf(p, Observable(values))
        assert src._centered.size == 3
        assert_cgf_matches_oracle(src, p.weights, values)

    def test_convex_in_c(self, rng):
        p, _, f = random_triple(rng)
        src = EmpiricalCgf(p, f)
        for _ in range(20):
            a, b = sorted(rng.uniform(-5.0, 5.0, 2))
            mid = src.evaluate(0.5 * (a + b))[0]
            assert mid <= 0.5 * (src.evaluate(a)[0] + src.evaluate(b)[0]) + 1e-10
            assert src.evaluate(a)[1] <= src.evaluate(b)[1] + 1e-12


class TestAnalyticCgf:
    def test_contract_rejects_nonzero_at_origin(self):
        with pytest.raises(ParameterError):
            AnalyticCgf(fn=lambda c: (c + 1.0, 1.0))

    def test_contract_rejects_nonzero_slope(self):
        with pytest.raises(ParameterError):
            AnalyticCgf(fn=lambda c: (c, 1.0))

    def test_contract_rejects_a_slope_that_does_not_match_the_values(self):
        AnalyticCgf(fn=lambda c: (c * c / 2.0, c))
        with pytest.raises(ParameterError, match="central difference"):
            AnalyticCgf(fn=lambda c: (c * c / 2.0, -c))

    def test_contract_rejects_concavity(self):
        with pytest.raises(ParameterError):
            AnalyticCgf(fn=lambda c: (-(c**2), -2.0 * c))

    def test_an_edge_bounds_only_its_own_side(self):
        # K = c^2 / 2 below c = 1 and infinite from there.  At R = 2 the
        # free optimum c = sqrt(2 R) = 2 lies past the edge: the upper side
        # stops at it, (1/2 + 2) / 1, and the lower side, which has no edge,
        # keeps -sqrt(2 R) = -2.
        src = AnalyticCgf(fn=lambda c: (c * c / 2.0, c) if c < 1.0 else (math.inf, math.nan))
        b = xi_bounds(src, 2.0)
        assert 2.5 <= b.xi_plus <= 2.5 * (1.0 + 1e-8)
        assert b.c_star_plus < 1.0
        assert b.xi_minus == pytest.approx(-2.0, rel=1e-9)
        assert b.c_star_minus == pytest.approx(2.0, rel=1e-6)

    def test_domain_limited_source_passes_the_spot_check(self):
        # K of F(theta) = -log(1 - theta^2) from theta = 0.5, infinite past
        # the edge c = 0.5 (and c = -1.5): the default contract check probes
        # inside both edges, and the far side reaches the exact gap of
        # theta' = -0.5, an exponential tilt of theta.
        src = AnalyticCgf(fn=_laplace_cgf(0.5))
        r = expfam_relative_entropy(_laplace_family(), [-0.5], [0.5])
        b = xi_bounds(src, r)
        assert b.xi_minus == pytest.approx(-8.0 / 3.0, rel=1e-9)
        assert b.xi_plus > 0.0

    def test_everywhere_infinite_cgf_raises(self):
        src = AnalyticCgf(
            fn=lambda c: (math.inf, math.inf) if c != 0.0 else (0.0, 0.0), check_contract=False
        )
        with pytest.raises(UnboundedObservableError):
            xi_bounds(src, 0.5, variance=1.0)


class TestXiBounds:
    def test_zero_entropy_budget(self, rng):
        p, _, f = random_triple(rng)
        b = xi_bounds(EmpiricalCgf(p, f), 0.0)
        assert b.xi_plus == 0.0 and b.xi_minus == 0.0

    def test_constant_observable(self):
        src = EmpiricalCgf(DiscreteDistribution([0.4, 0.6]), Observable([2.0, 2.0]))
        b = xi_bounds(src, 1.5)
        assert b.xi_plus == 0.0 and b.xi_minus == 0.0

    def test_caller_variance_only_sets_linearized_width(self):
        src = AnalyticCgf(fn=lambda c: (c * c / 2.0, c))
        b = xi_bounds(src, 0.5, variance=0.0)
        assert b.xi_plus == pytest.approx(1.0, rel=1e-6)
        assert b.xi_minus == pytest.approx(-1.0, rel=1e-6)
        assert b.linearized_half_width == 0.0

    def test_sandwich_on_random_triples(self, rng):
        for _ in range(300):
            p, q, f = random_triple(rng)
            b = xi_bounds(EmpiricalCgf(p, f), relative_entropy(q, p))
            gap = f.expectation(q) - f.expectation(p)
            assert b.xi_minus - 1e-9 <= gap <= b.xi_plus + 1e-9
            assert b.xi_minus <= 1e-15 <= b.xi_plus + 1e-15

    def test_tiny_budget_gives_a_tiny_interval(self, rng):
        # The optimum of a 1e-120 budget is near c = 0, where K(c) = O(c^2)
        # must not round to negative values of size eps / c.
        for _ in range(50):
            p, _, f = random_triple(rng)
            shifted = Observable(5.0 * f.values + 7.0)
            b = xi_bounds(EmpiricalCgf(p, shifted), 1e-120)
            assert -1e-12 <= b.xi_plus <= 1e-12
            assert -1e-12 <= b.xi_minus <= 1e-12
            # The interval must still contain the zero gap of q = p.
            assert b.xi_minus <= 0.0 <= b.xi_plus

    @pytest.mark.parametrize("budget", [1e-20, 1e-40, 1e-100, 1e-200, 1e-299])
    def test_tiny_budget_sandwiches_the_zero_gap(self, budget):
        # The mean of (1, -0.5) under (0.3, 0.7) rounds with a residual of
        # 1.4e-17; uncorrected, K(c) has that slope at 0 and xi_minus lands
        # above the zero gap of q = p.
        p = DiscreteDistribution([0.3, 0.7])
        b = xi_bounds(EmpiricalCgf(p, Observable([1.0, -0.5])), budget)
        assert b.xi_minus <= 0.0 <= b.xi_plus

    @pytest.mark.parametrize("budget", [1e-40, 1e-20, 1e-100, 1e-200, 1e-299, 1e-310])
    def test_tiny_budget_reaches_the_quadratic_bound(self, budget):
        # For K(c) = c^2 / 2 the bound is sqrt(2 R) exactly: the root solve
        # starts at c* = sqrt(2 R) itself, far below any absolute tolerance.
        b = xi_bounds(AnalyticCgf(fn=lambda c: (c * c / 2.0, c)), budget)
        assert b.xi_plus == pytest.approx(math.sqrt(2.0 * budget), rel=1e-9, abs=0.0)
        assert b.xi_minus == pytest.approx(-math.sqrt(2.0 * budget), rel=1e-9, abs=0.0)
        # An empirical CGF at the same budget keeps the zero gap of q = p.
        p = DiscreteDistribution([0.3, 0.7])
        b = xi_bounds(EmpiricalCgf(p, Observable([1.0, -0.5])), budget)
        assert b.xi_minus <= 0.0 <= b.xi_plus

    def test_subnormal_budget_gives_the_quadratic_bound(self):
        # For K(c) = a c^2 the bound is 2 sqrt(a R) exactly, also at a
        # subnormal R: 1e-310, where c* = 1.4e-155, and the smallest float,
        # where 2 R / Var = R / 4 underflows to 0.
        for a, budget in ((0.5, 1e-310), (4.0, 5e-324)):
            b = xi_bounds(AnalyticCgf(fn=lambda c: (a * c * c, 2.0 * a * c)), budget)
            assert b.xi_plus == pytest.approx(math.sqrt(4.0 * a * budget), rel=1e-9, abs=0.0)
            assert b.xi_minus == -b.xi_plus

    def test_skewed_weights_keep_the_zero_gap(self):
        # Weights from e^-700 to 1: K is as small as Var c^2 / 2 ~ 1e-40 at
        # c ~ 1, far below the rounding of a log-sum-exp of exponents ~ 1.
        rng = np.random.default_rng(700)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            p = DiscreteDistribution(np.exp(rng.uniform(-700.0, 0.0, n)), renormalize=True)
            b = xi_bounds(EmpiricalCgf(p, Observable(rng.normal(size=n))), 10.0 ** rng.uniform(-320, 0))
            assert b.xi_minus <= 0.0 <= b.xi_plus

    def test_overflowing_cgf_counts_as_non_finite(self):
        # log cosh c overflows past |c| = 710; for R > log 2 the infimum is
        # the c -> inf limit 1, and the search stops short of it, not raising.
        src = AnalyticCgf(fn=lambda c: (math.log(math.cosh(c)), math.tanh(c)))
        b = xi_bounds(src, 1.0)
        assert 1.0 <= b.xi_plus <= 1.0 + 1e-3
        assert -1.0 - 1e-3 <= b.xi_minus <= -1.0

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, budget):
        src = AnalyticCgf(fn=lambda c: (c * c / 2.0, c))
        with pytest.raises(ParameterError, match=repr(budget)):
            xi_bounds(src, budget)

    def test_optimizer_matches_log_grid(self, rng):
        # The returned optimum must not exceed a dense log-grid minimum.
        for _ in range(5):
            p, q, f = random_triple(rng, n=4)
            src = EmpiricalCgf(p, f)
            r = relative_entropy(q, p)
            b = xi_bounds(src, r)
            grid = np.logspace(-6.0, 3.0, 10_000)
            grid_min = min((src.evaluate(c)[0] + r) / c for c in grid)
            assert b.xi_plus <= grid_min + 1e-9

    def test_monotone_in_entropy_budget(self, rng):
        p, _, f = random_triple(rng)
        src = EmpiricalCgf(p, f)
        budgets = [0.01, 0.1, 0.5, 2.0, 10.0]
        values = [xi_bounds(src, r).xi_plus for r in budgets]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_iff_degenerate(self, rng):
        # Xi+ > 0 whenever R > 0 and Var > 0; zero only in the degenerate cases.
        for _ in range(50):
            p, q, f = random_triple(rng)
            r = relative_entropy(q, p)
            b = xi_bounds(EmpiricalCgf(p, f), r)
            if r > 1e-10 and f.variance(p) > 1e-10:
                assert b.xi_plus > 1e-10
                assert b.xi_minus < -1e-10
        p, _, f = random_triple(rng)
        assert xi_bounds(EmpiricalCgf(p, f), 0.0).xi_plus == 0.0

    def test_negative_budget_rejected(self, rng):
        p, _, f = random_triple(rng)
        with pytest.raises(ParameterError):
            xi_bounds(EmpiricalCgf(p, f), -0.1)


class TestLinearized:
    def test_trivial_values(self):
        assert linearized_half_width(3.0, 0.0) == 0.0
        assert linearized_half_width(1.0, 0.5) == pytest.approx(1.0)

    def test_remainder_bounded_for_shrinking_perturbations(self, rng):
        # Along Q_eps = (1 - eps) P + eps U the entropy is O(eps^2); the gap
        # between xi_plus and its linearization must stay O(R).
        p, _, f = random_triple(rng, n=4)
        u = np.full(4, 0.25)
        src = EmpiricalCgf(p, f)
        ratios = []
        for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
            q = DiscreteDistribution((1 - eps) * p.weights + eps * u)
            r = relative_entropy(q, p)
            b = xi_bounds(src, r)
            ratios.append(abs(b.xi_plus - linearized_half_width(f.variance(p), r)) / r)
        assert max(ratios) < 10.0


class TestTensorization:
    def test_n_one_equals_xi_bounds(self, rng):
        p, q, f = random_triple(rng)
        direct = xi_bounds(EmpiricalCgf(p, f), relative_entropy(q, p))
        tensor = xi_tensorized(p, q, f, 1)
        assert tensor.xi_plus == pytest.approx(direct.xi_plus, abs=1e-12)
        assert tensor.xi_minus == pytest.approx(direct.xi_minus, abs=1e-12)

    def test_brute_force_product_equality(self, rng):
        for _ in range(10):
            n_states = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            p = random_distribution(rng, n_states)
            q = random_distribution(rng, n_states)
            f = Observable(rng.uniform(-1.0, 1.0, n_states))
            pn, qn, total = additive_product_problem(p, q, f, n)
            brute = xi_bounds(EmpiricalCgf(pn, total), relative_entropy(qn, pn))
            per_site = xi_tensorized(p, q, f, n)
            assert brute.xi_plus / n == pytest.approx(per_site.xi_plus, abs=1e-8)
            assert brute.xi_minus / n == pytest.approx(per_site.xi_minus, abs=1e-8)

    def test_per_site_bound_independent_of_n(self, rng):
        p, q, f = random_triple(rng)
        reference = xi_tensorized(p, q, f, 1)
        for n in (2, 5, 10):
            b = xi_tensorized(p, q, f, n)
            assert b.xi_plus == pytest.approx(reference.xi_plus, abs=1e-8)
            assert b.xi_minus == pytest.approx(reference.xi_minus, abs=1e-8)


def bernoulli_family():
    return ExponentialFamily(
        log_normalizer=lambda th: _softplus(th[0]),
        grad_log_normalizer=lambda th: np.array([1.0 / (1.0 + math.exp(-th[0]))]),
        dim=1,
    )


def _softplus(x):
    return math.log1p(math.exp(x)) if x < 30 else x + math.log1p(math.exp(-x))


def _laplace_family():
    return ExponentialFamily(
        log_normalizer=lambda th: -math.log(1.0 - th[0] ** 2),
        grad_log_normalizer=lambda th: np.array([2.0 * th[0] / (1.0 - th[0] ** 2)]),
        dim=1,
        param_domain=lambda th: abs(th[0]) < 1.0,
    )


def _laplace_mean(theta):
    """F'(theta), with 1 - theta^2 as (1 - theta)(1 + theta) so that it keeps
    its digits next to the edges."""
    return 2.0 * theta / ((1.0 - theta) * (1.0 + theta))


def _laplace_cgf(theta):
    """K of the Laplace family from ``theta``, infinite past either edge."""
    def cgf(c):
        if not abs(theta + c) < 1.0:
            return math.inf, math.nan
        k = math.log(1.0 - theta**2) - math.log(1.0 - (theta + c) ** 2) - c * _laplace_mean(theta)
        return k, _laplace_mean(theta + c) - _laplace_mean(theta)

    return cgf


def bernoulli_distribution(theta):
    p_one = 1.0 / (1.0 + math.exp(-theta))
    return DiscreteDistribution([1.0 - p_one, p_one])


class TestExponentialFamily:
    def test_same_parameters_give_zero(self):
        fam = bernoulli_family()
        assert expfam_relative_entropy(fam, [0.7], [0.7]) == pytest.approx(0.0, abs=1e-14)
        b = expfam_xi_bounds(fam, [0.7], [0.7], [1.0])
        assert b.xi_plus == 0.0 and b.xi_minus == 0.0

    def test_bernoulli_entropy_matches_discrete(self, rng):
        fam = bernoulli_family()
        for _ in range(30):
            t1, t0 = rng.normal(0.0, 2.0, 2)
            expected = relative_entropy(
                bernoulli_distribution(t1), bernoulli_distribution(t0)
            )
            assert expfam_relative_entropy(fam, [t1], [t0]) == pytest.approx(
                expected, abs=1e-10
            )

    def test_bregman_nonnegative(self, rng):
        fam = bernoulli_family()
        for _ in range(50):
            t1, t0 = rng.normal(0.0, 3.0, 2)
            assert expfam_relative_entropy(fam, [t1], [t0]) >= 0.0

    def test_bernoulli_xi_matches_discrete(self, rng):
        fam = bernoulli_family()
        for _ in range(15):
            t1, t0 = rng.normal(0.0, 1.5, 2)
            b_fam = expfam_xi_bounds(fam, [t1], [t0], [1.0])
            b_disc = xi_bounds(
                EmpiricalCgf(bernoulli_distribution(t0), Observable([0.0, 1.0])),
                relative_entropy(bernoulli_distribution(t1), bernoulli_distribution(t0)),
            )
            assert b_fam.xi_plus == pytest.approx(b_disc.xi_plus, abs=1e-8)
            assert b_fam.xi_minus == pytest.approx(b_disc.xi_minus, abs=1e-8)

    def test_zero_direction_gives_zero(self):
        fam = bernoulli_family()
        b = expfam_xi_bounds(fam, [1.0], [0.2], [0.0])
        assert b.xi_plus == 0.0 and b.xi_minus == 0.0

    def test_empty_feasible_interval_raises(self):
        fam = _laplace_family()
        with pytest.raises(CgfDomainError):
            expfam_xi_bounds(fam, [0.5], [1.0 - 1e-12], [1.0])

    def test_domain_edge_bounds_the_search(self):
        # F(theta) = -log(1 - theta^2) is the log-Laplace transform of the
        # Laplace law on |theta| < 1.  From theta = 0.5 along v = 1 the
        # domain ends at c = 0.5 and c = -1.5, and the bounds are those of
        # the analytic CGF that is infinite past both edges; they sandwich
        # the mean gap F'(theta') - F'(theta).
        fam = _laplace_family()
        theta, theta_prime, v = np.array([0.5]), np.array([0.3]), np.array([1.0])
        r = expfam_relative_entropy(fam, theta_prime, theta)
        want = xi_bounds(AnalyticCgf(fn=_laplace_cgf(0.5)), r)
        bound = expfam_xi_bounds(fam, theta_prime, theta, v)
        assert bound.xi_plus == pytest.approx(want.xi_plus, rel=1e-10)
        assert bound.xi_minus == pytest.approx(want.xi_minus, rel=1e-10)
        gap = _laplace_mean(0.3) - _laplace_mean(0.5)
        assert bound.xi_minus <= gap <= bound.xi_plus

    @pytest.mark.parametrize(
        "theta, theta_prime",
        [(0.5, -0.5), (0.9, -0.9), (0.999, 0.5), (-0.999, 0.999), (0.99999, -0.99999)],
    )
    def test_far_side_reaches_its_own_edge(self, theta, theta_prime):
        # theta' is a tilt of theta by c = theta' - theta, past the nearer
        # edge but inside the far one, so the far side attains the exact gap.
        # A search capped at the nearer edge gave -173.6 for 0.9 -> -0.9,
        # where the gap is -18.95.
        bound = expfam_xi_bounds(_laplace_family(), [theta_prime], [theta], [1.0])
        gap = _laplace_mean(theta_prime) - _laplace_mean(theta)
        far = bound.xi_minus if theta_prime < theta else bound.xi_plus
        assert far == pytest.approx(gap, rel=1e-9)
        assert bound.xi_minus <= gap <= bound.xi_plus

    def test_next_to_the_edge_stays_finite(self):
        # theta = 0.99999 is 1e-5 from its edge: the finite-difference
        # variance steps inside it, and the gap to 0.9999 is sandwiched.
        bound = expfam_xi_bounds(_laplace_family(), [0.9999], [0.99999], [1.0])
        assert 0.0 < bound.linearized_half_width < math.inf
        gap = _laplace_mean(0.9999) - _laplace_mean(0.99999)
        assert bound.xi_minus <= gap <= bound.xi_plus < math.inf

    @pytest.mark.parametrize("theta, theta_prime", [(20.0, 18.0), (25.0, 22.0), (30.0, 27.0)])
    def test_cancelling_variance_keeps_the_sandwich(self, theta, theta_prime):
        # Far into the Bernoulli tail K is a difference of softplus values
        # that cancels, so its central difference at 0 rounds to 0.  That
        # zero does not prove the observable constant: the search starts at
        # the cap, and the interval holds the gap.
        bound = expfam_xi_bounds(bernoulli_family(), [theta_prime], [theta], [1.0])
        e, e_prime = math.exp(-theta), math.exp(-theta_prime)
        gap = (e - e_prime) / ((1.0 + e) * (1.0 + e_prime))  # sigma(theta') - sigma(theta)
        assert gap < 0.0
        assert bound.xi_minus <= gap <= bound.xi_plus
