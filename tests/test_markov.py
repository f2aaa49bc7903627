import math
import warnings

import numpy as np
import pytest

from conftest import random_chain, random_distribution
from infoscale import (
    AbsoluteContinuityError,
    DiscreteDistribution,
    EmpiricalCgf,
    EnumerationLimitError,
    NormalizationError,
    Observable,
    StructureError,
    TransitionMatrix,
    centered_cgf,
    cheap_rate_bounds,
    chi2_rate,
    integrated_autocorrelation,
    lambda_pg,
    path_divergence_report,
    relative_entropy,
    relative_entropy_rate,
    renyi_rate,
    stationary_distribution,
    xi_rate_bounds,
)
from infoscale.markov import hellinger_rate_limit, path_cgf, perron_root


class TestTransitionMatrix:
    def test_row_sum_validation(self):
        with pytest.raises(NormalizationError):
            TransitionMatrix([[0.5, 0.4], [0.3, 0.7]])

    def test_negative_entries(self):
        with pytest.raises(NormalizationError):
            TransitionMatrix([[1.2, -0.2], [0.5, 0.5]])

    def test_reducible_rejected(self):
        with pytest.raises(StructureError):
            TransitionMatrix([[1.0, 0.0], [0.5, 0.5]])

    def test_periodic_detected(self):
        flip = TransitionMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert not flip.is_aperiodic()
        lazy = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert lazy.is_aperiodic()


class TestStationary:
    def test_doubly_stochastic_gives_uniform(self):
        p = TransitionMatrix([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        assert np.allclose(stationary_distribution(p).weights, 1.0 / 3.0, atol=1e-12)

    def test_two_state_closed_form(self, rng):
        for _ in range(20):
            a, b = rng.uniform(0.05, 0.95, 2)
            p = TransitionMatrix([[1 - a, a], [b, 1 - b]])
            mu = stationary_distribution(p).weights
            assert np.allclose(mu, np.array([b, a]) / (a + b), atol=1e-12)

    def test_uniform_mixing_chain(self):
        # Convex mix of identity and the uniform kernel keeps uniform invariant.
        n = 4
        p = TransitionMatrix(0.6 * np.eye(n) + 0.4 * np.full((n, n), 1.0 / n))
        assert np.allclose(stationary_distribution(p).weights, 0.25, atol=1e-12)

    def test_fixed_point_residual(self, rng):
        p = random_chain(rng, 5)
        mu = stationary_distribution(p).weights
        assert np.max(np.abs(mu @ p.rows - mu)) < 1e-12


# A banded ten-state ring on which the tilted power iterate underflows to an
# exact zero entry at c = -256 (the Collatz-Wielandt ratios were then inf).
_BANDED_RING = [
    {0: 0.3715932226001421, 1: 0.3126093377257437, 9: 0.3157974396741143},
    {0: 0.2995026117221687, 1: 0.4479236308146528, 2: 0.25257375746317856},
    {1: 0.3169721805476498, 2: 0.4299958763180063, 3: 0.25303194313434396},
    {2: 0.34293863483191667, 3: 0.35730168482011676, 4: 0.2997596803479666},
    {3: 0.3073108568712117, 4: 0.3062362189111934, 5: 0.38645292421759486},
    {4: 0.320009408747186, 5: 0.36696561452243465, 6: 0.3130249767303795},
    {5: 0.32611914147771903, 6: 0.3271566008070784, 7: 0.34672425771520254},
    {6: 0.25975979695058554, 7: 0.4513722708911506, 8: 0.2888679321582638},
    {7: 0.33930164712468663, 8: 0.32741962091761545, 9: 0.33327873195769786},
    {0: 0.3760236182342388, 8: 0.3554452945921432, 9: 0.2685310871736181},
]
_BANDED_G = [
    -0.5512905201291309, -0.8234168261622958, 0.7570549196391525,
    -0.2763710097211338, -0.9497444944343307, 0.26058280678744405,
    -0.4370710728638083, -0.26954032943467676, 0.16657638552631027,
    0.3414065456583233,
]


class TestPerron:
    def test_two_state_characteristic_polynomial(self, rng):
        # Quadratic-formula root of det(M - x I) as the independent oracle.
        for _ in range(25):
            m = rng.uniform(0.0, 2.0, (2, 2))
            m[0, 1] = max(m[0, 1], 1e-3)
            m[1, 0] = max(m[1, 0], 1e-3)
            tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            root = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
            assert perron_root(m) == pytest.approx(root, abs=1e-10)

    def test_periodic_pattern_converges(self):
        # Pure off-diagonal pattern: plain power iteration oscillates, the
        # diagonal shift keeps it convergent.
        m = np.array([[0.0, 4.0], [1.0, 0.0]])
        assert perron_root(m) == pytest.approx(2.0, abs=1e-11)

    def test_stochastic_matrix_has_root_one(self, rng):
        p = random_chain(rng, 4)
        assert perron_root(p.rows) == pytest.approx(1.0, abs=1e-12)

    def test_underflow_truncated_tilt_stays_bounded(self):
        # An extreme tilt underflows all but one column, leaving a reducible
        # pattern whose root is the surviving diagonal entry; the shifted
        # iteration stalls there and must fall back without diverging.
        rows = np.array([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
        rows[0, 2] = 1e-12
        rows[0, :] /= rows[0, :].sum()
        p = TransitionMatrix(rows)
        g = Observable([0.0, 0.0, 1.0])
        value = lambda_pg(p, g, 5000.0)
        assert math.isfinite(value)
        # lambda(c)/c tends to max(g) - E(g) < 1 from below at huge tilts.
        assert value <= 5000.0

    def test_underflowed_iterate_falls_back_to_dense_solve(self):
        rows = np.zeros((10, 10))
        for x, row in enumerate(_BANDED_RING):
            for y, value in row.items():
                rows[x, y] = value
        p = TransitionMatrix(rows)
        g = Observable(_BANDED_G)
        mu = stationary_distribution(p).weights
        centered = g.values - float(mu @ g.values)
        for c in (-128.0, -256.0, -512.0):
            tilt = c * centered
            shift = float(np.max(tilt))
            dense = np.max(np.linalg.eigvals(rows * np.exp(tilt - shift)[None, :]).real)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                value = lambda_pg(p, g, c)
            assert math.isfinite(value)
            assert value == pytest.approx(math.log(dense) + shift, rel=1e-12)


class TestRates:
    def test_rer_zero_iff_equal(self, rng):
        p = random_chain(rng, 3)
        assert relative_entropy_rate(p, p) == 0.0
        q = random_chain(rng, 3)
        assert relative_entropy_rate(q, p) > 0.0

    def test_rer_matches_path_enumeration(self, rng):
        # With stationary initial laws the finite-horizon per-step KL equals
        # r + R(mu_q || mu_p)/N exactly, so a perturbed pair keeps the
        # horizon bias inside the stated windows.
        p = random_chain(rng, 3)
        q = TransitionMatrix(0.75 * p.rows + 0.25 * random_chain(rng, 3).rows)
        r = relative_entropy_rate(q, p)
        per_step = {n: path_divergence_report(p, q, n).kl / n for n in (10, 12)}
        assert abs(per_step[10] - per_step[12]) < 1e-3
        assert abs(per_step[12] - r) < 1e-2
        # The finite-horizon excess decays like C/N.
        assert abs(per_step[12] - r) < abs(per_step[10] - r) + 1e-12

    def test_rer_iid_rows_reduces_to_kl(self, rng):
        pw = random_distribution(rng, 3).weights
        qw = random_distribution(rng, 3).weights
        p = TransitionMatrix(np.tile(pw, (3, 1)))
        q = TransitionMatrix(np.tile(qw, (3, 1)))
        expected = relative_entropy(DiscreteDistribution(qw), DiscreteDistribution(pw))
        assert relative_entropy_rate(q, p) == pytest.approx(expected, abs=1e-13)

    def test_renyi_rate_matches_enumeration(self, rng):
        p = random_chain(rng, 2)
        q = random_chain(rng, 2)
        rate = renyi_rate(q, p, 2.0)
        per_step = [path_divergence_report(p, q, n, alpha=2.0).renyi / n for n in (8, 10, 12)]
        gaps = [abs(v - rate) for v in per_step]
        assert gaps[-1] < 2e-2
        assert gaps[0] >= gaps[-1] - 1e-12

    def test_chi2_rate_is_renyi_two(self, rng):
        p = random_chain(rng, 3)
        q = random_chain(rng, 3)
        assert chi2_rate(q, p) == pytest.approx(renyi_rate(q, p, 2.0), abs=1e-11)

    def test_rates_zero_for_identical(self, rng):
        p = random_chain(rng, 3)
        assert renyi_rate(p, p, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert chi2_rate(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_hellinger_limit_flag(self, rng):
        p = random_chain(rng, 3)
        q = random_chain(rng, 3)
        assert hellinger_rate_limit(q, p) == math.sqrt(2.0)
        assert hellinger_rate_limit(p, p) == 0.0

    def test_row_ac_violation(self):
        p = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        q = TransitionMatrix([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(AbsoluteContinuityError):
            relative_entropy_rate(q, p)


class TestLambdaCurve:
    def test_zero_at_origin(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        assert lambda_pg(p, g, 0.0) == 0.0

    def test_constant_observable(self, rng):
        p = random_chain(rng, 3)
        g = Observable([2.0, 2.0, 2.0])
        for c in (-3.0, 0.5, 10.0):
            assert lambda_pg(p, g, c) == 0.0

    def test_iid_rows_equals_centered_cgf(self, rng):
        pw = random_distribution(rng, 3).weights
        p = TransitionMatrix(np.tile(pw, (3, 1)))
        g = Observable(rng.uniform(-1, 1, 3))
        src = EmpiricalCgf(DiscreteDistribution(pw), g)
        for c in (-2.0, 0.3, 1.7):
            assert lambda_pg(p, g, c) == pytest.approx(centered_cgf(src, c), abs=1e-11)

    def test_convex_in_c(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        for _ in range(15):
            a, b = sorted(rng.uniform(-4.0, 4.0, 2))
            mid = lambda_pg(p, g, 0.5 * (a + b))
            assert mid <= 0.5 * (lambda_pg(p, g, a) + lambda_pg(p, g, b)) + 1e-10


class TestXiRateBounds:
    def test_identical_chains(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        rb = xi_rate_bounds(p, p, g)
        assert rb.xi_plus_rate == 0.0 and rb.xi_minus_rate == 0.0

    def test_sandwich_on_random_pairs(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 4))
            p, q = random_chain(rng, n), random_chain(rng, n)
            g = Observable(rng.uniform(-1, 1, n))
            rb = xi_rate_bounds(q, p, g)
            gap = g.expectation(stationary_distribution(q)) - g.expectation(
                stationary_distribution(p)
            )
            assert rb.xi_minus_rate - 1e-9 <= gap <= rb.xi_plus_rate + 1e-9

    def test_linearization_for_small_perturbations(self, rng):
        # q = (1 - eps) p + eps uniform: xi+ approaches sqrt(v) sqrt(2 r).
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        v = integrated_autocorrelation(p, g)
        for eps in (0.02, 0.01):
            q = TransitionMatrix((1 - eps) * p.rows + eps / 3.0)
            rb = xi_rate_bounds(q, p, g)
            linear = math.sqrt(v) * math.sqrt(2.0 * rb.rer)
            assert abs(rb.xi_plus_rate - linear) < 10.0 * rb.rer


class TestIntegratedAutocorrelation:
    def test_iid_rows_give_variance(self, rng):
        pw = random_distribution(rng, 3).weights
        p = TransitionMatrix(np.tile(pw, (3, 1)))
        g = Observable(rng.uniform(-1, 1, 3))
        expected = g.variance(DiscreteDistribution(pw))
        assert integrated_autocorrelation(p, g) == pytest.approx(expected, abs=1e-12)

    def test_two_state_truncated_sum_oracle(self):
        a = 0.3
        p = TransitionMatrix([[1 - a, a], [a, 1 - a]])
        g = Observable([0.0, 1.0])
        # Direct truncation of Var + 2 sum_k Cov(g_0, g_k) with 1e4 terms.
        mu = np.array([0.5, 0.5])
        gb = g.values - 0.5
        total = float(gb @ (mu * gb))
        pk = np.eye(2)
        for _ in range(10_000):
            pk = pk @ p.rows
            total += 2.0 * float((mu * gb) @ (pk @ gb))
        assert integrated_autocorrelation(p, g) == pytest.approx(total, abs=1e-10)

    def test_matches_second_derivative_of_lambda(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        v = integrated_autocorrelation(p, g)
        h = 1e-4
        fd = (lambda_pg(p, g, h) - 2.0 * lambda_pg(p, g, 0.0) + lambda_pg(p, g, -h)) / h**2
        assert v == pytest.approx(fd, abs=1e-5)

    def test_periodic_chain_rejected(self):
        flip = TransitionMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(StructureError):
            integrated_autocorrelation(flip, Observable([0.0, 1.0]))


class TestCheapBounds:
    def test_identical_chains_all_zero(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        cb = cheap_rate_bounds(p, p, g)
        assert cb.sup_row_re == 0.0
        assert cb.sup_log_ratio == 0.0
        assert cb.bounds_sup_row_re.xi_plus == 0.0

    def test_surrogate_ordering(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            p, q = random_chain(rng, n), random_chain(rng, n)
            g = Observable(rng.uniform(-1, 1, n))
            cb = cheap_rate_bounds(q, p, g)
            assert cb.rer <= cb.sup_row_re + 1e-12
            assert cb.sup_row_re <= cb.sup_log_ratio + 1e-12

    def test_intervals_nested(self, rng):
        for _ in range(20):
            p, q = random_chain(rng, 3), random_chain(rng, 3)
            g = Observable(rng.uniform(-1, 1, 3))
            rb = xi_rate_bounds(q, p, g)
            cb = cheap_rate_bounds(q, p, g)
            assert cb.bounds_sup_row_re.xi_plus >= rb.xi_plus_rate - 1e-9
            assert cb.bounds_sup_row_re.xi_minus <= rb.xi_minus_rate + 1e-9
            assert cb.bounds_sup_log_ratio.xi_plus >= cb.bounds_sup_row_re.xi_plus - 1e-9
            assert cb.bounds_sup_log_ratio.xi_minus <= cb.bounds_sup_row_re.xi_minus + 1e-9


class TestPathEnumeration:
    def test_cap_enforced(self, rng):
        p = random_chain(rng, 3)
        q = random_chain(rng, 3)
        with pytest.raises(EnumerationLimitError):
            path_divergence_report(p, q, 14)

    def test_identical_chains_give_zero(self, rng):
        p = random_chain(rng, 2)
        rep = path_divergence_report(p, p, 6)
        assert rep.kl == pytest.approx(0.0, abs=1e-12)
        assert rep.tv == pytest.approx(0.0, abs=1e-12)

    def test_finite_horizon_xi_converges_to_rate(self, rng):
        # Per-site goal-oriented bounds from exact path quantities approach
        # the rate bounds on both sides as the horizon grows (2-state
        # instances).
        p, q = random_chain(rng, 2), random_chain(rng, 2)
        g = Observable(rng.uniform(-1, 1, 2))
        rb = xi_rate_bounds(q, p, g)
        grid = np.logspace(-3, 3, 600)
        plus_gaps, minus_gaps = [], []
        for n in (6, 8, 10, 12):
            r_n = path_divergence_report(p, q, n).kl
            plus = min((path_cgf(p, g, n, c) + r_n) / (c * n) for c in grid)
            minus = -min((path_cgf(p, g, n, -c) + r_n) / (c * n) for c in grid)
            plus_gaps.append(abs(plus - rb.xi_plus_rate))
            minus_gaps.append(abs(minus - rb.xi_minus_rate))
        assert plus_gaps[-1] < 5e-2 and minus_gaps[-1] < 5e-2
        assert plus_gaps[0] >= plus_gaps[-1] - 1e-12
        assert minus_gaps[0] >= minus_gaps[-1] - 1e-12
