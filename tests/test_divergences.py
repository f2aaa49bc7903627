import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import close_pair, random_distribution
from infoscale import (
    AbsoluteContinuityError,
    DimensionError,
    DiscreteDistribution,
    NormalizationError,
    ParameterError,
    chi_squared,
    divergence_report,
    hellinger,
    iid_scaled_divergences,
    relative_entropy,
    renyi_divergence,
    total_variation,
)
from infoscale.divergences import _logsumexp, _PathTransfer, _require_mutual_ac


class TestConstruction:
    def test_negative_weights_rejected(self):
        with pytest.raises(NormalizationError):
            DiscreteDistribution([0.5, -0.1, 0.6])

    def test_bad_sum_rejected(self):
        with pytest.raises(NormalizationError):
            DiscreteDistribution([0.5, 0.6])

    def test_renormalize_flag(self):
        d = DiscreteDistribution([2.0, 6.0], renormalize=True)
        assert np.allclose(d.weights, [0.25, 0.75])

    def test_weights_immutable(self):
        d = DiscreteDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.weights[0] = 0.9

    def test_tolerance_boundary(self):
        # Within 1e-12 of one is accepted without rescaling.
        DiscreteDistribution([0.5, 0.5 + 5e-13])

    def test_mutual_ac_check(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.2, 0.8, 0.0])
        c = np.array([0.2, 0.3, 0.5])
        _require_mutual_ac(a, b, "test")
        with pytest.raises(AbsoluteContinuityError):
            _require_mutual_ac(a, c, "test")
        with pytest.raises(DimensionError):
            _require_mutual_ac(a, c[:2], "test")


class TestTotalVariation:
    def test_identical(self):
        p = DiscreteDistribution([0.3, 0.7])
        assert total_variation(p, p) == 0.0

    def test_disjoint_supports_maximal(self):
        assert total_variation(
            DiscreteDistribution([1.0, 0.0]), DiscreteDistribution([0.0, 1.0])
        ) == 1.0

    def test_direct_summation_value(self):
        p = DiscreteDistribution([0.5, 0.5])
        q = DiscreteDistribution([0.25, 0.75])
        assert total_variation(p, q) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            total_variation(DiscreteDistribution([1.0]), DiscreteDistribution([0.5, 0.5]))


class TestRelativeEntropy:
    def test_identical(self):
        q = DiscreteDistribution([0.4, 0.6])
        assert relative_entropy(q, q) == 0.0

    def test_direct_summation_value(self):
        q = DiscreteDistribution([0.5, 0.5])
        p = DiscreteDistribution([0.25, 0.75])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert relative_entropy(q, p) == pytest.approx(expected, abs=1e-14)

    def test_product_additivity(self, rng):
        # R(Q x Q || P x P) = 2 R(Q || P)
        p = random_distribution(rng, 3)
        q = random_distribution(rng, 3)
        pp = DiscreteDistribution(np.kron(p.weights, p.weights))
        qq = DiscreteDistribution(np.kron(q.weights, q.weights))
        assert relative_entropy(qq, pp) == pytest.approx(
            2.0 * relative_entropy(q, p), abs=1e-12
        )

    def test_ac_violation_raises(self):
        q = DiscreteDistribution([0.5, 0.5])
        p = DiscreteDistribution([1.0, 0.0])
        with pytest.raises(AbsoluteContinuityError):
            relative_entropy(q, p)

    def test_zero_q_terms_contribute_nothing(self):
        q = DiscreteDistribution([0.0, 1.0])
        p = DiscreteDistribution([0.5, 0.5])
        assert relative_entropy(q, p) == pytest.approx(math.log(2.0))


class TestChiSquared:
    def test_direct_summation_value(self):
        q = DiscreteDistribution([0.5, 0.5])
        p = DiscreteDistribution([0.25, 0.75])
        assert chi_squared(q, p) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_two_forms_agree(self, rng):
        q = random_distribution(rng, 4)
        p = random_distribution(rng, 4)
        direct = float(np.sum(p.weights * (q.weights / p.weights - 1.0) ** 2))
        assert chi_squared(q, p) == pytest.approx(direct, abs=1e-13)


class TestHellinger:
    def test_identical(self):
        q = DiscreteDistribution([0.2, 0.8])
        assert hellinger(q, q) == 0.0

    def test_disjoint_supports(self):
        h = hellinger(DiscreteDistribution([0.0, 1.0]), DiscreteDistribution([1.0, 0.0]))
        assert h == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_symmetric(self, rng):
        q = random_distribution(rng, 5)
        p = random_distribution(rng, 5)
        assert hellinger(q, p) == pytest.approx(hellinger(p, q), abs=1e-15)


class TestRenyi:
    def test_identical_any_order(self, rng):
        q = random_distribution(rng, 4)
        for alpha in (0.3, 0.5, 2.0, 5.0):
            assert renyi_divergence(q, q, alpha) == pytest.approx(0.0, abs=1e-13)

    def test_order_two_is_log_one_plus_chi2(self, rng):
        for _ in range(20):
            q = random_distribution(rng, 4)
            p = random_distribution(rng, 4)
            assert renyi_divergence(q, p, 2.0) == pytest.approx(
                math.log1p(chi_squared(q, p)), abs=1e-12
            )

    def test_order_half_is_hellinger_transform(self, rng):
        for _ in range(20):
            q = random_distribution(rng, 3)
            p = random_distribution(rng, 3)
            h2 = hellinger(q, p) ** 2
            assert renyi_divergence(q, p, 0.5) == pytest.approx(
                -2.0 * math.log1p(-0.5 * h2), abs=1e-12
            )

    def test_nondecreasing_in_order(self, rng):
        q = random_distribution(rng, 4)
        p = random_distribution(rng, 4)
        orders = [0.2, 0.5, 0.9, 1.5, 2.0, 4.0]
        values = [renyi_divergence(q, p, a) for a in orders]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_limit_at_one_matches_kl(self, rng):
        q = random_distribution(rng, 4)
        p = random_distribution(rng, 4)
        kl = relative_entropy(q, p)
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            assert renyi_divergence(q, p, alpha) == pytest.approx(kl, abs=1e-5)

    def test_bad_orders(self):
        q = DiscreteDistribution([0.5, 0.5])
        with pytest.raises(ParameterError):
            renyi_divergence(q, q, -1.0)
        with pytest.raises(ParameterError):
            renyi_divergence(q, q, 1.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
    def test_non_finite_orders_rejected(self, alpha):
        # An infinite order used to give NaN, with a RuntimeWarning.
        p, q = DiscreteDistribution([0.25, 0.75]), DiscreteDistribution([0.5, 0.5])
        with pytest.raises(ParameterError, match="Renyi order must be positive and finite"):
            renyi_divergence(q, p, alpha)
        with pytest.raises(ParameterError, match="Renyi order must be positive and finite"):
            iid_scaled_divergences(p, q, 3, alpha=alpha)


class TestLogSumExp:
    def test_weighted_matches_mpmath(self, rng):
        # Exponents around -700, 0 and +700 (e^710 overflows, e^-746
        # underflows) with some weights 0: a zero weight drops its term, so
        # the shift is the largest exponent that carries weight.
        for _ in range(200):
            n = int(rng.integers(1, 8))
            x = rng.choice([-700.0, 0.0, 700.0]) + rng.uniform(-60.0, 60.0, n)
            w = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            w[int(rng.integers(n))] = rng.random() + 1e-3
            with mpmath.workdps(40):
                want = mpmath.log(mpmath.fsum(
                    mpmath.mpf(a) * mpmath.exp(mpmath.mpf(b)) for a, b in zip(w, x)
                ))
            assert _logsumexp(x, w) == pytest.approx(float(want), rel=1e-15, abs=1e-14)
            assert _logsumexp(x) == _logsumexp(x, np.ones(n))

    def test_zero_weights_never_set_the_shift(self):
        x = np.array([1000.0, 0.0, -1.0])
        assert _logsumexp(x, np.array([0.0, 1.0, 0.0])) == 0.0
        assert _logsumexp(x, np.zeros(3)) == -math.inf
        assert _logsumexp(np.array([-math.inf, -math.inf])) == -math.inf


def _log_partition(log_start, exponents, n_steps):
    """The log partition of the path transfer with one-state blocks."""
    return _PathTransfer(log_start, exponents[:, None, :], n_steps).log_partition


def _enumerated_log_transfer(log_start, exponents, n_steps):
    """50-digit ``log sum exp`` of every path's exponent sum, path by path."""
    sums = []
    for path in itertools.product(range(len(log_start)), repeat=n_steps + 1):
        terms = [log_start[path[0]]] + [exponents[a, b] for a, b in zip(path, path[1:])]
        if -math.inf not in terms:
            sums.append(math.fsum(terms))
    if not sums:
        return -math.inf
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(s)) for s in sums)))


_NO = -math.inf
_MIXED = [[0.1, -1.2, 0.4], [-0.5, 0.0, -2.0], [0.7, -0.1, -0.9]]
_SPREAD = [[-800.0, 2000.0], [-800.0, 0.0]]


class TestLogTransfer:
    # Every case runs under the suite's error::RuntimeWarning filter, so the
    # log 0 of an all -inf column must not warn.
    @pytest.mark.parametrize(
        "log_start, exponents, n_steps",
        [
            # A start vector with a -inf entry, over one step and over four.
            pytest.param([_NO, -0.3, 0.2], _MIXED, 1, id="inf-start-one-step"),
            pytest.param([_NO, -0.3, 0.2], _MIXED, 4, id="inf-start-four-steps"),
            # Column 1 is all -inf at every step: no path enters state 1.
            pytest.param([0.0, 0.5, _NO], [[-0.2, _NO, 0.3], [0.1, _NO, -0.4], [-1.0, _NO, 0.0]],
                         3, id="inf-column"),
            # No path survives the first step.
            pytest.param([_NO, 0.0], [[0.0, _NO], [_NO, _NO]], 2, id="no-path"),
            # The exponents span 2800: the e^2000 step 0 -> 1 that carries
            # the sum is reached only through e^-800, which a shift by the
            # largest exponent of the whole step would underflow to 0.
            pytest.param([_NO, 0.0], _SPREAD, 1, id="spread-one-step"),
            pytest.param([_NO, 0.0], _SPREAD, 2, id="spread-two-steps"),
            pytest.param([-1.0, 0.0], _SPREAD, 5, id="spread-five-steps"),
        ],
    )
    def test_matches_path_enumeration(self, log_start, exponents, n_steps):
        log_start, exponents = np.array(log_start), np.array(exponents)
        want = _enumerated_log_transfer(log_start, exponents, n_steps)
        got = _log_partition(log_start, exponents, n_steps)
        assert got == (-math.inf if want == -math.inf else pytest.approx(want, rel=1e-14, abs=1e-14))

    def test_random_chains_match_path_enumeration(self, rng):
        for _ in range(20):
            n, steps = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            exponents = rng.normal(scale=3.0, size=(n, n))
            exponents[rng.random((n, n)) < 0.2] = -math.inf
            log_start = rng.normal(size=n)
            want = _enumerated_log_transfer(log_start, exponents, steps)
            got = _log_partition(log_start, exponents, steps)
            assert got == (-math.inf if want == -math.inf else pytest.approx(want, rel=1e-13))


@settings(max_examples=150, deadline=None)
@given(
    pw=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
    qw=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
)
def test_chain_of_inequalities(pw, qw):
    # H^2 <= D_1/2 <= KL <= D_2 <= chi^2 on every mutually AC pair.
    n = min(len(pw), len(qw))
    p = DiscreteDistribution(np.array(pw[:n]) / np.sum(pw[:n]))
    q = DiscreteDistribution(np.array(qw[:n]) / np.sum(qw[:n]))
    report = divergence_report(p, q)
    h2, d_half, kl, d_two, chi2 = report.chain_values()
    tol = 1e-10
    assert h2 <= d_half + tol
    assert d_half <= kl + tol
    assert kl <= d_two + tol
    assert d_two <= chi2 + tol


def test_positivity_for_distinct_measures(rng):
    # Identity of indiscernibles: strictly positive for P != Q.
    p = DiscreteDistribution([0.3, 0.7])
    q = DiscreteDistribution([0.5, 0.5])
    assert total_variation(p, q) > 0
    assert relative_entropy(q, p) > 0
    assert chi_squared(q, p) > 0
    assert hellinger(q, p) > 0
    assert renyi_divergence(q, p, 2.0) > 0


def _mp_divergences(q, p, alphas):
    """40-digit KL, chi^2, H and the Renyi orders ``alphas`` of the float
    weights as given (q may vanish where p does not, for all but Renyi)."""
    with mpmath.workdps(40):
        qs = [mpmath.mpf(float(x)) for x in q]
        ps = [mpmath.mpf(float(x)) for x in p]
        kl = mpmath.fsum(b - a + (a * mpmath.log(a / b) if a else 0) for a, b in zip(qs, ps))
        chi2 = mpmath.fsum((a - b) ** 2 / b for a, b in zip(qs, ps))
        h = mpmath.sqrt(mpmath.fsum((mpmath.sqrt(a) - mpmath.sqrt(b)) ** 2 for a, b in zip(qs, ps)))
        renyi = [
            mpmath.log(mpmath.fsum(a**alpha * b ** (1 - alpha) for a, b in zip(qs, ps))) / (alpha - 1)
            for alpha in alphas
        ]
        return float(kl), float(chi2), float(h), [float(r) for r in renyi]


class TestPrecision:
    """Near q = p the divergences are differences of nearly equal sums.  Each
    one is taken in a form whose terms keep their digits (Bregman KL terms,
    ``(q - p)^2 / p``, ``(q - p) / (sqrt q + sqrt p)``, the Renyi tail form),
    so it matches a 40-digit evaluation to 1e-12 relative at any distance."""

    ORDERS = (0.5, 2.0, 7.0)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0])
    def test_matches_mpmath_at_every_distance(self, rng, eps):
        for _ in range(20):
            p, q = close_pair(rng, int(rng.integers(3, 9)), eps)
            kl, chi2, h, renyi = _mp_divergences(q.weights, p.weights, self.ORDERS)
            assert relative_entropy(q, p) == pytest.approx(kl, rel=1e-12, abs=0.0)
            assert chi_squared(q, p) == pytest.approx(chi2, rel=1e-12, abs=0.0)
            assert hellinger(q, p) == pytest.approx(h, rel=1e-12, abs=0.0)
            for alpha, want in zip(self.ORDERS, renyi):
                assert renyi_divergence(q, p, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_far_apart_measures(self, rng, alpha):
        # Q and P put most of their mass on different atoms, and the rest
        # over 30 decades.  Below order 1 the Renyi sum q^a p^(1-a) is then
        # far below 1, where its log1p form loses every digit (and, near 0,
        # meets log1p(-1)); the log-sum-exp keeps them.
        pairs = [(np.array([1.0, 1e-40]), np.array([1e-40, 1.0]))]
        for _ in range(20):
            w = 10.0 ** rng.uniform(-30.0, -1.0, (2, int(rng.integers(3, 9))))
            w[0, 0] = w[1, 1] = 1.0
            pairs.append(tuple(w / w.sum(axis=1, keepdims=True)))
        for q_w, p_w in pairs:
            q, p = DiscreteDistribution(q_w), DiscreteDistribution(p_w)
            kl, chi2, h, (want,) = _mp_divergences(q.weights, p.weights, (alpha,))
            assert renyi_divergence(q, p, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert relative_entropy(q, p) == pytest.approx(kl, rel=1e-12, abs=0.0)
            assert chi_squared(q, p) == pytest.approx(chi2, rel=1e-12, abs=0.0)
            assert hellinger(q, p) == pytest.approx(h, rel=1e-12, abs=0.0)

    def test_an_absent_atom_contributes_its_p(self, rng):
        # q = 0 on one atom: its Bregman term is p, and the rest keep their digits.
        p, q = close_pair(rng, 4, 1e-10)
        w = q.weights.copy()
        w[1] += w[0]
        w[0] = 0.0
        q = DiscreteDistribution(w)
        kl, chi2, h, _ = _mp_divergences(q.weights, p.weights, ())
        assert relative_entropy(q, p) == pytest.approx(kl, rel=1e-12, abs=0.0)
        assert chi_squared(q, p) == pytest.approx(chi2, rel=1e-12, abs=0.0)
        assert hellinger(q, p) == pytest.approx(h, rel=1e-12, abs=0.0)

    def test_identical_measures_give_zero(self, rng):
        # +0.0: below order 1, log1p(0) / (alpha - 1) is -0.0.
        p, _ = close_pair(rng, 5, 0.0)
        assert relative_entropy(p, p) == chi_squared(p, p) == hellinger(p, p) == 0.0
        for alpha in self.ORDERS:
            for value in (renyi_divergence(p, p, alpha), iid_scaled_divergences(p, p, 3, alpha).renyi):
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, alpha

    @pytest.mark.parametrize("eps, n", [(1e-9, 100), (1e-5, 1000), (1e-3, 10), (0.5, 3)])
    def test_product_hellinger_matches_mpmath(self, rng, eps, n):
        # H_N = sqrt(2 - 2 BC^N) with BC = sum sqrt(q p) = 1 - H^2 / 2: taken
        # as the power (1 - H^2/2)^N it rounded, to H_N = 0.0 at H = 1e-9 and
        # N = 100, and 4.2e-8 relative off at H = 1e-5 and N = 1000.
        for _ in range(5):
            p, q = close_pair(rng, 4, eps)
            with mpmath.workdps(50):
                bc = mpmath.fsum(mpmath.sqrt(mpmath.mpf(float(a)) * mpmath.mpf(float(b)))
                                 for a, b in zip(q.weights, p.weights))
                want = float(mpmath.sqrt(2 - 2 * bc**n))
            assert want > 0.0
            got = iid_scaled_divergences(p, q, n).hellinger
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
