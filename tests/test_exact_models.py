import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoscale.exact_models as exact_models
from infoscale import (
    GibbsMeasure,
    Ising1DParams,
    Ising2DParams,
    LatticeVolume,
    MeanFieldParams,
    ParameterError,
    UnsupportedModelError,
    cross_model_re_rate,
    gibbs_relative_entropy,
    ising1d_quantities,
    ising2d_critical_beta,
    ising2d_quantities,
    ising_interaction,
    meanfield_solve,
    model_cgf,
    relative_entropy,
    DiscreteDistribution,
)
from infoscale.exact_models import (
    ising1d_pressure_tilted,
    magnetization,
    onsager_bond_density,
    onsager_pressure,
    phase_bound_point,
    variance_per_site,
)
from infoscale.quadrature import adaptive_simpson
from infoscale.sweep import evaluate_sweep, figure_preset


class TestIsing1D:
    def test_zero_field_magnetization_vanishes(self):
        for beta in (0.2, 1.0, 3.0):
            q = ising1d_quantities(Ising1DParams(beta=beta, J=1.0, h=0.0))
            assert q.magnetization == 0.0
            assert math.copysign(1.0, q.magnetization) == 1.0  # prints 0, not -0

    def test_zero_field_variance_closed_form(self):
        # k1 = e^{-J beta} at h = 0, so the variance reduces to e^{2 J beta}.
        q = ising1d_quantities(Ising1DParams(beta=0.7, J=1.0, h=0.0))
        assert q.variance_per_site == pytest.approx(math.exp(1.4), abs=1e-12)

    def test_variance_vs_enumeration(self):
        beta = 0.3
        q = ising1d_quantities(Ising1DParams(beta=beta, J=1.0, h=0.0))
        m = GibbsMeasure(ising_interaction(beta, 1.0, 0.0, 1), LatticeVolume.chain(12))
        totals = m.site_total(np.array([-1.0, 1.0]))
        var = m.expectation((totals - m.expectation(totals)) ** 2) / 12.0
        assert var == pytest.approx(q.variance_per_site, rel=0.10)

    def test_magnetization_is_pressure_derivative(self, rng):
        for _ in range(10):
            beta = float(rng.uniform(0.3, 2.0))
            J = float(rng.uniform(0.5, 1.5))
            h = float(rng.uniform(-1.0, 1.0))
            q = ising1d_quantities(Ising1DParams(beta=beta, J=J, h=h))
            eps = 1e-5
            fd = (
                ising1d_pressure_tilted(beta, J, beta * h + eps)
                - ising1d_pressure_tilted(beta, J, beta * h - eps)
            ) / (2.0 * eps)
            assert q.magnetization == pytest.approx(fd, abs=1e-7)

    def test_correlation_is_pressure_derivative(self, rng):
        for _ in range(10):
            beta = float(rng.uniform(0.3, 1.5))
            J = float(rng.uniform(0.5, 1.5))
            h = float(rng.uniform(-1.0, 1.0))
            q = ising1d_quantities(Ising1DParams(beta=beta, J=J, h=h))
            dj = 1e-5
            fd = (
                ising1d_quantities(Ising1DParams(beta=beta, J=J + dj, h=h)).pressure
                - ising1d_quantities(Ising1DParams(beta=beta, J=J - dj, h=h)).pressure
            ) / (2.0 * dj * beta)
            assert q.nn_correlation == pytest.approx(fd, abs=1e-6)

    def test_tilted_pressure_stable_at_huge_tilt(self):
        value = ising1d_pressure_tilted(1.0, 1.0, 1e12)
        assert value == pytest.approx(1e12 + 1.0, rel=1e-12)

    def test_quantities_finite_at_extreme_field(self):
        for h, sign in ((400.0, 1.0), (-400.0, -1.0), (1e4, 1.0)):
            q = ising1d_quantities(Ising1DParams(beta=1.0, J=1.0, h=h))
            assert q.magnetization == sign
            assert q.pressure == pytest.approx(abs(h) + 1.0, rel=1e-15)
            assert q.nn_correlation == 1.0
            assert 0.0 <= q.variance_per_site < 1e-300

    def test_invalid_beta(self):
        with pytest.raises(ParameterError):
            Ising1DParams(beta=-1.0)


class TestIsing2D:
    def test_pressure_at_infinite_temperature(self):
        assert onsager_pressure(1e-9, 1.0) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_magnetization_onset_at_critical_beta(self):
        bc = ising2d_critical_beta(1.0)
        assert bc == pytest.approx(math.log(1.0 + math.sqrt(2.0)) / 2.0, abs=1e-15)
        below = ising2d_quantities(Ising2DParams(beta=bc - 1e-6, J=1.0))
        above = ising2d_quantities(Ising2DParams(beta=bc + 1e-3, J=1.0))
        assert below.spontaneous_magnetization == 0.0
        assert above.spontaneous_magnetization > 0.0

    def test_branch_sign(self):
        above = ising2d_quantities(Ising2DParams(beta=0.6, J=1.0, branch="minus"))
        assert above.spontaneous_magnetization < 0.0

    def test_correlation_is_pressure_derivative(self):
        for beta in (0.25, 0.6, 1.1):
            dj = 1e-5
            fd = (onsager_pressure(beta, 1.0 + dj) - onsager_pressure(beta, 1.0 - dj)) / (
                2.0 * dj * beta
            )
            assert onsager_bond_density(beta, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_correlation_integrand_simplification(self):
        # The regularized integrand must agree with the raw textbook one.
        for beta in (0.3, 0.44, 0.6, 1.2):
            s = math.sinh(2.0 * beta) ** 2
            c2 = math.cosh(2.0 * beta) ** 2

            def raw(theta):
                k = math.sqrt(s * s + 1.0 - 2.0 * s * math.cos(2.0 * theta))
                return (1.0 - (1.0 + math.cos(2.0 * theta)) / (c2 + k)) / k

            raw_value = (
                math.sinh(4.0 * beta)
                / math.pi
                * adaptive_simpson(raw, 1e-9, math.pi - 1e-9, tol=1e-9)
            )
            assert onsager_bond_density(beta, 1.0) == pytest.approx(raw_value, abs=1e-7)

    def test_critical_point_value(self):
        # At beta_c the simplified integrand is the constant 1/2.
        bc = ising2d_critical_beta(1.0)
        assert onsager_bond_density(bc, 1.0) == pytest.approx(
            math.sinh(4.0 * bc) / 2.0, abs=1e-9
        )

    def test_pressure_convex_in_beta(self):
        grid = np.linspace(0.1, 1.2, 23)
        values = [onsager_pressure(b, 1.0) for b in grid]
        for i in range(1, len(grid) - 1):
            assert values[i] <= 0.5 * (values[i - 1] + values[i + 1]) + 1e-10


class TestMeanField:
    def test_unique_root_below_threshold(self):
        assert meanfield_solve(MeanFieldParams(beta=0.49, J=1.0, h=0.0, d=2)).m == 0.0
        assert meanfield_solve(MeanFieldParams(beta=1.0, J=1.0, h=0.0, d=1)).m == 0.0

    def test_bifurcation_at_half(self):
        # d = 2, J = 1: the mean-field critical point sits at beta = 1/2.
        assert meanfield_solve(MeanFieldParams(beta=0.5, J=1.0, h=0.0, d=2)).m == 0.0
        above = meanfield_solve(MeanFieldParams(beta=0.51, J=1.0, h=0.0, d=2)).m
        assert above > 0.01

    def test_residual_contract(self, rng):
        for _ in range(40):
            params = MeanFieldParams(
                beta=float(rng.uniform(0.1, 4.0)),
                J=float(rng.uniform(0.3, 2.0)),
                h=float(rng.uniform(-1.5, 1.5)),
                d=int(rng.integers(1, 4)),
            )
            sol = meanfield_solve(params)
            assert abs(math.tanh(params.beta * (params.h + params.J * params.d * sol.m)) - sol.m) < 1e-12

    def test_branches_are_mirror_images(self):
        up = meanfield_solve(MeanFieldParams(beta=0.8, J=1.0, h=0.0, d=2, branch="upper")).m
        low = meanfield_solve(MeanFieldParams(beta=0.8, J=1.0, h=0.0, d=2, branch="lower")).m
        assert low == pytest.approx(-up, abs=1e-14)

    def test_root_sign_follows_field(self):
        pos = meanfield_solve(MeanFieldParams(beta=2.0, J=1.0, h=0.05, d=2)).m
        neg = meanfield_solve(MeanFieldParams(beta=2.0, J=1.0, h=-0.05, d=2)).m
        assert pos > 0.9 and neg < -0.9

    def test_branch_continuity_and_saturation(self):
        # m(beta) is continuous along the upper branch but has a square-root
        # onset at the bifurcation, so the grid there must be fine.
        onset = [
            meanfield_solve(MeanFieldParams(beta=float(b), J=1.0, h=0.0, d=2)).m
            for b in np.arange(0.5, 0.5001, 1e-6)
        ]
        assert np.abs(np.diff(onset)).max() < 0.003
        # Away from the onset the jumps obey the sqrt(beta - beta_c) envelope.
        grid = np.arange(0.52, 6.0, 0.02)
        bulk = [
            meanfield_solve(MeanFieldParams(beta=float(b), J=1.0, h=0.0, d=2)).m
            for b in grid
        ]
        for b0, b1, m0, m1 in zip(grid, grid[1:], bulk, bulk[1:]):
            envelope = 3.0 * (math.sqrt(b1 - 0.5) - math.sqrt(b0 - 0.5)) + 1e-3
            assert abs(m1 - m0) <= envelope
        assert bulk[-1] == pytest.approx(1.0, abs=1e-4)


def mf_site_distribution(params):
    sol = meanfield_solve(params)
    w = np.array(
        [math.exp(-params.beta * sol.h_mf), math.exp(params.beta * sol.h_mf)]
    )
    return DiscreteDistribution(w / w.sum())


class TestCrossModelRates:
    def test_identical_parameters_give_zero(self):
        a = MeanFieldParams(beta=1.2, J=1.0, h=0.3)
        assert cross_model_re_rate(a, a) == pytest.approx(0.0, abs=1e-14)
        b = Ising1DParams(beta=1.2, J=1.0, h=0.3)
        assert cross_model_re_rate(b, b) == pytest.approx(0.0, abs=1e-13)

    def test_mf_vs_mf_equals_product_kl(self, rng):
        for _ in range(25):
            a = MeanFieldParams(
                beta=float(rng.uniform(0.2, 2.5)), J=float(rng.uniform(0.5, 2.0)),
                h=float(rng.uniform(-1.0, 1.0)), d=int(rng.integers(1, 3)),
            )
            b = MeanFieldParams(
                beta=float(rng.uniform(0.2, 2.5)), J=float(rng.uniform(0.5, 2.0)),
                h=float(rng.uniform(-1.0, 1.0)), d=int(rng.integers(1, 3)),
            )
            direct = relative_entropy(mf_site_distribution(a), mf_site_distribution(b))
            assert cross_model_re_rate(a, b) == pytest.approx(direct, abs=1e-12)

    def test_ising_vs_ising_matches_enumeration(self):
        q = Ising1DParams(beta=1.2, J=1.0, h=0.3)
        p = Ising1DParams(beta=1.0, J=1.0, h=0.0)
        rate = cross_model_re_rate(q, p)
        gaps = []
        for n in (8, 10, 12):
            vol = LatticeVolume.chain(n)
            m_q = GibbsMeasure(ising_interaction(q.beta, q.J, q.h, 1), vol)
            m_p = GibbsMeasure(ising_interaction(p.beta, p.J, p.h, 1), vol)
            gaps.append(abs(gibbs_relative_entropy(m_q, m_p) / n - rate))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 5e-2

    def test_ising1d_vs_mf_verbatim_form(self):
        # The general Gibbs-identity evaluation must reproduce the termwise
        # shared-parameter closed form.
        beta, J, h = 1.1, 1.0, 0.25
        q = Ising1DParams(beta=beta, J=J, h=h)
        p = MeanFieldParams(beta=beta, J=J, h=h, d=1)
        m = meanfield_solve(p).m
        k1 = math.sqrt(math.exp(2 * J * beta) * math.sinh(h * beta) ** 2 + math.exp(-2 * J * beta))
        denom = math.exp(beta * J) * math.cosh(beta * h) + k1
        verbatim = math.log(
            (math.exp(beta * (h + J * m)) + math.exp(-beta * (h + J * m))) / denom
        ) + (beta * J / k1) * (
            k1 - 2.0 * math.exp(-2 * beta * J) / denom - m * math.exp(J * beta) * math.sinh(h * beta)
        )
        assert cross_model_re_rate(q, p) == pytest.approx(verbatim, abs=1e-12)

    def test_ising2d_vs_mf_verbatim_form(self):
        beta, J = 0.7, 1.0
        q = Ising2DParams(beta=beta, J=J, branch="plus")
        p = MeanFieldParams(beta=beta, J=J, h=0.0, d=2, branch="upper")
        m = meanfield_solve(p).m
        m0 = ising2d_quantities(q).spontaneous_magnetization
        s = math.sinh(2 * beta * J) ** 2

        def k(theta):
            return math.sqrt(s * s + 1 - 2 * s * math.cos(2 * theta))

        log_term = adaptive_simpson(
            lambda t: math.log(math.cosh(2 * beta * J) ** 2 + k(t)), 0, math.pi, tol=1e-10
        )
        corr_term = adaptive_simpson(
            lambda t: (1 - (1 + math.cos(2 * t)) / (math.cosh(2 * beta * J) ** 2 + k(t))) / k(t),
            0,
            math.pi,
            tol=1e-10,
        )
        verbatim = (
            math.log(math.exp(-2 * beta * J * m) + math.exp(2 * beta * J * m))
            - math.log(2) / 2
            - log_term / (2 * math.pi)
            + beta * J * math.sinh(4 * beta * J) / math.pi * corr_term
            - 2 * beta * J * m * m0
        )
        assert cross_model_re_rate(q, p) == pytest.approx(verbatim, abs=1e-10)

    def test_nonnegative_on_grid(self):
        betas = np.linspace(0.1, 3.0, 8)
        fields = np.linspace(-2.0, 2.0, 5)
        for beta in betas:
            q2 = Ising2DParams(beta=float(beta), J=1.0)
            p2 = MeanFieldParams(beta=float(beta), J=1.0, h=0.0, d=2)
            assert cross_model_re_rate(q2, p2) >= 0.0
            for h in fields:
                b, hh = float(beta), float(h)
                assert cross_model_re_rate(
                    MeanFieldParams(beta=b, J=1.0, h=hh), MeanFieldParams(beta=1.0, J=1.0)
                ) >= 0.0
                assert cross_model_re_rate(
                    Ising1DParams(beta=b, J=1.0, h=hh),
                    MeanFieldParams(beta=b, J=1.0, h=hh, d=1),
                ) >= 0.0
                assert cross_model_re_rate(
                    Ising1DParams(beta=b, J=1.0, h=hh), Ising1DParams(beta=1.0, J=1.0)
                ) >= 0.0

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedModelError):
            cross_model_re_rate(
                MeanFieldParams(beta=1.0), Ising1DParams(beta=1.0)
            )


class TestModelCgf:
    def test_zero_at_origin(self):
        for model in (Ising1DParams(beta=1.2, h=0.3), MeanFieldParams(beta=1.2, h=0.3)):
            assert model_cgf(model, 0.0) == 0.0

    def test_derivative_is_magnetization(self):
        for model in (
            Ising1DParams(beta=1.2, J=1.0, h=0.3),
            MeanFieldParams(beta=1.2, J=1.0, h=0.3, d=1),
        ):
            eps = 1e-5
            fd = (model_cgf(model, eps) - model_cgf(model, -eps)) / (2.0 * eps)
            assert fd == pytest.approx(magnetization(model), abs=1e-7)

    def test_second_derivative_is_variance(self):
        for model in (
            Ising1DParams(beta=1.2, J=1.0, h=0.3),
            MeanFieldParams(beta=1.2, J=1.0, h=0.3, d=1),
        ):
            eps = 1e-5
            fd = (model_cgf(model, eps) - 2.0 * model_cgf(model, 0.0) + model_cgf(model, -eps)) / eps**2
            assert fd == pytest.approx(variance_per_site(model), abs=1e-5)

    def test_meanfield_small_tilt_keeps_quadratic_term(self):
        # log cosh c = c^2/2 - c^4/12 + ...; a difference of two log(2 cosh)
        # values would round it to 0 below c ~ 1e-8.
        model = MeanFieldParams(beta=0.3, J=1.0, h=0.0)
        for c in (1e-10, -1e-10, 1e-5):
            expected = c * c / 2.0 - c**4 / 12.0
            assert model_cgf(model, c) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_2d_baseline_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            model_cgf(Ising2DParams(beta=1.0), 0.5)


class TestFiniteVolumeConsistency:
    def test_tilted_pair_attains_bound_at_every_volume(self):
        # A pure field perturbation is an exponential tilt of the
        # magnetization, so the finite-volume upper bound is attained
        # exactly, volume by volume.
        from infoscale import GibbsMeasure, LatticeVolume, finite_volume_xi
        from infoscale.gibbs import spin_observable

        for n in (6, 10):
            vol = LatticeVolume.chain(n)
            m_phi = GibbsMeasure(ising_interaction(1.3, 1.0, 0.0, 1), vol)
            m_psi = GibbsMeasure(ising_interaction(1.3, 1.0, 0.25, 1), vol)
            g = spin_observable(m_phi.interaction)
            bound = finite_volume_xi(m_psi, m_phi, g)
            totals = m_phi.site_total(g)
            gap = (m_psi.expectation(totals) - m_phi.expectation(totals)) / n
            assert bound.xi_plus == pytest.approx(gap, abs=1e-12)

    def test_finite_volume_bound_converges_to_rate_bound(self):
        # The per-site finite-volume upper bound approaches the
        # thermodynamic-limit bound assembled from the closed forms.
        from infoscale import GibbsMeasure, LatticeVolume, finite_volume_xi, model_cgf
        from infoscale.gibbs import spin_observable
        from infoscale.optimize import minimize_positive_scalar

        q_m = Ising1DParams(beta=1.3, J=1.0, h=0.25)
        p_m = Ising1DParams(beta=1.0, J=1.0, h=0.0)
        rate = cross_model_re_rate(q_m, p_m)
        _, limit_upper = minimize_positive_scalar(
            lambda c: (model_cgf(p_m, c) + rate) / c
        )
        gaps = []
        for n in (6, 10, 14):
            vol = LatticeVolume.chain(n)
            m_phi = GibbsMeasure(ising_interaction(1.0, 1.0, 0.0, 1), vol)
            m_psi = GibbsMeasure(ising_interaction(1.3, 1.0, 0.25, 1), vol)
            g = spin_observable(m_phi.interaction)
            bound = finite_volume_xi(m_psi, m_phi, g)
            base = m_phi.expectation(m_phi.site_total(g)) / n
            gaps.append(abs(base + bound.xi_plus - limit_upper))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 5e-2


class TestPhaseBoundPoint:
    def test_identical_models_collapse_to_baseline(self):
        model = MeanFieldParams(beta=1.0, J=2.0, h=0.3)
        row = phase_bound_point(model, model, 1.3, "beta")
        assert row.xi_lower == row.xi_upper == row.baseline_qoi
        assert row.re_rate == 0.0

    def test_sandwich_at_sample_points(self):
        q = Ising1DParams(beta=1.0, J=1.0, h=0.0)
        p = MeanFieldParams(beta=1.0, J=1.0, h=0.0, d=1)
        for beta in (0.4, 0.9, 1.4, 1.9):
            row = phase_bound_point(q, p, beta, "beta")
            assert row.xi_lower - 1e-9 <= row.true_qoi <= row.xi_upper + 1e-9
            assert row.true_qoi == 0.0

    def test_saturated_baseline_keeps_optimized_bounds(self):
        # The baseline's 1 - m^2 rounds to 0 here, but its CGF does not
        # vanish: the zero variance must only narrow the linearized width.
        q = MeanFieldParams(beta=10.0, J=0.1, h=0.05)
        p = MeanFieldParams(beta=10.0, J=1.0, h=3.0)
        row = phase_bound_point(q, p, 10.0, "beta")
        assert variance_per_site(p) == 0.0
        assert row.xi_lower <= row.true_qoi <= row.xi_upper
        assert row.xi_lower < 0.9
        assert row.lin_lower == row.lin_upper == row.baseline_qoi

    def test_lower_bound_stays_below_baseline_at_rounding_level_rate(self):
        # The rate rounds to ~5e-18 here; CGF rounding divided by a tiny c
        # once put xi_lower 1e-7 above the baseline.
        q = MeanFieldParams(beta=1.0, J=1.0, h=1e-300, d=2)
        p = MeanFieldParams(beta=1.0, J=1.0, h=0.0, d=2)
        row = phase_bound_point(q, p, 0.5219408856143137, "beta")
        assert row.xi_lower <= row.baseline_qoi <= row.xi_upper
        assert row.xi_upper - row.xi_lower < 1e-8

    def test_sweeping_field_of_2d_model_rejected(self):
        q = Ising2DParams(beta=1.0, J=1.0)
        p = MeanFieldParams(beta=1.0, J=1.0, d=2)
        with pytest.raises(ParameterError):
            phase_bound_point(q, p, 0.1, "h")


def _count_calls(monkeypatch, name):
    """Record each call of the module-level ``exact_models.<name>``, with an
    empty mean-field memo."""
    calls = []
    real = getattr(exact_models, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exact_models, name, counted)
    exact_models._solved.cache_clear()
    return calls


class TestSolveCounts:
    def test_meanfield_pair_solves_each_model_once_per_point(self, monkeypatch):
        solves = _count_calls(monkeypatch, "meanfield_solve")
        rows, failures = evaluate_sweep(figure_preset("2a"))
        assert failures == 0
        assert len(solves) <= 2 * len(rows)

    def test_2d_magnetization_runs_no_quadrature(self, monkeypatch):
        runs = _count_calls(monkeypatch, "adaptive_simpson")
        for beta in (0.3, 0.6):
            for branch in ("plus", "minus"):
                magnetization(Ising2DParams(beta=beta, J=1.0, branch=branch))
        assert runs == []

    def test_2d_point_runs_two_quadratures(self, monkeypatch):
        runs = _count_calls(monkeypatch, "adaptive_simpson")
        config = figure_preset("4a")
        phase_bound_point(config.model_q, config.model_p, 0.6, "beta")
        assert len(runs) == 2


_MF_BETA_C = 0.5  # beta J d = 1 at J = 1, d = 2
_BETA_OFFSETS = st.one_of(
    st.floats(-0.05, 0.05),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, -1e-10, 1e-7, -1e-7]),
)
_SMALL_FIELDS = st.one_of(
    st.floats(-1e-3, 1e-3),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-12]),
)
_MF_BRANCHES = st.sampled_from(["upper", "lower"])


# The rate is a difference of O(1) pressures, so it carries an absolute
# rounding error of about this size.
_RATE_ROUNDING = 1e-15


def _assert_sandwich(row):
    """``xi_lower <= true_qoi <= xi_upper`` up to what rounding explains.

    A field change between mean-field models is an exponential tilt, which
    attains the bound, so the sides may cross by the rounding of the
    magnetizations.  The bound is concave in the rate R, with slope about
    ``w / (2 R)`` (``w`` the linearized half width) and, for +-1 spins, at
    most ``sqrt(2 R)``; a rate error ``e`` thus moves it by at most
    ``min(sqrt(2 e), e w / R)``, which matters only where R itself is a few
    ulps, next to a critical point.
    """
    slack = 1e-12 * max(abs(row.baseline_qoi), abs(row.true_qoi))
    half_width = 0.5 * (row.lin_upper - row.lin_lower)
    from_rate = math.sqrt(2.0 * _RATE_ROUNDING)
    if row.re_rate > 0.0:
        from_rate = min(from_rate, _RATE_ROUNDING * half_width / row.re_rate)
    slack += from_rate
    assert row.xi_lower - slack <= row.true_qoi <= row.xi_upper + slack


class TestPhaseBoundProperties:
    @settings(max_examples=60, deadline=None)
    @given(offset=_BETA_OFFSETS, h_q=_SMALL_FIELDS, branch_q=_MF_BRANCHES,
           branch_p=_MF_BRANCHES)
    def test_meanfield_pair_near_critical_beta(self, offset, h_q, branch_q, branch_p):
        q = MeanFieldParams(beta=1.0, J=1.0, h=h_q, d=2, branch=branch_q)
        p = MeanFieldParams(beta=1.0, J=1.0, h=0.0, d=2, branch=branch_p)
        _assert_sandwich(phase_bound_point(q, p, _MF_BETA_C * (1.0 + offset), "beta"))

    @settings(max_examples=60, deadline=None)
    @given(h=_SMALL_FIELDS, beta_q=st.floats(0.3, 1.5), beta_p=st.floats(0.3, 1.5),
           branch_q=_MF_BRANCHES, branch_p=_MF_BRANCHES)
    def test_meanfield_pair_near_zero_field(self, h, beta_q, beta_p, branch_q, branch_p):
        q = MeanFieldParams(beta=beta_q, J=1.0, branch=branch_q)
        p = MeanFieldParams(beta=beta_p, J=1.0, branch=branch_p)
        _assert_sandwich(phase_bound_point(q, p, h, "h"))

    @settings(max_examples=60, deadline=None)
    @given(h=_SMALL_FIELDS, beta=st.floats(0.3, 2.0), branch=_MF_BRANCHES)
    def test_ising1d_meanfield_near_zero_field(self, h, beta, branch):
        q = Ising1DParams(beta=beta, J=1.0)
        p = MeanFieldParams(beta=beta, J=1.0, d=1, branch=branch)
        _assert_sandwich(phase_bound_point(q, p, h, "h"))

    @settings(max_examples=60, deadline=None)
    @given(offset=_BETA_OFFSETS, h=_SMALL_FIELDS, branch=_MF_BRANCHES)
    def test_ising1d_meanfield_near_critical_beta(self, offset, h, branch):
        # The 1-D surrogate's mean-field critical point is beta J d = 1.
        q = Ising1DParams(beta=1.0, J=1.0, h=h)
        p = MeanFieldParams(beta=1.0, J=1.0, h=h, d=1, branch=branch)
        _assert_sandwich(phase_bound_point(q, p, 1.0 + offset, "beta"))

    @settings(max_examples=40, deadline=None)
    @given(offset=_BETA_OFFSETS, branch_q=st.sampled_from(["plus", "minus"]),
           branch_p=_MF_BRANCHES, critical=st.sampled_from(["ising", "meanfield"]))
    def test_ising2d_meanfield_near_critical_beta(self, offset, branch_q, branch_p, critical):
        beta_c = ising2d_critical_beta(1.0) if critical == "ising" else _MF_BETA_C
        q = Ising2DParams(beta=1.0, J=1.0, branch=branch_q)
        p = MeanFieldParams(beta=1.0, J=1.0, d=2, branch=branch_p)
        _assert_sandwich(phase_bound_point(q, p, beta_c * (1.0 + offset), "beta"))

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(1.01, 2.0), d=st.sampled_from([1, 2]))
    def test_baseline_branches_give_opposite_magnetizations(self, beta, d):
        # Back-to-back points through the mean-field memo: a key that
        # ignored the branch would hand the lower baseline the upper root.
        q = Ising1DParams(beta=1.0, J=1.0)
        upper = phase_bound_point(q, MeanFieldParams(beta=1.0, J=1.0, d=d), beta, "beta")
        lower = phase_bound_point(
            q, MeanFieldParams(beta=1.0, J=1.0, d=d, branch="lower"), beta, "beta"
        )
        assert upper.baseline_qoi > 0.0
        assert lower.baseline_qoi == -upper.baseline_qoi
        _assert_sandwich(upper)
        _assert_sandwich(lower)
