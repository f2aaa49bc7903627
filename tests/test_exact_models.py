import math

import numpy as np
import pytest

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

    def test_sweeping_field_of_2d_model_rejected(self):
        q = Ising2DParams(beta=1.0, J=1.0)
        p = MeanFieldParams(beta=1.0, J=1.0, d=2)
        with pytest.raises(ParameterError):
            phase_bound_point(q, p, 0.1, "h")
