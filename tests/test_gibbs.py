import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from conftest import assert_cgf_matches_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from infoscale import (
    DimensionError,
    EnumerationLimitError,
    GibbsMeasure,
    Interaction,
    LatticeVolume,
    Observable,
    ParameterError,
    EmpiricalCgf,
    finite_volume_xi,
    gibbs_relative_entropy,
    hamiltonian,
    ising_interaction,
    log_partition,
    relative_entropy,
    spin_product_cluster,
    triple_norm,
    triple_norm_xi,
    xi_bounds,
)
from infoscale.gibbs import (
    _energy_vector,
    _enumerated_column,
    interaction_difference,
    spin_observable,
    _logsumexp,
    gibbs_measure,
)


def random_ising_pair(rng, dimension):
    beta = float(rng.uniform(0.2, 0.8))
    phi = ising_interaction(beta, float(rng.uniform(-1, 1)), float(rng.uniform(-0.5, 0.5)), dimension)
    psi = ising_interaction(beta, float(rng.uniform(-1, 1)), float(rng.uniform(-0.5, 0.5)), dimension)
    return phi, psi


class TestClusters:
    def test_origin_required(self):
        with pytest.raises(ParameterError):
            spin_product_cluster(((1,), (2,)), 1.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            Interaction(dimension=2, clusters=(spin_product_cluster(((0,), (1,)), 1.0),))

    @pytest.mark.parametrize("coeff", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ParameterError):
            spin_product_cluster(((0,),), coeff)

    @pytest.mark.parametrize("state", [math.inf, -math.inf, math.nan])
    def test_non_finite_spin_state_rejected(self, state):
        with pytest.raises(ParameterError, match="spin states must be finite"):
            Interaction(dimension=1, clusters=(), spin_states=(state, 1.0))

    def test_sup_norm_is_coefficient_times_largest_spin_power(self):
        cluster = spin_product_cluster(((0,), (1,), (2,)), -0.5)
        assert cluster.sup_norm((-1.0, 1.0)) == 0.5
        assert cluster.sup_norm((-3.0, 0.0, 2.0)) == 0.5 * 27.0

    def test_difference_sums_coefficients_per_offset_set(self):
        # {0, 1} listed in either order is one offset set; a cluster only
        # one side has keeps its signed coefficient.
        phi = Interaction(dimension=1, clusters=(
            spin_product_cluster(((0,), (1,)), -0.75),
            spin_product_cluster(((0,),), 0.5),
        ))
        psi = Interaction(dimension=1, clusters=(
            spin_product_cluster(((1,), (0,)), -0.25),
            spin_product_cluster(((0,), (2,)), 0.125),
        ))
        diff = interaction_difference(phi, psi)
        assert [(c.offsets, c.coeff) for c in diff.clusters] == [
            (((0,),), 0.5), (((0,), (1,)), -0.5), (((0,), (2,)), -0.125),
        ]


class TestTripleNorm:
    def test_zero_interaction(self):
        assert triple_norm(Interaction(dimension=1, clusters=())) == 0.0

    def test_ising_closed_form(self):
        # beta (d |J| + |h|) for the nearest-neighbor model.
        for d in (1, 2, 3):
            phi = ising_interaction(0.7, -1.3, 0.4, d)
            assert triple_norm(phi) == pytest.approx(0.7 * (d * 1.3 + 0.4), abs=1e-12)

    def test_field_only(self):
        phi = Interaction(
            dimension=1, clusters=(spin_product_cluster(((0,),), -0.45),)
        )
        assert triple_norm(phi) == pytest.approx(0.45)

    def test_difference_merges_matching_clusters(self):
        phi = ising_interaction(0.5, 1.0, 0.2, 1)
        psi = ising_interaction(0.5, 0.6, 0.2, 1)
        # Only the bond coupling differs: ||| Phi - Psi ||| = beta |J - J'|.
        assert triple_norm(interaction_difference(phi, psi)) == pytest.approx(
            0.5 * 0.4, abs=1e-12
        )


class TestHamiltonian:
    def test_zero_interaction(self):
        zero = Interaction(dimension=1, clusters=())
        assert hamiltonian(zero, LatticeVolume.chain(3), [1, -1, 1]) == 0.0

    def test_two_site_hand_value(self):
        beta, J, h = 0.9, 1.1, 0.3
        phi = ising_interaction(beta, J, h, 1)
        energy = hamiltonian(phi, LatticeVolume.chain(2), [1.0, 1.0])
        assert energy == pytest.approx(-beta * J - 2.0 * beta * h, abs=1e-14)

    def test_spin_flip_symmetry_at_zero_field(self, rng):
        phi = ising_interaction(0.6, 1.0, 0.0, 2)
        vol = LatticeVolume.centered(2, 1)
        config = rng.choice([-1.0, 1.0], size=vol.num_sites)
        assert hamiltonian(phi, vol, config) == pytest.approx(
            hamiltonian(phi, vol, -config), abs=1e-13
        )

    def test_size_mismatch(self):
        phi = ising_interaction(0.5, 1.0, 0.0, 1)
        with pytest.raises(DimensionError):
            hamiltonian(phi, LatticeVolume.chain(3), [1.0, 1.0])


@pytest.mark.parametrize(
    "interaction, volume",
    [
        # A vertical bond would become an on-site constant on a chain.
        pytest.param(ising_interaction(0.5, 1.0, 0.2, 2), LatticeVolume.chain(5), id="2d-on-chain"),
        # Every 1-D cluster would be dropped on a 2-D box.
        pytest.param(ising_interaction(0.5, 1.0, 0.2, 1), LatticeVolume.centered(2, 1), id="1d-on-box"),
        pytest.param(Interaction(dimension=2, clusters=()), LatticeVolume.chain(5), id="empty-2d-on-chain"),
    ],
)
def test_interaction_and_volume_dimensions_must_agree(interaction, volume):
    with pytest.raises(DimensionError, match="interaction and volume dimensions differ"):
        log_partition(interaction, volume)
    with pytest.raises(DimensionError, match="interaction and volume dimensions differ"):
        hamiltonian(interaction, volume, np.ones(volume.num_sites))
    with pytest.raises(DimensionError, match="interaction and volume dimensions differ"):
        GibbsMeasure(interaction, volume)


@pytest.mark.parametrize("dimension, sites, error", [
    (1, (), ParameterError),  # used to raise a raw IndexError
    (1, ((0,), (0,)), ParameterError),  # used to count the site twice
    (1, ((0, 0), (1,)), DimensionError),  # used to pass as a chain
    (2, ((0, 0), (1,)), DimensionError),
], ids=["empty", "duplicate", "mixed-on-a-chain", "mixed-on-a-plane"])
def test_volume_sites_are_checked(dimension, sites, error):
    with pytest.raises(error):
        LatticeVolume(dimension, sites)


class TestLogPartition:
    def test_zero_interaction_counts_states(self):
        zero = Interaction(dimension=1, clusters=())
        for n in (1, 4, 9):
            assert log_partition(zero, LatticeVolume.chain(n)) == (
                pytest.approx(n * math.log(2.0), abs=1e-12)
            )

    def test_transfer_equals_enumeration(self, rng):
        # log_partition takes the transfer route on these chains; the
        # measure always enumerates.
        for n in (2, 5, 8, 12):
            beta = float(rng.uniform(0.2, 1.0))
            phi = ising_interaction(beta, float(rng.uniform(-1, 1)), float(rng.uniform(-0.6, 0.6)), 1)
            vol = LatticeVolume.chain(n)
            assert log_partition(phi, vol) == pytest.approx(
                GibbsMeasure(phi, vol).log_partition, abs=1e-10
            )

    def test_transfer_takes_reversed_pairs_and_other_spins(self):
        # A pair listed as {1, 0}, and spin states other than +-1, still go
        # through the transfer matrix and agree with enumeration.
        phi = Interaction(
            dimension=1,
            clusters=(
                spin_product_cluster(((1,), (0,)), -0.4),
                spin_product_cluster(((0,),), 0.25),
            ),
            spin_states=(-1.0, 0.0, 2.0),
        )
        vol = LatticeVolume.chain(6)
        assert log_partition(phi, vol) == pytest.approx(
            GibbsMeasure(phi, vol).log_partition, abs=1e-10
        )

    @pytest.mark.parametrize("coeff", [-800.0, 800.0])
    def test_strong_pair_coupling_on_the_transfer_route(self, coeff):
        # exp(800) overflows: the transfer matrix used to hold inf and the
        # result was nan.  Either sign has two ground states of energy
        # -29 * 800 on 30 sites; any other configuration weighs e^-1600 less.
        phi = Interaction(dimension=1, clusters=(spin_product_cluster(((0,), (1,)), coeff),))
        value = log_partition(phi, LatticeVolume.chain(30))
        assert value == pytest.approx(29.0 * 800.0 + math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("pair", [-300.0, 300.0])
    @pytest.mark.parametrize("field", [-300.0, 300.0])
    def test_strong_couplings_match_enumeration(self, pair, field):
        phi = Interaction(
            dimension=1,
            clusters=(
                spin_product_cluster(((0,), (1,)), pair),
                spin_product_cluster(((0,),), field),
            ),
        )
        vol = LatticeVolume.chain(12)
        assert log_partition(phi, vol) == pytest.approx(
            GibbsMeasure(phi, vol).log_partition, rel=1e-14
        )

    @pytest.mark.parametrize("pair, field", [(1e308, 1e308), (-1e308, 0.0)])
    def test_overflowing_hamiltonian_raises_on_both_routes(self, pair, field):
        # (1e308, 1e308): an exponent -bond - field overflows.  (-1e308, 0):
        # every exponent is finite but log Z = 2e308 is not.  Enumeration
        # raises on the same coefficients.
        phi = Interaction(
            dimension=1,
            clusters=(
                spin_product_cluster(((0,), (1,)), pair),
                spin_product_cluster(((0,),), field),
            ),
        )
        vol = LatticeVolume.chain(3)
        with pytest.raises(ParameterError, match="the Hamiltonian leaves the float range"):
            log_partition(phi, vol)
        with pytest.raises(ParameterError, match="the Hamiltonian leaves the float range"):
            GibbsMeasure(phi, vol)

    @pytest.mark.parametrize("length", [1_000, 10_000])
    def test_long_chains_match_a_60_digit_matrix_power(self, rng, length):
        # Z = u . T^(L-1) . 1 for +-1 spins, with u(s) = e^{h s} and
        # T(s, s') = e^{J s s' + h s'}, raised to the power in 60 digits.
        for _ in range(3):
            beta = float(rng.uniform(0.2, 1.0))
            J, h = float(rng.uniform(-1, 1)), float(rng.uniform(-0.6, 0.6))
            phi = ising_interaction(beta, J, h, 1)
            with mpmath.workdps(60):
                bj, bh = mpmath.mpf(beta * J), mpmath.mpf(beta * h)
                spins = (-1, 1)
                transfer = mpmath.matrix([[mpmath.exp(bj * s * t + bh * t) for t in spins] for s in spins])
                power = transfer ** (length - 1)
                z = mpmath.fsum(mpmath.exp(bh * s) * power[i, j]
                                for i, s in enumerate(spins) for j in range(2))
                want = float(mpmath.log(z))
            assert log_partition(phi, LatticeVolume.chain(length)) == pytest.approx(want, rel=1e-12)

    def test_per_site_approximates_pressure(self):
        # Free-boundary finite-size error at N = 12 stays within 5e-2 for
        # moderate couplings.
        from infoscale import Ising1DParams, ising1d_quantities

        beta, J, h = 0.5, 1.0, 0.3
        phi = ising_interaction(beta, J, h, 1)
        per_site = log_partition(phi, LatticeVolume.chain(12)) / 12.0
        exact = ising1d_quantities(Ising1DParams(beta=beta, J=J, h=h)).pressure
        assert abs(per_site - exact) < 5e-2

    def test_enumeration_cap(self):
        # 2^25 configurations hit the cap on a 5x5 box and in an enumerated
        # measure; the block transfer takes a next-nearest chain of 25 sites.
        phi = ising_interaction(0.5, 1.0, 0.0, 1)
        longer = Interaction(
            dimension=1,
            clusters=phi.clusters + (spin_product_cluster(((0,), (2,)), -0.1),),
        )
        with pytest.raises(EnumerationLimitError):
            log_partition(ising_interaction(0.5, 1.0, 0.0, 2), LatticeVolume.centered(2, 2))
        with pytest.raises(EnumerationLimitError):
            GibbsMeasure(phi, LatticeVolume.chain(25))
        assert math.isfinite(log_partition(longer, LatticeVolume.chain(25)))
        assert GibbsMeasure(phi, LatticeVolume.chain(20)).weights.size == 2**20


def _field_and_next_nearest(k):
    """A unit field (coefficient -1) and a next-nearest coupling k on a chain."""
    return Interaction(dimension=1, clusters=(
        spin_product_cluster(((0,), (2,)), k),
        spin_product_cluster(((0,),), -1.0),
    ))


class TestGibbsRelativeEntropy:
    def test_same_interaction_gives_zero(self):
        phi = ising_interaction(0.5, 1.0, 0.2, 1)
        m = GibbsMeasure(phi, LatticeVolume.chain(5))
        assert gibbs_relative_entropy(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_matches_generic_kl(self, rng):
        # The plain KL of the two enumerated laws, on a chain and a 3x3 box,
        # with two and with three spin states.
        for vol in (LatticeVolume.chain(6), LatticeVolume.centered(2, 1)):
            for spins in ((-1.0, 1.0), (-1.0, 0.5, 2.0)):
                for _ in range(10):
                    phi, psi = (
                        Interaction(vol.dimension, m.clusters, spins)
                        for m in random_ising_pair(rng, vol.dimension)
                    )
                    m_phi, m_psi = GibbsMeasure(phi, vol), GibbsMeasure(psi, vol)
                    generic = relative_entropy(m_psi.distribution(), m_phi.distribution())
                    assert gibbs_relative_entropy(m_psi, m_phi) == pytest.approx(
                        generic, abs=1e-10
                    )

    def test_triple_norm_inequalities(self, rng):
        # (1/N) R <= 2 |||Phi - Psi||| and |log Z gap| <= N |||Phi - Psi|||.
        for dimension, volume in ((1, LatticeVolume.chain(8)), (2, LatticeVolume.centered(2, 1))):
            for _ in range(25):
                phi, psi = random_ising_pair(rng, dimension)
                gap_norm = triple_norm(interaction_difference(phi, psi))
                m_phi, m_psi = GibbsMeasure(phi, volume), GibbsMeasure(psi, volume)
                n = volume.num_sites
                assert abs(m_phi.log_partition - m_psi.log_partition) <= n * gap_norm + 1e-10
                assert gibbs_relative_entropy(m_phi, m_psi) / n <= 2.0 * gap_norm + 1e-10

    def test_rounding_level_entropy_against_mpmath(self):
        # A -1e-8 next-nearest coupling on 5 sites: R is about 1.2e-16, where
        # log Z^Phi - log Z^Psi + E_Psi(H^Phi - H^Psi) once gave 7.0e-17.
        # The oracle runs on the exact Hamiltonians; the float energies carry
        # a relative error of about 1e-8 in the coupling term.
        phi, psi = _field_and_next_nearest(-1e-8), _field_and_next_nearest(0.0)
        vol = LatticeVolume.chain(5)
        got = gibbs_relative_entropy(GibbsMeasure(psi, vol), GibbsMeasure(phi, vol))
        with mpmath.workdps(50):
            configs = list(itertools.product((-1, 1), repeat=5))
            h_phi = [mpmath.mpf(-1e-8) * sum(s[x] * s[x + 2] for x in range(3)) - sum(s)
                     for s in configs]
            h_psi = [-mpmath.mpf(sum(s)) for s in configs]
            z_phi = mpmath.fsum(mpmath.exp(-h) for h in h_phi)
            z_psi = mpmath.fsum(mpmath.exp(-h) for h in h_psi)
            want = mpmath.log(z_phi / z_psi) + mpmath.fsum(
                mpmath.exp(-b) * (a - b) for a, b in zip(h_phi, h_psi)
            ) / z_psi
        assert got == pytest.approx(float(want), rel=1e-6, abs=0.0)

    def test_offset_spin_states_against_mpmath(self):
        # Spins 100 and 101 on a 10-site chain: each step of D = H^Psi -
        # H^Phi is about 0.1 with a spread of 1e-3, so a tail pass about the
        # raw D started at -0.9 and summed terms of order 1 for R of about
        # 1e-6 (1.1e-10 relative off).  The float energies carry about 2e-12.
        spins = (100.0, 101.0)

        def chain(h):
            clusters = (spin_product_cluster(((0,), (1,)), 1e-3), spin_product_cluster(((0,),), h))
            return Interaction(1, clusters, spins)

        vol = LatticeVolume.chain(10)
        m_psi, m_phi = gibbs_measure(chain(0.021), vol), gibbs_measure(chain(0.02), vol)
        assert m_psi._transfer.steps == 9
        with mpmath.workdps(50):
            configs = [[mpmath.mpf(x) for x in s] for s in itertools.product(spins, repeat=10)]

            def energies(h):
                return [mpmath.mpf(1e-3) * mpmath.fsum(a * b for a, b in zip(s, s[1:]))
                        + mpmath.mpf(h) * mpmath.fsum(s) for s in configs]

            h_psi, h_phi = energies(0.021), energies(0.02)
            low = min(h_psi)
            w_psi = [mpmath.exp(low - h) for h in h_psi]
            d = [a - b for a, b in zip(h_psi, h_phi)]
            mean = mpmath.fsum(w * x for w, x in zip(w_psi, d)) / mpmath.fsum(w_psi)
            want = mpmath.log(mpmath.fsum(w * mpmath.exp(x - mean) for w, x in zip(w_psi, d))
                              / mpmath.fsum(w_psi))
        assert gibbs_relative_entropy(m_psi, m_phi) == pytest.approx(float(want), rel=2e-11, abs=0.0)

    def test_volume_mismatch(self):
        phi = ising_interaction(0.5, 1.0, 0.0, 1)
        a = GibbsMeasure(phi, LatticeVolume.chain(4))
        b = GibbsMeasure(phi, LatticeVolume.chain(5))
        with pytest.raises(DimensionError):
            gibbs_relative_entropy(a, b)


class TestFiniteVolumeXi:
    def test_same_interaction_gives_zero(self):
        phi = ising_interaction(0.5, 1.0, 0.2, 1)
        m = GibbsMeasure(phi, LatticeVolume.chain(5))
        bound = finite_volume_xi(m, m, spin_observable(phi))
        assert bound.xi_plus == 0.0 and bound.xi_minus == 0.0

    def test_sandwich_by_enumeration(self, rng):
        for _ in range(10):
            phi, psi = random_ising_pair(rng, 1)
            vol = LatticeVolume.chain(8)
            m_phi, m_psi = GibbsMeasure(phi, vol), GibbsMeasure(psi, vol)
            g = spin_observable(phi)
            bound = finite_volume_xi(m_psi, m_phi, g)
            totals = m_phi.site_total(g)
            gap = (m_psi.expectation(totals) - m_phi.expectation(totals)) / 8.0
            assert bound.xi_minus - 1e-9 <= gap <= bound.xi_plus + 1e-9

    def test_cross_module_consistency(self, rng):
        # The Gibbs bound equals the generic empirical-CGF bound of the
        # renormalized enumerated measures, with the relative entropy summed
        # over configurations instead of taken from the log-partitions.
        phi, psi = random_ising_pair(rng, 1)
        vol = LatticeVolume.chain(6)
        m_phi, m_psi = GibbsMeasure(phi, vol), GibbsMeasure(psi, vol)
        g = spin_observable(phi)
        bound = finite_volume_xi(m_psi, m_phi, g)
        generic = xi_bounds(
            EmpiricalCgf(m_phi.distribution(), Observable(m_phi.site_total(g))),
            relative_entropy(m_psi.distribution(), m_phi.distribution()),
        )
        assert bound.xi_plus == pytest.approx(generic.xi_plus / 6.0, abs=1e-8)
        assert bound.xi_minus == pytest.approx(generic.xi_minus / 6.0, abs=1e-8)

    def test_tilted_partition_identity(self, rng):
        # The tilted sums over the enumerated energies agree with
        # log_partition of Phi - c Gamma, here Phi plus a field cluster -c
        # for g(s) = s, and so does the CGF the bounds use:
        # K(c) = log Z(Phi - c Gamma) - log Z(Phi) - c E(sum g).
        phi, _ = random_ising_pair(rng, 1)
        vol = LatticeVolume.chain(6)
        m = GibbsMeasure(phi, vol)
        g = spin_observable(phi)
        totals = m.site_total(g)
        cgf = m.site_total_cgf(g)
        for c in (-1.3, 0.41, 2.0):
            direct = _logsumexp(-m.energies + c * totals)
            tilted = Interaction(
                dimension=1, clusters=phi.clusters + (spin_product_cluster([(0,)], -c),)
            )
            via_interaction = log_partition(tilted, vol)
            assert direct == pytest.approx(via_interaction, abs=1e-10)
            want = via_interaction - m.log_partition - c * m.expectation(totals)
            assert cgf.evaluate(c)[0] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_constant_observable_gives_exact_zero(self):
        # A constant g has a constant site total, so both bounds are exactly
        # (0, 0) rather than +-R / cap from an optimization at the cap.
        phi = ising_interaction(0.7, 1.0, 0.3, 1)
        psi = ising_interaction(0.7, 0.4, -0.2, 1)
        vol = LatticeVolume.chain(9)
        m_phi, m_psi = GibbsMeasure(phi, vol), GibbsMeasure(psi, vol)
        for g in ([1.0, 1.0], [-0.3, -0.3], [1e-3, 1e-3]):
            for b in (finite_volume_xi(m_psi, m_phi, g), triple_norm_xi(m_phi, psi, g)):
                assert (b.xi_plus, b.xi_minus) == (0.0, 0.0)

    @pytest.mark.parametrize("field", [50.0, 100.0])
    def test_underflowed_weights_keep_the_sandwich(self, field):
        # A field of +-50 or +-100 on 8 sites puts some configurations of Phi
        # below e^-745, where their weights underflow to 0.  Psi has the
        # opposite field, so its mass sits on exactly those configurations
        # and the gap is -2 per site; the bound at c -> inf must still see
        # them.
        vol = LatticeVolume.chain(8)
        phi = ising_interaction(1.0, 0.3, field, 1)
        psi = ising_interaction(1.0, 0.3, -field, 1)
        m_phi = GibbsMeasure(phi, vol)
        assert (m_phi.weights == 0.0).any()
        loose = _assert_gibbs_sandwich(phi, psi, vol)
        assert loose.xi_minus <= -2.0


class TestMergedSiteTotalCgf:
    def test_one_atom_per_distinct_total(self):
        # The +-1 site total of 12 sites takes 13 values over 4096
        # configurations; K over those atoms matches K over every
        # configuration.
        phi = ising_interaction(0.4, 1.0, 0.1, 1)
        m = GibbsMeasure(phi, LatticeVolume.chain(12))
        g = spin_observable(phi)
        cgf = m.site_total_cgf(g)
        assert cgf._centered.size == 13
        assert_cgf_matches_oracle(cgf, m.weights, m.site_total(g))

    def test_site_totals_follow_the_state_indices(self):
        # Several g on one measure, the first one asked for again at the end;
        # configurations run in itertools.product order of the state indices.
        m = GibbsMeasure(ising_interaction(0.5, 1.0, 0.2, 1), LatticeVolume.chain(5))
        for g in ([-1.0, 1.0], [0.0, 1.0], [0.3, -1.1], [-1.0, 1.0]):
            want = [sum(g[s] for s in row) for row in itertools.product(range(2), repeat=5)]
            np.testing.assert_array_equal(m.site_total(g), want)

    def test_linearized_variance_matches_configuration_sum(self, rng):
        # Both bounds carry the leading-order half width of their budget,
        # with Var(sum g) summed over the configurations: the exact R gives
        # sqrt(Var/N) sqrt(2R/N), the triple-norm gap 2 sqrt(Var/N) sqrt(gap).
        phi, psi = random_ising_pair(rng, 1)
        vol = LatticeVolume.chain(9)
        m_phi, m_psi = GibbsMeasure(phi, vol), GibbsMeasure(psi, vol)
        g = [0.3, -1.1]
        totals = m_phi.site_total(g)
        var = m_phi.expectation((totals - m_phi.expectation(totals)) ** 2)
        r = gibbs_relative_entropy(m_psi, m_phi)
        gap = triple_norm(interaction_difference(phi, psi))
        got = finite_volume_xi(m_psi, m_phi, g).linearized_half_width
        assert got == pytest.approx(math.sqrt(var / 9) * math.sqrt(2 * r / 9), rel=1e-12)
        got = triple_norm_xi(m_phi, psi, g).linearized_half_width
        assert got == pytest.approx(2 * math.sqrt(var / 9) * math.sqrt(gap), rel=1e-12)

    def test_one_cgf_per_g(self):
        # Both bounds and site_total read one CGF per g; a second g gets its own.
        phi, psi = ising_interaction(0.5, 1.0, 0.2, 1), ising_interaction(0.5, 0.8, 0.1, 1)
        vol = LatticeVolume.chain(6)
        m_phi, m_psi = GibbsMeasure(phi, vol), GibbsMeasure(psi, vol)
        cgf = m_phi.site_total_cgf([-1.0, 1.0])
        assert m_phi.site_total_cgf(np.array([-1.0, 1.0])) is cgf
        assert m_phi.site_total([-1.0, 1.0]) is cgf.observable.values
        assert not cgf.observable.values.flags.writeable
        assert m_phi.site_total_cgf([0.0, 1.0]) is not cgf
        finite_volume_xi(m_psi, m_phi, [-1.0, 1.0])
        triple_norm_xi(m_phi, psi, [-1.0, 1.0])
        assert len(m_phi._site_total_cgfs) == 2


class TestTripleNormXi:
    def test_same_interaction_gives_zero(self):
        phi = ising_interaction(0.5, 1.0, 0.2, 1)
        m = GibbsMeasure(phi, LatticeVolume.chain(5))
        bound = triple_norm_xi(m, phi, spin_observable(phi))
        assert bound.xi_plus == 0.0 and bound.xi_minus == 0.0

    def test_contains_exact_interval(self, rng):
        for _ in range(10):
            phi, psi = random_ising_pair(rng, 1)
            vol = LatticeVolume.chain(7)
            m_phi, m_psi = GibbsMeasure(phi, vol), GibbsMeasure(psi, vol)
            g = spin_observable(phi)
            exact = finite_volume_xi(m_psi, m_phi, g)
            loose = triple_norm_xi(m_phi, psi, g)
            assert loose.xi_plus >= exact.xi_plus - 1e-10
            assert loose.xi_minus <= exact.xi_minus + 1e-10

    def test_width_scales_like_sqrt_field_gap(self):
        # For a pure field perturbation the surrogate entropy is linear in
        # |dh|, so the interval width scales like sqrt(beta |dh|).
        beta = 0.5
        phi = ising_interaction(beta, 1.0, 0.0, 1)
        vol = LatticeVolume.chain(8)
        m_phi = GibbsMeasure(phi, vol)
        g = spin_observable(phi)

        def width(dh):
            psi = ising_interaction(beta, 1.0, dh, 1)
            b = triple_norm_xi(m_phi, psi, g)
            return b.xi_plus - b.xi_minus

        ratio = width(0.04) / width(0.01)
        assert ratio == pytest.approx(2.0, abs=0.35)


class TestLinearizedGibbs:
    def test_zero_entropy(self):
        phi = ising_interaction(0.5, 1.0, 0.0, 1)
        m = GibbsMeasure(phi, LatticeVolume.chain(6))
        g = spin_observable(phi)
        assert finite_volume_xi(m, m, g).linearized_half_width == 0.0
        assert triple_norm_xi(m, phi, g).linearized_half_width == 0.0

    def test_variance_close_to_susceptibility_form(self):
        # At h = 0 the infinite-volume per-site variance is e^{2 J beta}; the
        # free-boundary N = 10 enumeration sits within 10% at beta = 0.3.
        beta = 0.3
        phi = ising_interaction(beta, 1.0, 0.0, 1)
        m = GibbsMeasure(phi, LatticeVolume.chain(10))
        totals = m.site_total(spin_observable(phi))
        mean = m.expectation(totals)
        var_per_site = m.expectation((totals - mean) ** 2) / 10.0
        assert var_per_site == pytest.approx(math.exp(2.0 * beta), rel=0.10)

    def test_tracks_exact_width_for_small_entropy(self, rng):
        # The linearized half width approaches half the exact interval width
        # as the perturbation shrinks; for large perturbations it overshoots
        # (the crossover the sweep records).
        beta = 0.5
        phi = ising_interaction(beta, 1.0, 0.0, 1)
        vol = LatticeVolume.chain(8)
        m_phi = GibbsMeasure(phi, vol)
        g = spin_observable(phi)

        def widths(dh):
            psi = ising_interaction(beta, 1.0, dh, 1)
            exact = finite_volume_xi(GibbsMeasure(psi, vol), m_phi, g)
            return exact.xi_plus - exact.xi_minus, 2.0 * exact.linearized_half_width

        exact_w, lin_w = widths(0.005)
        assert lin_w == pytest.approx(exact_w, rel=0.05)
        exact_w_big, lin_w_big = widths(1.5)
        assert lin_w_big > exact_w_big


_SQUARE_2X2 = LatticeVolume(dimension=2, sites=tuple(itertools.product(range(2), repeat=2)))


class TestSymmetryAndOrdering:
    def test_zero_field_magnetization_vanishes(self):
        # Spin-flip symmetry makes the finite-volume magnetization exactly 0.
        for interaction, volume in (
            (ising_interaction(0.6, 1.0, 0.0, 1), LatticeVolume.chain(7)),
            (ising_interaction(0.5, 1.0, 0.0, 2), LatticeVolume.centered(2, 1)),
        ):
            m = GibbsMeasure(interaction, volume)
            mag = m.expectation(m.site_total(spin_observable(interaction)))
            assert mag == pytest.approx(0.0, abs=1e-12)

    def test_configuration_order_is_lexicographic(self):
        # Energies and weights follow itertools.product over the spin states,
        # the first site slowest.  The {0, 1, 3} cluster has one instance on
        # four sites and is not mirror-symmetric, so the reversed order fails.
        spins = (-1.0, 0.5, 2.0)
        interaction = Interaction(dimension=1, clusters=(
            spin_product_cluster(((0,), (1,)), -0.4),
            spin_product_cluster(((0,), (1,), (3,)), 0.3),
            spin_product_cluster(((0,),), -0.2),
        ), spin_states=spins)
        m = GibbsMeasure(interaction, LatticeVolume.chain(4))
        configs = list(itertools.product(spins, repeat=4))
        energies = [hamiltonian(interaction, m.volume, config) for config in configs]
        np.testing.assert_array_equal(m.energies, energies)
        reversed_order = [hamiltonian(interaction, m.volume, config[::-1]) for config in configs]
        assert not np.array_equal(m.energies, reversed_order)
        weights = np.exp(-np.array(energies) - m.log_partition)
        np.testing.assert_allclose(m.weights, weights / weights.sum(), rtol=1e-14)

    def test_state_indices_are_built_on_first_access(self):
        # No state-index array is built at all: a measure holds its weights
        # and its one-block transfer, whose log weights are the negated
        # energies in itertools.product order, and the CGF memo.
        spins = (-1.0, 0.5, 2.0)
        interaction = Interaction(
            dimension=1, clusters=(spin_product_cluster(((0,), (1,)), -0.4),), spin_states=spins
        )
        m = GibbsMeasure(interaction, LatticeVolume.chain(4))
        assert set(vars(m)) == {
            "interaction", "volume", "log_partition", "weights", "_transfer", "_site_total_cgfs",
        }
        assert m._transfer.steps == 0 and m._transfer.exponents.size == 0
        np.testing.assert_array_equal(m.energies, -m._transfer.log_start)
        configs = itertools.product(spins, repeat=4)
        energies = [hamiltonian(interaction, m.volume, config) for config in configs]
        np.testing.assert_array_equal(m.energies, energies)

    @pytest.mark.parametrize("states, sites", [(2, 1), (2, 6), (3, 4), (4, 3)])
    def test_state_indices_follow_itertools_product(self, states, sites):
        # Each site's column over the configurations, the layout behind the
        # energies and the site totals, is that site's digit in product order.
        want = np.array(list(itertools.product(range(states), repeat=sites)))
        for site in range(sites):
            column = _enumerated_column(np.arange(states), sites, site)
            np.testing.assert_array_equal(column, want[:, site])

    @pytest.mark.parametrize("spins, volume", [
        ((-1.0, 1.0), LatticeVolume.centered(2, 1)),
        ((-1.0, 0.5, 2.0), _SQUARE_2X2),
    ], ids=["pm1-3x3", "three-states-2x2"])
    def test_energy_vector_equals_hamiltonian(self, spins, volume):
        # Nearest and diagonal pairs, a three-spin corner and a field, with
        # the same products in the same order as the per-configuration loop.
        clusters = [spin_product_cluster(offs, k) for offs, k in (
            (((0, 0), (1, 0)), -0.7), (((0, 0), (0, 1)), 0.4),
            (((0, 0), (1, 1)), -0.3), (((0, 0), (1, -1)), 0.25),
            (((0, 0), (1, 0), (0, 1)), 0.15), (((0, 0),), -0.2),
        )]
        interaction = Interaction(dimension=2, clusters=tuple(clusters), spin_states=spins)
        energies = _energy_vector(interaction, volume)
        configs = itertools.product(spins, repeat=volume.num_sites)
        want = [hamiltonian(interaction, volume, config) for config in configs]
        np.testing.assert_array_equal(energies, want)


# Cluster offsets per dimension: nearest-neighbour pairs, next-nearest pairs.
_NEAREST = {1: [((0,), (1,))], 2: [((0, 0), (1, 0)), ((0, 0), (0, 1))]}
_NEXT_NEAREST = {1: [((0,), (2,))], 2: [((0, 0), (1, 1)), ((0, 0), (1, -1))]}


def _random_interaction(draw, d):
    """Pair couplings J, next-nearest couplings K and a field h (beta included)."""
    origin = (0,) * d
    clusters = [spin_product_cluster(offs, -draw(st.floats(-1.5, 1.5))) for offs in _NEAREST[d]]
    clusters += [spin_product_cluster(offs, -draw(st.floats(-0.8, 0.8))) for offs in _NEXT_NEAREST[d]]
    clusters.append(spin_product_cluster((origin,), -draw(st.floats(-1.0, 1.0))))
    return Interaction(dimension=d, clusters=tuple(clusters))


@st.composite
def _gibbs_pairs(draw):
    """(Phi, Psi, volume) on a chain of 4 to 8 sites or a 2x2 square."""
    d = draw(st.sampled_from([1, 2]))
    volume = LatticeVolume.chain(draw(st.integers(4, 8))) if d == 1 else _SQUARE_2X2
    return _random_interaction(draw, d), _random_interaction(draw, d), volume


def _assert_gibbs_sandwich(phi, psi, volume):
    """The exact per-site gap lies inside the finite-volume interval and
    inside the triple-norm interval; returns the triple-norm bound."""
    m_phi, m_psi = GibbsMeasure(phi, volume), GibbsMeasure(psi, volume)
    g = spin_observable(phi)
    totals = m_phi.site_total(g)
    gap = (m_psi.expectation(totals) - m_phi.expectation(totals)) / volume.num_sites
    loose = triple_norm_xi(m_phi, psi, g)
    for b in (finite_volume_xi(m_psi, m_phi, g), loose):
        assert b.xi_minus - 1e-10 <= gap <= b.xi_plus + 1e-10
    return loose


class TestGibbsSandwichProperties:
    @settings(max_examples=100, deadline=None)
    @given(pair=_gibbs_pairs())
    def test_random_volumes(self, pair):
        _assert_gibbs_sandwich(*pair)

    def test_rounding_level_entropy(self):
        # Gap and bound half widths are about 4e-9 here; R of 1.2e-16 read as
        # rounding noise put the gap outside the finite-volume interval.
        _assert_gibbs_sandwich(
            _field_and_next_nearest(-1e-8), _field_and_next_nearest(0.0), LatticeVolume.chain(5)
        )

    def test_tiny_budget_keeps_the_sign(self):
        # Psi drops a 1e-130 next-nearest coupling, so the surrogate budget is
        # about 1e-129 and the optimum is near c = 0, where the CGF must not
        # round below 0 and push the interval off the zero gap.  The interval
        # itself is zero up to rounding.
        def interaction(k):
            return Interaction(dimension=1, clusters=(
                spin_product_cluster(((0,), (2,)), k),
                spin_product_cluster(((0,),), 1.0),
            ))

        loose = _assert_gibbs_sandwich(
            interaction(1e-130), interaction(0.0), LatticeVolume.chain(4)
        )
        assert abs(loose.xi_plus) <= 1e-12 and abs(loose.xi_minus) <= 1e-12

    def test_triple_norm_bound_at_the_cap(self):
        # 2 N |||Phi - Psi||| = 7.2 exceeds -log mu(all +1) = 2.9 and
        # -log mu(all -1) = 3.7, so both optima of the surrogate bound are at
        # c -> inf.
        phi = ising_interaction(1.0, 0.4, 0.05, 1)
        psi = ising_interaction(1.0, 0.6, 0.3, 1)
        loose = _assert_gibbs_sandwich(phi, psi, LatticeVolume.chain(8))
        assert loose.c_star_plus == loose.c_star_minus == 1e12
