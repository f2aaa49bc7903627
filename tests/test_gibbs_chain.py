"""The transfer route for Gibbs chains against enumeration, closed forms and the CLI.

A :class:`ChainGibbsMeasure` takes any finite-range interaction on a
contiguous chain through a block transfer; the enumerated
:class:`GibbsMeasure` is its oracle wherever both run.
"""

import json
import math

import numpy as np
import pytest

from infoscale import (
    DimensionError,
    GibbsMeasure,
    Interaction,
    LatticeVolume,
    ParameterError,
    finite_volume_xi,
    gibbs_relative_entropy,
    ising_interaction,
    log_partition,
    spin_product_cluster,
    triple_norm_xi,
)
from infoscale.exact_models import ising1d_pressure_tilted
from infoscale.gibbs import ChainGibbsMeasure, gibbs_measure

# Cluster offset sets by range: a field, pairs at distance 1 to 3 (one
# listed as {-1, 0}), and a three-spin product over range 3.
_OFFSETS = {
    0: [((0,),)],
    1: [((0,),), ((-1,), (0,))],
    2: [((0,),), ((0,), (1,)), ((0,), (2,))],
    3: [((0,),), ((0,), (1,)), ((0,), (3,)), ((0,), (1,), (3,))],
}
_SPINS = {2: (-1.0, 1.0), 3: (-1.0, 0.5, 2.0)}


def _random_pair(rng, spread, q, psi_spread=None):
    """Phi with the clusters of ``_OFFSETS[spread]`` and Psi with those of
    ``_OFFSETS[psi_spread]`` (by default the same), independent coefficients
    in [-0.6, 0.6]."""
    def draw(spread):
        clusters = tuple(
            spin_product_cluster(offsets, float(rng.uniform(-0.6, 0.6)))
            for offsets in _OFFSETS[spread]
        )
        return Interaction(dimension=1, clusters=clusters, spin_states=_SPINS[q])

    return draw(spread), draw(spread if psi_spread is None else psi_spread)


def _next_nearest_and_field(k):
    """A next-nearest coupling k and a unit field (coefficient -1) on a chain."""
    return Interaction(dimension=1, clusters=(
        spin_product_cluster(((0,), (2,)), k),
        spin_product_cluster(((0,),), -1.0),
    ))


def _assert_sandwich(m_psi, m_phi):
    """The exact per-site magnetization gap lies in the finite-volume interval."""
    g = [-1.0, 1.0]
    gap = (m_psi.site_total_cgf(g).mean - m_phi.site_total_cgf(g).mean) / m_phi.num_sites
    bound = finite_volume_xi(m_psi, m_phi, g)
    assert bound.xi_minus <= gap <= bound.xi_plus


def _cases():
    # Two-state chains from 1 to 14 sites, three-state ones to 8 (3^8
    # configurations), each at every range; L <= range included.  Psi takes
    # Phi's range and, in a second draw, the next one (range 3 against 0).
    for q, lengths in ((2, range(1, 15)), (3, range(1, 9))):
        for length in lengths:
            for spread in _OFFSETS:
                yield q, length, spread, spread
                yield q, length, spread, (spread + 1) % len(_OFFSETS)


def _both_routes(rng, q, length, spread, psi_spread=None):
    phi, psi = _random_pair(rng, spread, q, psi_spread)
    volume = LatticeVolume.chain(length)
    enumerated = GibbsMeasure(phi, volume), GibbsMeasure(psi, volume)
    chain = ChainGibbsMeasure(phi, volume), ChainGibbsMeasure(psi, volume)
    return psi, enumerated, chain


def _report(psi, measures, g):
    m_phi, m_psi = measures
    bound = finite_volume_xi(m_psi, m_phi, g)
    loose = triple_norm_xi(m_phi, psi, g)
    return {
        "log_partition_phi": m_phi.log_partition,
        "log_partition_psi": m_psi.log_partition,
        "relative_entropy": gibbs_relative_entropy(m_psi, m_phi),
        "xi_plus": bound.xi_plus,
        "xi_minus": bound.xi_minus,
        "linearized": bound.linearized_half_width,
        "triple_xi_plus": loose.xi_plus,
        "triple_xi_minus": loose.xi_minus,
        "linearized_triple": loose.linearized_half_width,
        "mean_phi": m_phi.site_total_cgf(g).mean,
        "mean_psi": m_psi.site_total_cgf(g).mean,
    }


class TestAgainstEnumeration:
    def test_random_interactions(self, rng):
        # Within 1e-12 relative; a bound near 0 is a difference of site
        # totals per site, of order 1 here, so it keeps 1e-14 absolute.
        for q, length, spread, psi_spread in _cases():
            psi, enumerated, chain = _both_routes(rng, q, length, spread, psi_spread)
            g = rng.uniform(-1.0, 1.0, q)
            want, got = _report(psi, enumerated, g), _report(psi, chain, g)
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-14), (
                    q, length, spread, psi_spread, key
                )

    def test_rounding_level_entropy(self):
        # A -1e-8 next-nearest coupling on 5 sites: R is about 1.2e-16, below
        # the rounding of log Z^Phi - log Z^Psi - E_Psi(D).  Enumeration
        # matches a 50-digit oracle here (test_gibbs).
        phi, psi = (_next_nearest_and_field(k) for k in (-1e-8, 0.0))
        volume = LatticeVolume.chain(5)
        want = gibbs_relative_entropy(GibbsMeasure(psi, volume), GibbsMeasure(phi, volume))
        m_phi, m_psi = ChainGibbsMeasure(phi, volume), ChainGibbsMeasure(psi, volume)
        assert gibbs_relative_entropy(m_psi, m_phi) == pytest.approx(want, rel=1e-6)
        _assert_sandwich(m_psi, m_phi)

    def test_small_entropy_on_a_long_chain_scales_as_a_square(self):
        # Past enumeration: for a coupling change k, R = k^2 Var(sum s_x s_(x+2)) / 2
        # + O(k^3), so a tenfold smaller k gives a hundredfold smaller R.
        volume = LatticeVolume.chain(1_000)
        psi = ChainGibbsMeasure(_next_nearest_and_field(0.0), volume)
        r = []
        for k in (1e-5, 1e-6):
            phi = ChainGibbsMeasure(_next_nearest_and_field(k), volume)
            r.append(gibbs_relative_entropy(psi, phi))
            _assert_sandwich(psi, phi)
        assert r[0] / r[1] == pytest.approx(100.0, rel=1e-4)

    def test_magnetization_law_has_one_atom_per_count(self, rng):
        psi, enumerated, chain = _both_routes(rng, 2, 9, 2)
        g = np.array([-1.0, 1.0])
        cgf = chain[0].site_total_cgf(g)
        assert cgf.dist.support_size == 10
        assert chain[0].site_total_cgf(g) is cgf
        assert cgf.variance() == pytest.approx(enumerated[0].site_total_cgf(g).variance(),
                                               rel=1e-12)

    def test_constant_observable_gives_exact_zero(self, rng):
        psi, _, (m_phi, m_psi) = _both_routes(rng, 3, 6, 1)
        bound = finite_volume_xi(m_psi, m_phi, [0.3, 0.3, 0.3])
        assert m_phi.site_total_cgf([0.3, 0.3, 0.3]).dist.support_size == 1
        assert (bound.xi_plus, bound.xi_minus) == (0.0, 0.0)

    def test_mixed_pairs_match_enumeration(self, rng):
        # An enumerated measure is the one-block transfer, so it pairs with a
        # chain measure, at equal ranges or not, and gives the enumerated R.
        for q, length, spread, psi_spread in ((2, 4, 1, 1), (2, 7, 0, 3), (3, 5, 2, 1)):
            _, (e_phi, e_psi), (c_phi, c_psi) = _both_routes(rng, q, length, spread, psi_spread)
            want = gibbs_relative_entropy(e_psi, e_phi)
            for psi_m, phi_m in ((c_psi, e_phi), (e_psi, c_phi)):
                assert gibbs_relative_entropy(psi_m, phi_m) == pytest.approx(want, rel=1e-12)

    def test_factory_picks_the_route_by_geometry(self):
        chain = gibbs_measure(ising_interaction(0.5, 1.0, 0.1, 1), LatticeVolume.centered(1, 3))
        square = gibbs_measure(ising_interaction(0.5, 1.0, 0.1, 2), LatticeVolume.centered(2, 1))
        assert type(chain) is ChainGibbsMeasure and type(square) is GibbsMeasure


class TestLongChains:
    @pytest.mark.parametrize("beta, coupling, field", [(0.5, 1.0, 0.3), (1.2, -0.7, -0.4)])
    def test_pressure_gap_falls_like_one_over_length(self, beta, coupling, field):
        # Free boundaries: log Z_L = L p + c + O((lambda_2 / lambda_1)^L), so
        # L (p - log Z_L / L) settles on -c.
        pressure = ising1d_pressure_tilted(beta, coupling, beta * field)
        phi = ising_interaction(beta, coupling, field, 1)
        scaled = []
        for length in (100, 1_000, 10_000):
            gap = pressure - log_partition(phi, LatticeVolume.chain(length)) / length
            scaled.append(length * gap)
        assert abs(scaled[0]) > 1e-3
        for value in scaled[1:]:
            assert value == pytest.approx(scaled[0], rel=1e-8)


def _field_pair(spins, coeff):
    return tuple(
        Interaction(dimension=1, clusters=(spin_product_cluster(((0,),), sign * coeff),),
                    spin_states=spins)
        for sign in (1.0, -1.0)
    )


class TestSameErrorsOnBothRoutes:
    @pytest.mark.parametrize("length, clusters", [
        (3, [(((0,),), 1e308)]),  # the energy sum overflows
        (1, [(((0,),), 1e308)]),  # energies +-1e308: their spread overflows
        (4, [(((0,), (1,)), 1e308), (((0,),), 1e308)]),
        (3, [(((0,), (1,)), -1e308)]),  # finite exponents, infinite log Z
        (5, [(((0,), (2,)), 1e308), (((0,), (1,)), -1e308)]),
    ])
    def test_out_of_range_energies(self, length, clusters):
        phi = Interaction(dimension=1, clusters=tuple(
            spin_product_cluster(offsets, coeff) for offsets, coeff in clusters
        ))
        volume = LatticeVolume.chain(length)
        for build in (GibbsMeasure, ChainGibbsMeasure, log_partition):
            with pytest.raises(ParameterError, match="the Hamiltonian leaves the float range"):
                build(phi, volume)

    def test_out_of_range_difference(self):
        # Energies (0, +-1.5e308) are in range; H^Phi - H^Psi is not.
        phi, psi = _field_pair((0.0, 1.0), 1.5e308)
        volume = LatticeVolume.chain(1)
        for build in (GibbsMeasure, ChainGibbsMeasure):
            with pytest.raises(ParameterError, match="the Hamiltonian difference"):
                gibbs_relative_entropy(build(psi, volume), build(phi, volume))

    def test_dimension_errors(self):
        chain = LatticeVolume.chain(4)
        plain = ising_interaction(0.5, 1.0, 0.1, 1)
        other_spins = Interaction(dimension=1, clusters=plain.clusters,
                                  spin_states=(-1.0, 0.0, 1.0))
        for build in (GibbsMeasure, ChainGibbsMeasure):
            with pytest.raises(DimensionError):
                build(ising_interaction(0.5, 1.0, 0.1, 2), chain)
            with pytest.raises(DimensionError):
                gibbs_relative_entropy(build(other_spins, chain), build(plain, chain))
            with pytest.raises(DimensionError):
                gibbs_relative_entropy(build(plain, LatticeVolume.chain(5)), build(plain, chain))
            with pytest.raises(DimensionError):
                build(plain, chain).site_total_cgf([1.0, 2.0, 3.0])


def _write_pair(tmp_path, phi, psi):
    paths = []
    for name, clusters in (("phi", phi), ("psi", psi)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"d": 1, "clusters": [
            {"offsets": offsets, "coeff": coeff} for offsets, coeff in clusters
        ]}))
        paths.append(str(path))
    return ["--phi", paths[0], "--psi", paths[1]]


_NNN_PAIR = (
    [([[0], [1]], -0.4), ([[0], [2]], -0.1), ([[0]], -0.05)],
    [([[0], [1]], -0.55), ([[0], [2]], -0.25), ([[0]], -0.25)],
)


class TestCli:
    def test_chain_job_enumerates_nothing(self, tmp_path, monkeypatch, capsys):
        # A 17-site chain with a next-nearest cluster (range 2): no enumerated
        # measure is built, the energy kernel sees no block wider than range
        # + 1 = 3 sites, and only Phi builds a site-total CGF, over the 18
        # magnetization values, from one count law, which both bounds read:
        # the printed gap takes each measure's mean from an expectation pass,
        # so Psi builds no law.
        from infoscale import EmpiricalCgf, gibbs
        from infoscale.cli import main

        def refuse(*args):
            raise AssertionError("a GibbsMeasure was built")

        monkeypatch.setattr(gibbs.GibbsMeasure, "__init__", refuse)
        block_sites = []
        energy_vector = gibbs._energy_vector

        def recorded(interaction, volume, **kwargs):
            block_sites.append(volume.num_sites)
            return energy_vector(interaction, volume, **kwargs)

        monkeypatch.setattr(gibbs, "_energy_vector", recorded)
        built = []
        post_init = EmpiricalCgf.__post_init__

        def counted_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(EmpiricalCgf, "__post_init__", counted_post_init)
        laws = []
        count_law = gibbs._BlockTransfer.count_law

        def counted_count_law(self, *args):
            laws.append(args)
            return count_law(self, *args)

        monkeypatch.setattr(gibbs._BlockTransfer, "count_law", counted_count_law)
        assert main(["gibbs", *_write_pair(tmp_path, *_NNN_PAIR), "--n", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["num_sites"] == 17
        assert [cgf.dist.support_size for cgf in built] == [18]
        assert len(laws) == 1
        assert block_sites and max(block_sites) == 3

    def test_pair_of_different_ranges(self, tmp_path, capsys):
        # A nearest-neighbour Phi against a Psi with a next-nearest pair too:
        # the report matches enumeration.
        from infoscale.cli import main

        pair = ([([[0], [1]], -0.4), ([[0]], -0.05)], _NNN_PAIR[1])
        assert main(["gibbs", *_write_pair(tmp_path, *pair), "--n", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        phi, psi = (Interaction(dimension=1, clusters=tuple(
            spin_product_cluster(offsets, coeff) for offsets, coeff in clusters
        )) for clusters in pair)
        volume = LatticeVolume.chain(7)
        want = _report(psi, (GibbsMeasure(phi, volume), GibbsMeasure(psi, volume)), [-1.0, 1.0])
        assert report["relative_entropy_per_site"] == pytest.approx(
            want["relative_entropy"] / 7, rel=1e-12)
        for key in ("log_partition_phi", "log_partition_psi", "xi_plus", "xi_minus",
                    "linearized", "triple_xi_plus", "triple_xi_minus"):
            assert report[key] == pytest.approx(want[key], rel=1e-12), key
        assert report["qoi_gap"] == pytest.approx(
            (want["mean_psi"] - want["mean_phi"]) / 7, rel=1e-12)

    def test_relative_entropy_is_computed_once(self, tmp_path, monkeypatch, capsys):
        # Ranges 1 and 2 on 17 sites: one relative entropy, and three
        # transfers (one per measure, and Phi's again at Psi's wider block),
        # where computing R inside finite_volume_xi too took two and four.
        # Each measure makes one forward pass, for its range check and log
        # Z; Phi's rebuilt transfer makes none, since R reads only its log
        # weights.  R, the shared transfer's centred CGF of D, makes one, for
        # the range and the mean of D; D spreads more than 1 from its mean,
        # so R takes no tail pass.  The printed gap takes one expectation
        # pass per measure: 3 + 2 passes.  The bound is finite_volume_xi's,
        # to the last bit.
        from infoscale import divergences, gibbs
        from infoscale.cli import main

        calls = {"__init__": 0, "cgf": 0, "_forward": 0}
        owners = {"__init__": gibbs._BlockTransfer, "cgf": divergences._PathTransfer,
                  "_forward": divergences._PathTransfer}
        for name, owner in owners.items():
            method = getattr(owner, name)

            def counted(self, *args, _name=name, _method=method, **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        pair = ([([[0], [1]], -0.4), ([[0]], -0.05)], _NNN_PAIR[1])
        assert main(["gibbs", *_write_pair(tmp_path, *pair), "--n", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls == {"__init__": 3, "cgf": 1, "_forward": 5}
        phi, psi = (Interaction(dimension=1, clusters=tuple(
            spin_product_cluster(offsets, coeff) for offsets, coeff in clusters
        )) for clusters in pair)
        volume = LatticeVolume.chain(17)
        bound = finite_volume_xi(gibbs_measure(psi, volume), gibbs_measure(phi, volume),
                                 np.array([-1.0, 1.0]))
        assert (report["xi_plus"], report["xi_minus"], report["linearized"]) == (
            bound.xi_plus, bound.xi_minus, bound.linearized_half_width)

    def test_work_past_the_cap_fails_fast(self, tmp_path, capsys):
        # A range-10 Phi on 1,001 sites: 2^11 terms per step times 1,002
        # counts pass the cap, so the job stops at Phi's site-total law.
        from infoscale.cli import main

        pair = ([([[0], [10]], -0.3)], [([[0], [1]], -0.3)])
        assert main(["gibbs", *_write_pair(tmp_path, *pair), "--n", "500"]) == 1
        assert "exceed the caps" in capsys.readouterr().err

    def test_target_past_the_cap_builds_no_law(self, tmp_path, capsys):
        # A range-10 Psi against a nearest-neighbour Phi on 1,001 sites: a
        # count law at Psi's block would pass the cap, but only Phi's law is
        # built, and Psi's mean is one expectation pass, so the job runs.
        from infoscale.cli import main

        pair = ([([[0], [1]], -0.3), ([[0]], -0.05)],
                [([[0], [1]], -0.3), ([[0], [10]], -0.3), ([[0]], -0.1)])
        assert main(["gibbs", *_write_pair(tmp_path, *pair), "--n", "500"]) == 0
        report = json.loads(capsys.readouterr().out)
        gap = report["qoi_gap"]
        assert gap > 0.1
        assert report["xi_minus"] <= gap <= report["xi_plus"]
        assert report["triple_xi_minus"] <= gap <= report["triple_xi_plus"]

    def test_thousand_site_chain(self, tmp_path, capsys):
        # 1,001 sites, 2^1001 configurations: every value is finite, and the
        # exact gap lies in both intervals.
        from infoscale.cli import main

        assert main(["gibbs", *_write_pair(tmp_path, *_NNN_PAIR), "--n", "500"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_sites"] == 1001
        assert all(math.isfinite(v) for v in report.values())
        gap = report["qoi_gap"]
        assert report["xi_minus"] <= gap <= report["xi_plus"]
        assert report["triple_xi_minus"] <= report["xi_minus"]
        assert report["xi_plus"] <= report["triple_xi_plus"]
        assert 0.0 < report["relative_entropy_per_site"] <= 2 * report["triple_norm_difference"]


def _mp_transfer(log_start, exponents, steps, start, window):
    """log Z and E(G) of the path sum G of ``start``/``window`` under the
    transfer of ``log_start``/``exponents``, in the working precision of
    mpmath: per block, the weight of the paths that end there and that
    weight times G."""
    import mpmath

    mp, exp = (np.vectorize(f, otypes=[object]) for f in (mpmath.mpf, mpmath.exp))
    weights, window, alpha = exp(mp(exponents)), mp(window), exp(mp(log_start))
    beta = alpha * mp(start)
    heads = exponents.shape[:2] + (1,)
    for _ in range(steps):
        terms = alpha.reshape(heads) * weights
        beta = (beta.reshape(heads) * weights + terms * window).sum(axis=0).ravel()
        alpha = terms.sum(axis=0).ravel()
    z = mpmath.fsum(alpha)
    return mpmath.log(z), mpmath.fsum(beta) / z


class TestPrecision:
    def test_thousand_sites_against_a_40_digit_transfer(self):
        # The seed-1 next-nearest pair of the benchmark's Gibbs jobs on
        # 1,001 sites, against the same transfer in 40-digit arithmetic on
        # the same float log weights.  The forward pass shifts its running
        # log weights and conditional means to O(1) each step, so log Z, the
        # expectation-pass means, the count-law means and R keep their
        # digits; with cumulative log weights R was 3.0e-11 off and log Z
        # 1.2e-14, and with cumulative means the pass means were 1.1e-14 off.
        import mpmath

        def chain(pair, nnn, field):
            return Interaction(dimension=1, clusters=(
                spin_product_cluster(((0,), (1,)), pair),
                spin_product_cluster(((0,), (2,)), nnn),
                spin_product_cluster(((0,),), field),
            ))

        phi = chain(-0.4584231827048247, -0.15528906739571963, -0.05829951970090308)
        psi = chain(-0.6190638252134419, -0.2251836746800163, -0.30469410182896395)
        volume, g = LatticeVolume.chain(1001), np.array([-1.0, 1.0])
        measures = {"phi": gibbs_measure(phi, volume), "psi": gibbs_measure(psi, volume)}
        with mpmath.workdps(40):
            log_z = {}
            for name, measure in measures.items():
                t = measure._transfer
                log_z[name], mean = _mp_transfer(t.log_start, t.exponents, t.steps, *t.site_sums(g))
                assert measure.log_partition == pytest.approx(float(log_z[name]), rel=1e-15)
                assert measure.site_total_mean(g) == pytest.approx(float(mean), rel=5e-15)
                assert measure.site_total_cgf(g).mean == pytest.approx(float(mean), rel=5e-15)
            psi_t, phi_t = measures["psi"]._transfer, measures["phi"]._transfer
            mp = np.vectorize(mpmath.mpf, otypes=[object])
            _, mean_d = _mp_transfer(psi_t.log_start, psi_t.exponents, psi_t.steps,
                                     mp(phi_t.log_start) - mp(psi_t.log_start),
                                     mp(phi_t.exponents) - mp(psi_t.exponents))
            want = float(log_z["phi"] - log_z["psi"] - mean_d)
        assert gibbs_relative_entropy(measures["psi"], measures["phi"]) == pytest.approx(
            want, rel=5e-14)
