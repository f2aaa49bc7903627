"""Lattice interactions, finite-volume Gibbs measures, and their QoI bounds.

An interaction is a finite list of translation-invariant cluster templates,
one per translation-equivalence class.  Each template carries the offsets of
a finite set containing the origin and a coefficient: its energy is the
coefficient times the product of the spins on that set, so the Hamiltonian is
linear in the coefficients.  Hamiltonians use free boundary conditions:
cluster translates that cross the volume boundary are dropped.

Exact computation is by configuration enumeration (capped at 2e6
configurations).  :func:`log_partition` instead runs the shared log-domain
transfer product ``divergences._log_transfer`` whenever the volume is a
contiguous 1-D chain and every cluster is a single site or a
nearest-neighbour pair.  Every partition sum, enumerated or transferred,
shifts by the largest exponent, as ``divergences._logsumexp`` does.

A :class:`GibbsMeasure` enumerates the energies once, at construction, in
O(N q^N) work per cluster template: the spin on one site over every
configuration is a tiled column, and each cluster instance multiplies the
columns of its sites.  Its one memo holds, per g, the CGF of the site total
``sum_x g(s_x)``, which both bounds read; that CGF runs over the distinct
totals only, not over the q^N configurations: for two-state spins and an
integer-valued g, such as the magnetization, that is N + 1 terms per K(c).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergences import DiscreteDistribution, Observable, _log_transfer, _logsumexp
from .errors import (
    DimensionError,
    EnumerationLimitError,
    ParameterError,
)
from .goal_oriented import EmpiricalCgf, GoalBound, xi_bounds

_OUT_OF_RANGE = "the Hamiltonian leaves the float range: its energies, or their spread, overflow"
_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class SpinCluster:
    """One cluster template: offsets (each a d-vector, origin included) and a
    coefficient; its energy is ``coeff`` times the product of the spins on
    those offsets."""

    offsets: tuple[tuple[int, ...], ...]
    coeff: float

    def __post_init__(self):
        if len(self.offsets) == 0:
            raise ParameterError("a cluster needs at least one offset")
        dims = {len(o) for o in self.offsets}
        if len(dims) != 1:
            raise DimensionError("cluster offsets have inconsistent dimensions")
        d = dims.pop()
        if (0,) * d not in self.offsets:
            raise ParameterError("every cluster must contain the origin offset")
        if len(set(self.offsets)) != len(self.offsets):
            raise ParameterError("cluster offsets must be distinct")
        if not math.isfinite(self.coeff):
            raise ParameterError(f"cluster coefficient must be finite, got {self.coeff!r}")

    @property
    def size(self) -> int:
        return len(self.offsets)

    def sup_norm(self, spin_states: Sequence[float]) -> float:
        return abs(self.coeff) * max(abs(s) for s in spin_states) ** self.size


def spin_product_cluster(offsets, coeff: float) -> SpinCluster:
    """Cluster whose energy is ``coeff`` times the product of its spins."""
    if not all(float(v).is_integer() for o in offsets for v in o):
        raise ParameterError(f"cluster offsets must be integers, got {offsets!r}")
    offs = tuple(tuple(int(v) for v in o) for o in offsets)
    return SpinCluster(offsets=offs, coeff=float(coeff))


@dataclass(frozen=True, eq=False)
class Interaction:
    """A translation-invariant interaction given by cluster templates.

    ``clusters`` must contain one template per translation-equivalence class;
    listing both {0, e} and {-e, 0} would double-count their bonds.
    Coupling coefficients are understood to include the inverse temperature.
    """

    dimension: int
    clusters: tuple[SpinCluster, ...]
    spin_states: tuple[float, ...] = (-1.0, 1.0)

    def __post_init__(self):
        for cluster in self.clusters:
            if any(len(o) != self.dimension for o in cluster.offsets):
                raise DimensionError(
                    f"cluster offsets must be {self.dimension}-vectors"
                )
        if len(self.spin_states) < 2:
            raise ParameterError("need at least two spin states")

    @property
    def num_states(self) -> int:
        return len(self.spin_states)


def ising_interaction(beta: float, coupling_j: float, field_h: float, dimension: int) -> Interaction:
    """Nearest-neighbor Ising interaction: pair terms ``-beta J s s'`` along
    each axis and a single-site field term ``-beta h s``."""
    if beta <= 0:
        raise ParameterError("inverse temperature must be positive")
    clusters = []
    origin = (0,) * dimension
    for axis in range(dimension):
        step = tuple(1 if i == axis else 0 for i in range(dimension))
        clusters.append(spin_product_cluster((origin, step), -beta * coupling_j))
    if field_h != 0.0:
        clusters.append(spin_product_cluster((origin,), -beta * field_h))
    return Interaction(dimension=dimension, clusters=tuple(clusters))


def triple_norm(interaction: Interaction) -> float:
    """Interaction norm ``sum_{X contains 0} |X|^-1 sup|Phi_X|``.

    A template with k offsets has exactly k translates containing the origin,
    each contributing |X|^-1 times the same sup norm, so per template the
    contributions telescope to its sup norm, ``|coeff| max|s|^k``.
    """
    return sum(c.sup_norm(interaction.spin_states) for c in interaction.clusters)


def interaction_difference(phi: Interaction, psi: Interaction) -> Interaction:
    """The interaction Phi - Psi: coefficients summed per sorted offset set."""
    if phi.dimension != psi.dimension:
        raise DimensionError("interactions live on lattices of different dimension")
    if phi.spin_states != psi.spin_states:
        raise DimensionError("interactions have different spin state sets")

    coeffs: dict[tuple, float] = {}
    for interaction, sign in ((phi, 1.0), (psi, -1.0)):
        for cluster in interaction.clusters:
            key = tuple(sorted(cluster.offsets))
            coeffs[key] = coeffs.get(key, 0.0) + sign * cluster.coeff
    clusters = tuple(SpinCluster(key, coeff) for key, coeff in sorted(coeffs.items()))
    return Interaction(
        dimension=phi.dimension, clusters=clusters, spin_states=phi.spin_states
    )


@dataclass(frozen=True, eq=False)
class LatticeVolume:
    """A finite set of lattice sites in fixed lexicographic order."""

    dimension: int
    sites: tuple[tuple[int, ...], ...]

    @classmethod
    def centered(cls, dimension: int, half_width: int) -> "LatticeVolume":
        """The box {-n..n}^d with N = (2n+1)^d sites."""
        if half_width < 0:
            raise ParameterError("half_width must be nonnegative")
        axis = range(-half_width, half_width + 1)
        sites = tuple(itertools.product(axis, repeat=dimension))
        return cls(dimension=dimension, sites=sites)

    @classmethod
    def chain(cls, length: int) -> "LatticeVolume":
        """A one-dimensional segment of ``length`` sites (supports even N)."""
        if length < 1:
            raise ParameterError("chain length must be positive")
        return cls(dimension=1, sites=tuple((i,) for i in range(length)))

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def is_contiguous_chain(self) -> bool:
        if self.dimension != 1:
            return False
        coords = [s[0] for s in self.sites]
        return coords == list(range(coords[0], coords[0] + len(coords)))


def _cluster_instances(
    interaction: Interaction, volume: LatticeVolume
) -> list[tuple[SpinCluster, np.ndarray]]:
    """Site-index arrays (instances x cluster size) for every template,
    with boundary-crossing translates dropped (free boundary conditions)."""
    if interaction.dimension != volume.dimension:
        raise DimensionError("interaction and volume dimensions differ")
    index = {site: i for i, site in enumerate(volume.sites)}
    result = []
    for cluster in interaction.clusters:
        rows = []
        for shift in volume.sites:
            try:
                rows.append(
                    [
                        index[tuple(o + a for o, a in zip(offset, shift))]
                        for offset in cluster.offsets
                    ]
                )
            except KeyError:
                continue
        if rows:
            result.append((cluster, np.array(rows, dtype=np.int64)))
    return result


def hamiltonian(interaction: Interaction, volume: LatticeVolume, config) -> float:
    """Energy of one configuration, ``sum_{X in volume} Phi_X(s_X)``."""
    config = np.asarray(config, dtype=float)
    if config.size != volume.num_sites:
        raise DimensionError(
            f"configuration has {config.size} spins for {volume.num_sites} sites"
        )
    total = 0.0
    for cluster, instances in _cluster_instances(interaction, volume):
        for row in instances:
            total += cluster.coeff * float(np.prod(config[row]))
    return total


def _enumeration_size(num_sites: int, num_states: int) -> int:
    count = num_states**num_sites
    if count > _ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"{count} configurations exceed the enumeration cap {_ENUMERATION_CAP}"
        )
    return count


def _enumerated_column(values: np.ndarray, num_sites: int, site: int) -> np.ndarray:
    """``values[state of site]`` over every configuration in lexicographic
    order: each value repeated ``q^(N-1-site)`` times, that run ``q^site``
    times."""
    q = values.size
    return np.tile(np.repeat(values, q ** (num_sites - 1 - site)), q**site)


def _energy_vector(interaction: Interaction, volume: LatticeVolume) -> np.ndarray:
    """Hamiltonian of every enumerated configuration: per cluster instance,
    ``coeff`` times the product of the spin columns of its sites.

    Raises ParameterError when an energy, or the spread between the largest
    and the smallest, is not a finite float: ``exp(-H)`` relative to its
    maximum, which every partition sum takes, is then out of reach.
    """
    templates = _cluster_instances(interaction, volume)
    states = np.asarray(interaction.spin_states, dtype=float)
    num_sites = volume.num_sites
    energies = np.zeros(_enumeration_size(num_sites, states.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for cluster, instances in templates:
            for first, *rest in instances:
                product = _enumerated_column(states, num_sites, first)
                for site in rest:
                    product *= _enumerated_column(states, num_sites, site)
                product *= cluster.coeff
                energies += product
    if not math.isfinite(float(energies.max()) - float(energies.min())):
        raise ParameterError(_OUT_OF_RANGE)
    return energies


def log_partition(interaction: Interaction, volume: LatticeVolume) -> float:
    """``log sum_config exp(-H(config))``.

    On a contiguous 1-D chain whose clusters are all single sites or
    nearest-neighbour pairs this is the shared log-domain transfer product,
    ``divergences._log_transfer``, at any length; otherwise it sums over all
    configurations with a max-exponent shift, up to the enumeration cap.
    """
    nearest = {(0,), (1,)}
    if not (
        volume.is_contiguous_chain()
        and interaction.dimension == 1
        and all(set(c.offsets) <= nearest for c in interaction.clusters)
    ):
        return _logsumexp(-_energy_vector(interaction, volume))
    states = np.asarray(interaction.spin_states, dtype=float)
    field = np.zeros(states.size)
    bond = np.zeros((states.size, states.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for cluster in interaction.clusters:
            if cluster.size == 1:
                field += cluster.coeff * states
            else:
                bond += cluster.coeff * np.outer(states, states)
        exponents = -bond - field[None, :]
    # Z = u . T^(L-1) . 1 with u(s) = e^{-field(s)}, T(s,s') = e^{-bond - field(s')}.
    log_z = _log_transfer(-field, exponents, volume.num_sites - 1)
    if not (np.all(np.isfinite(exponents)) and math.isfinite(log_z)):
        raise ParameterError(_OUT_OF_RANGE)
    return log_z


@dataclass(frozen=True, eq=False)
class GibbsMeasure:
    """A finite-volume Gibbs measure realized by exact enumeration.

    Probabilities are proportional to ``exp(-H)`` over the configurations of
    the volume, enumerated in lexicographic site order with spin states in
    their declared order (so for the default states, -1 is the first);
    that order is ``itertools.product(spin_states, repeat=N)``.  Construction
    enumerates the energies only, and each site-total CGF is built on the
    first request for its g.
    """

    interaction: Interaction
    volume: LatticeVolume
    log_partition: float
    energies: np.ndarray
    weights: np.ndarray

    def __init__(self, interaction: Interaction, volume: LatticeVolume):
        energies = _energy_vector(interaction, volume)
        log_z = _logsumexp(-energies)
        weights = np.exp(-energies - log_z)
        weights /= weights.sum()
        for name, value in (
            ("interaction", interaction),
            ("volume", volume),
            ("log_partition", log_z),
            ("energies", energies),
            ("weights", weights),
            ("_site_total_cgfs", {}),
        ):
            object.__setattr__(self, name, value)

    @property
    def num_sites(self) -> int:
        return self.volume.num_sites

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.weights, renormalize=True)

    def site_total_cgf(self, g_values) -> EmpiricalCgf:
        """Centered CGF of ``sum_x g(s_x)`` for a single-site g, built once
        per g.  Totals are summed site by site (so a constant g has a
        constant total).  Weights are floored at the smallest normal float
        before :class:`EmpiricalCgf` merges equal totals, so no configuration
        whose weight underflowed leaves the support that sets the bound at
        large c; raising weights only raises K (up to a 1e-300 mean shift)."""
        g_values = np.asarray(g_values, dtype=float)
        if g_values.size != self.interaction.num_states:
            raise DimensionError("g must assign one value per spin state")
        key = g_values.tobytes()
        cgf = self._site_total_cgfs.get(key)
        if cgf is None:
            totals = np.zeros(self.weights.size)
            for site in range(self.num_sites):
                totals += _enumerated_column(g_values, self.num_sites, site)
            weights = np.maximum(self.weights, np.finfo(float).tiny)
            cgf = EmpiricalCgf(DiscreteDistribution(weights), Observable(totals))
            self._site_total_cgfs[key] = cgf
        return cgf

    def site_total(self, g_values) -> np.ndarray:
        """Read-only ``sum_x g(s_x)`` per configuration, from :meth:`site_total_cgf`."""
        return self.site_total_cgf(g_values).observable.values

    def expectation(self, per_config: np.ndarray) -> float:
        return float(self.weights @ per_config)


def _check_compatible(a: GibbsMeasure, b: GibbsMeasure) -> None:
    if a.volume.sites != b.volume.sites:
        raise DimensionError("Gibbs measures live on different volumes")
    if a.interaction.spin_states != b.interaction.spin_states:
        raise DimensionError("Gibbs measures have different spin state sets")


def gibbs_relative_entropy(psi_measure: GibbsMeasure, phi_measure: GibbsMeasure) -> float:
    """``R(mu^Psi || mu^Phi) = log Z^Phi - log Z^Psi - E_Psi(D)`` with
    ``D = H^Psi - H^Phi``.

    The identity subtracts O(1) log partition functions, so a relative
    entropy near rounding level comes back as noise.  Where D, centred under
    Psi, stays within [-1, 1], R is taken as ``log E_Psi e^D - E_Psi D`` in
    ``log1p``/``expm1`` form instead, which keeps its digits.
    """
    _check_compatible(psi_measure, phi_measure)
    expect = psi_measure.expectation
    with np.errstate(over="ignore", invalid="ignore"):
        gap = psi_measure.energies - phi_measure.energies
        centred = gap - expect(gap)  # past the float range, the identity runs
    if not np.all(np.isfinite(gap)):
        raise ParameterError("the Hamiltonian difference H^Phi - H^Psi leaves the float range")
    if float(np.abs(centred).max()) <= 1.0:
        value = math.log1p(expect(np.expm1(centred))) - expect(centred)
    else:
        value = phi_measure.log_partition - psi_measure.log_partition - expect(gap)
    return max(value, 0.0)


def finite_volume_xi(
    psi_measure: GibbsMeasure, phi_measure: GibbsMeasure, g_values
) -> GoalBound:
    """Per-site goal-oriented bound on ``E_Psi(f_N) - E_Phi(f_N)`` for the
    site-averaged observable ``f_N = N^-1 sum_x g(s_x)``.

    The extensive bound is :func:`xi_bounds` of the enumerated Gibbs measure
    as an :class:`EmpiricalCgf` with the exact relative entropy R; it is
    divided by N, and the returned optimizers refer to the extensive problem.
    Its ``linearized_half_width`` is ``sqrt(Var(sum g)/N) sqrt(2 R/N)``.
    """
    r = gibbs_relative_entropy(psi_measure, phi_measure)
    bound = xi_bounds(phi_measure.site_total_cgf(g_values), r)
    return bound.scaled(1.0 / phi_measure.num_sites)


def triple_norm_xi(
    phi_measure: GibbsMeasure, psi_interaction: Interaction, g_values
) -> GoalBound:
    """Per-site bound with the relative entropy replaced by its interaction
    surrogate ``2 N |||Phi - Psi|||`` — looser, but it needs no partition
    function for Psi.  The CGF is the same :class:`EmpiricalCgf` as in
    :func:`finite_volume_xi`, and ``linearized_half_width`` is
    ``2 sqrt(Var(sum g)/N) sqrt(|||Phi - Psi|||)``."""
    surrogate = 2.0 * phi_measure.num_sites * triple_norm(
        interaction_difference(phi_measure.interaction, psi_interaction)
    )
    if not math.isfinite(surrogate):
        raise ParameterError(
            f"the triple-norm surrogate 2 N |||Phi - Psi||| = {surrogate!r} "
            "leaves the float range"
        )
    bound = xi_bounds(phi_measure.site_total_cgf(g_values), surrogate)
    return bound.scaled(1.0 / phi_measure.num_sites)


def spin_observable(interaction: Interaction) -> np.ndarray:
    """The magnetization observable g(s) = s, aligned with the spin states."""
    return np.array(interaction.spin_states, dtype=float)
