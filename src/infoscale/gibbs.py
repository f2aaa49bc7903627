"""Lattice interactions, finite-volume Gibbs measures, and their QoI bounds.

An interaction is a finite list of translation-invariant cluster templates,
one per translation-equivalence class.  Each template carries the offsets of
a finite set containing the origin and a coefficient: its energy is the
coefficient times the product of the spins on that set, so the Hamiltonian is
linear in the coefficients.  Hamiltonians use free boundary conditions:
cluster translates that cross the volume boundary are dropped.

Every Gibbs measure runs on one block transfer, :class:`_BlockTransfer`,
the path-measure transfer ``divergences._PathTransfer`` that Markov paths
share, with the energies from the interaction.  On a contiguous 1-D chain a
state is a block of r consecutive spins, r the interaction's range, each
block has q predecessors, and a step is one
``divergences._logsumexp_columns``, so a chain takes any length, for any
finite-range interaction (any offsets, cluster sizes and spin states).  Any
other volume, such as a 2-D box, is one block of all its N sites with no
steps: that is enumeration, capped at q^N = 2e6 configurations.  One kernel,
:func:`_energy_vector`, builds every block's energies in O(N q^N) work per
cluster template: the spin on one site over every configuration is a tiled
column, and each cluster instance multiplies the columns of its sites.  The
transfer's work is capped (``EnumerationLimitError``) at 2e6 terms per step
and 5e8 in all.  The shared transfer's one forward recursion carries a path
sum's extremes, log Z and an expectation in one pass: making a measure, or
calling :func:`log_partition`, takes one, which gives the range check and
log Z together (a bare transfer takes none); the relative entropy of any
two measures on one volume, the transfer's centred CGF at 1, one (two for
its tail form) at the wider block width of the pair; and the mean of a site
total ``sum_x g(s_x)``, one.  :meth:`_BlockTransfer.site_sums` lays out any
such site total as a path sum: each first block's site sum, and g of the
spin each step appends.

:func:`gibbs_measure` picks a :class:`ChainGibbsMeasure` for a chain: it
adds a count axis to the transfer for the law of the site total
``sum_x g(s_x)`` (N + 1 atoms for a two-valued g), quadratic in L, which
reaches the cap first, and builds no per-configuration array.  Every other
volume gets a :class:`GibbsMeasure`, the one-block case, which keeps the
per-configuration weights; its site totals, from the same layout, are the
oracle of the count law.  Each measure keeps one memo of the site-total CGF
per g, which both bounds read; that CGF runs over the distinct totals only,
not over the q^N configurations.  Only Phi's is built: the bounds need no
law of Psi, and a mean needs no law at all.  Every partition sum shifts by
the largest exponent, as ``divergences._logsumexp`` does, and a transfer's
running log weights are shifted to O(1) at every step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergences import (
    DiscreteDistribution,
    Observable,
    _block_terms,
    _logsumexp,
    _logsumexp_columns,
    _PathTransfer,
    _peak,
)
from .errors import (
    DimensionError,
    EnumerationLimitError,
    ParameterError,
)
from .goal_oriented import EmpiricalCgf, GoalBound, xi_bounds

_OUT_OF_RANGE = "the Hamiltonian leaves the float range: its energies, or their spread, overflow"
_ENUMERATION_CAP = 2_000_000
_TRANSFER_WORK_CAP = 500_000_000


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
        if not all(math.isfinite(s) for s in self.spin_states):
            raise ParameterError(f"spin states must be finite, got {self.spin_states!r}")

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

    def __post_init__(self):
        if len(self.sites) == 0:
            raise ParameterError("a volume needs at least one site")
        if any(len(site) != self.dimension for site in self.sites):
            raise DimensionError(f"volume sites must be {self.dimension}-vectors")
        if len(set(self.sites)) != len(self.sites):
            raise ParameterError("volume sites must be distinct")

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


def _enumerated_column(values: np.ndarray, num_sites: int, site: int) -> np.ndarray:
    """``values[state of site]`` over every configuration in lexicographic
    order: each value repeated ``q^(N-1-site)`` times, that run ``q^site``
    times."""
    q = values.size
    return np.tile(np.repeat(values, q ** (num_sites - 1 - site)), q**site)


def _energy_vector(
    interaction: Interaction, volume: LatticeVolume, last_site_only: bool = False
) -> np.ndarray:
    """Hamiltonian of every enumerated configuration: per cluster instance,
    ``coeff`` times the product of the spin columns of its sites; with
    ``last_site_only``, of the instances that hold the last site only.

    Raises ParameterError when an energy, or the spread between the largest
    and the smallest, is not a finite float: ``exp(-H)`` relative to its
    maximum, which every partition sum takes, is then out of reach.
    """
    templates = _cluster_instances(interaction, volume)
    states = np.asarray(interaction.spin_states, dtype=float)
    num_sites = volume.num_sites
    energies = np.zeros(states.size**num_sites)
    with np.errstate(over="ignore", invalid="ignore"):
        for cluster, instances in templates:
            if last_site_only:
                instances = instances[(instances == num_sites - 1).any(axis=1)]
            for first, *rest in instances:
                product = _enumerated_column(states, num_sites, first)
                for site in rest:
                    product *= _enumerated_column(states, num_sites, site)
                product *= cluster.coeff
                energies += product
    if not math.isfinite(float(energies.max()) - float(energies.min())):
        raise ParameterError(_OUT_OF_RANGE)
    return energies


class _BlockTransfer(_PathTransfer):
    """The block transfer of an interaction on a volume of N sites: the
    :class:`~infoscale.divergences._PathTransfer` of its Gibbs measure.

    On a contiguous chain with range r (the largest ``max - min`` offset of
    a cluster), a state is a block of ``w = min(max(r, width), N)``
    consecutive spins; ``width`` widens the block when two interactions of
    different ranges must share it.  Any other volume, and any ``width >=
    N``, is one block of all N sites.  Blocks are numbered as
    :func:`_enumerated_column` numbers configurations.  ``-log_start[b]`` is
    the energy of the cluster translates inside the first block, and
    ``-exponents[p, m, x]`` that of the translates that end at the spin x a
    step appends; there are ``N - w`` steps, and without steps the
    exponents are empty.  Only these log weights are kept.

    Construction runs no pass.  It raises EnumerationLimitError, before it
    builds anything, when the transfer passes the caps of
    :meth:`_check_work`, and ParameterError when an energy leaves the float
    range; :meth:`checked_log_partition` checks the path sums.
    """

    def __init__(self, interaction: Interaction, volume: LatticeVolume, width: int = 1):
        if interaction.dimension != volume.dimension:
            raise DimensionError("interaction and volume dimensions differ")
        q, length = interaction.num_states, volume.num_sites
        if volume.is_contiguous_chain():
            for cluster in interaction.clusters:
                coords = [o[0] for o in cluster.offsets]
                width = max(width, max(coords) - min(coords))
        else:
            width = length
        width = min(width, length)
        self.num_states, self.width, self.steps = q, width, length - width
        self._check_work(1)
        block = LatticeVolume.chain(width) if self.steps else volume
        start, window = _energy_vector(interaction, block), np.zeros(0)
        if self.steps:
            window = _energy_vector(interaction, LatticeVolume.chain(width + 1), last_site_only=True)
        super().__init__(-start, -window.reshape(q, -1, q), self.steps)

    def checked_log_partition(self) -> float:
        """log Z from one forward pass that also takes the largest and the
        smallest path sum: ParameterError where their spread or log Z leaves
        the float range."""
        largest, smallest, log_z, _ = self._forward(extremes=True)
        if not (math.isfinite(largest - smallest) and math.isfinite(log_z)):
            raise ParameterError(_OUT_OF_RANGE)
        return log_z

    def _check_work(self, size: int) -> None:
        """Raise EnumerationLimitError unless a pass that carries ``size``
        entries per block stays within the caps: ``q^w size`` terms for the
        first block, ``q^(w+1) size`` per step, and that times the steps in
        all."""
        terms = self.num_states ** (self.width + (self.steps > 0)) * size
        if terms > _ENUMERATION_CAP or self.steps * terms > _TRANSFER_WORK_CAP:
            raise EnumerationLimitError(
                f"{self.steps} transfer steps of {terms} terms exceed the caps "
                f"{_ENUMERATION_CAP} per step and {_TRANSFER_WORK_CAP} in all"
            )

    def site_sums(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The site sum ``sum_x values[s_x]`` laid out as a path sum, in the
        shape of ``log_start``/``exponents``: per first block, the sum over its
        sites, taken site by site (so a constant has a constant sum), and per
        step, ``values`` of the spin it appends."""
        first = np.zeros(self.log_start.size, dtype=values.dtype)
        for site in range(self.width):
            first += _enumerated_column(values, self.width, site)
        return first, np.broadcast_to(values, self.exponents.shape)

    def count_law(self, value_index: np.ndarray, num_values: int) -> tuple[np.ndarray, np.ndarray]:
        """The law of the count vector ``n_j = #{x : value_index[s_x] = j}``:
        the log weights, up to one constant, of the reachable count vectors,
        and those vectors (one row each, ``num_values`` columns).

        A count axis, over n_1 .. n_(num_values - 1) in radix L + 1, rides
        along the transfer: a first block starts at the count index of its
        spins, and each step shifts a block's row by the count stride of the
        spin it appends.  Each step lowers its exponents by the largest
        finite log weight, as the forward pass does.  O(L^num_values
        q^(w+1)) work.
        """
        length = self.width + self.steps
        size = (length + 1) ** (num_values - 1)
        self._check_work(size)
        radix_powers = (length + 1) ** np.arange(num_values - 1)
        stride = np.concatenate(([0], radix_powers))[value_index]  # per spin state
        vec = np.full((self.log_start.size, size), -math.inf)
        vec[np.arange(vec.shape[0]), self.site_sums(stride)[0]] = self.log_start
        with np.errstate(all="ignore"):
            for _ in range(self.steps):
                # axis 1 is the spin x that block m q + x appends
                vec = _logsumexp_columns(_block_terms(vec, self.exponents - _peak(vec)))
                for spin, shift in enumerate(stride):
                    if shift:
                        vec[:, spin, shift:] = vec[:, spin, :-shift]
                        vec[:, spin, :shift] = -math.inf
                vec = vec.reshape(-1, size)
            log_w = _logsumexp_columns(vec)  # summed over the last block
        reached = np.flatnonzero(np.isfinite(log_w))
        counts = reached[:, None] // radix_powers % (length + 1)
        counts = np.column_stack((length - counts.sum(axis=1), counts))
        return log_w[reached], counts


def log_partition(interaction: Interaction, volume: LatticeVolume) -> float:
    """``log sum_config exp(-H(config))``, the product of the block transfer
    of :class:`_BlockTransfer`: at any length on a contiguous 1-D chain, for
    any finite-range interaction, and up to the enumeration cap on any other
    volume."""
    return _BlockTransfer(interaction, volume).checked_log_partition()


@dataclass(frozen=True, eq=False)
class _Measure:
    """What both measures share: the interaction, the volume, the block
    transfer and its range-checked ``log_partition``, one site-total CGF per
    g, and the site-total mean of any g."""

    interaction: Interaction
    volume: LatticeVolume
    log_partition: float

    def __init__(self, interaction: Interaction, volume: LatticeVolume, transfer: _BlockTransfer):
        for name, value in (
            ("interaction", interaction),
            ("volume", volume),
            ("log_partition", transfer.checked_log_partition()),
            ("_transfer", transfer),
            ("_site_total_cgfs", {}),
        ):
            object.__setattr__(self, name, value)

    @property
    def num_sites(self) -> int:
        return self.volume.num_sites

    def site_total_cgf(self, g_values) -> EmpiricalCgf:
        """Centered CGF of ``sum_x g(s_x)`` for a single-site g, built once
        per g over the law of :meth:`_site_total_law`.  Its weights are
        floored at the smallest normal float before :class:`EmpiricalCgf`
        merges equal totals, so no atom whose weight underflowed leaves the
        support that sets the bound at large c; raising weights only raises K
        (up to a 1e-300 mean shift)."""
        g_values = self._g_values(g_values)
        key = g_values.tobytes()
        cgf = self._site_total_cgfs.get(key)
        if cgf is None:
            weights, totals = self._site_total_law(g_values)
            weights = np.maximum(weights, np.finfo(float).tiny)
            cgf = EmpiricalCgf(DiscreteDistribution(weights), Observable(totals))
            self._site_total_cgfs[key] = cgf
        return cgf

    def site_total_mean(self, g_values) -> float:
        """``E sum_x g(s_x)`` for a single-site g: one expectation pass of the
        block transfer, with no site-total law built."""
        return self._transfer._forward(*self._transfer.site_sums(self._g_values(g_values)))[3]

    def _g_values(self, g_values) -> np.ndarray:
        g_values = np.asarray(g_values, dtype=float)
        if g_values.size != self.interaction.num_states:
            raise DimensionError("g must assign one value per spin state")
        return g_values


@dataclass(frozen=True, eq=False)
class GibbsMeasure(_Measure):
    """A finite-volume Gibbs measure realized by exact enumeration: the
    one-block transfer of its volume.

    Probabilities are proportional to ``exp(-H)`` over the configurations of
    the volume, enumerated in lexicographic site order with spin states in
    their declared order (so for the default states, -1 is the first);
    that order is ``itertools.product(spin_states, repeat=N)``.  Construction
    enumerates the energies only, and each site-total CGF is built on the
    first request for its g.
    """

    weights: np.ndarray

    def __init__(self, interaction: Interaction, volume: LatticeVolume):
        super().__init__(interaction, volume, _BlockTransfer(interaction, volume, volume.num_sites))
        weights = np.exp(self._transfer.log_start - self.log_partition)
        weights /= weights.sum()
        object.__setattr__(self, "weights", weights)

    @property
    def energies(self) -> np.ndarray:
        return -self._transfer.log_start

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution(self.weights, renormalize=True)

    def _site_total_law(self, g_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The weight and the site total of every configuration."""
        return self.weights, self._transfer.site_sums(g_values)[0]

    def site_total(self, g_values) -> np.ndarray:
        """Read-only ``sum_x g(s_x)`` per configuration, from :meth:`site_total_cgf`."""
        return self.site_total_cgf(g_values).observable.values

    def expectation(self, per_config: np.ndarray) -> float:
        return float(self.weights @ per_config)


@dataclass(frozen=True, eq=False)
class ChainGibbsMeasure(_Measure):
    """A finite-volume Gibbs measure on a contiguous 1-D chain, by transfer.

    It takes any finite-range interaction (any offsets, cluster sizes and
    spin states) through the block transfer of :class:`_BlockTransfer`, and
    builds no per-configuration array: the site-total CGF runs over the law
    of the count vector of g's distinct values (N + 1 atoms for a two-valued
    g).
    """

    def __init__(self, interaction: Interaction, volume: LatticeVolume):
        super().__init__(interaction, volume, _BlockTransfer(interaction, volume))

    def _site_total_law(self, g_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The weight and the total ``sum_j n_j g_j`` of every count vector
        n of g's distinct values (a constant g has one)."""
        values, value_index = np.unique(g_values, return_inverse=True)
        log_w, counts = self._transfer.count_law(value_index, values.size)
        return np.exp(log_w - _logsumexp(log_w)), counts @ values


def gibbs_measure(interaction: Interaction, volume: LatticeVolume) -> _Measure:
    """The measure of a volume: :class:`ChainGibbsMeasure` on a contiguous
    1-D chain, an enumerated :class:`GibbsMeasure` otherwise."""
    if volume.is_contiguous_chain():
        return ChainGibbsMeasure(interaction, volume)
    return GibbsMeasure(interaction, volume)


def _check_compatible(a: _Measure, b: _Measure) -> None:
    if a.volume.sites != b.volume.sites:
        raise DimensionError("Gibbs measures live on different volumes")
    if a.interaction.spin_states != b.interaction.spin_states:
        raise DimensionError("Gibbs measures have different spin state sets")


def gibbs_relative_entropy(psi_measure: _Measure, phi_measure: _Measure) -> float:
    """``R(mu^Psi || mu^Phi) = log Z^Phi - log Z^Psi - E_Psi(D)`` with
    ``D = H^Psi - H^Phi``.

    The identity subtracts O(1) log partition functions, so a relative
    entropy near rounding level comes back as noise.  R is the centred CGF
    of D under Psi at 1, :meth:`~infoscale.divergences._PathTransfer.cgf` of
    Psi's block transfer: where D, centred under Psi, stays within [-1, 1],
    it is taken as ``log E_Psi e^D - E_Psi D`` in ``log1p``/``expm1`` form
    instead, which keeps its digits.  The two transfers share a width, the
    wider of the two, so any two measures on one volume pair up.
    """
    _check_compatible(psi_measure, phi_measure)
    width = max(psi_measure._transfer.width, phi_measure._transfer.width)
    psi_t, phi_t = (
        m._transfer if m._transfer.width == width
        else _BlockTransfer(m.interaction, m.volume, width)
        for m in (psi_measure, phi_measure)
    )
    with np.errstate(all="ignore"):  # D from the log weights, -H
        start, window = phi_t.log_start - psi_t.log_start, phi_t.exponents - psi_t.exponents
    log_ratio = phi_measure.log_partition - psi_measure.log_partition
    return max(psi_t.cgf(start, window, log_ratio, "the Hamiltonian difference H^Phi - H^Psi"), 0.0)


def finite_volume_xi(psi_measure: _Measure, phi_measure: _Measure, g_values) -> GoalBound:
    """Per-site goal-oriented bound on ``E_Psi(f_N) - E_Phi(f_N)`` for the
    site-averaged observable ``f_N = N^-1 sum_x g(s_x)``.

    The extensive bound is :func:`xi_bounds` of Phi's site-total
    :class:`EmpiricalCgf` with the exact relative entropy R; it is
    divided by N, and the returned optimizers refer to the extensive problem.
    Its ``linearized_half_width`` is ``sqrt(Var(sum g)/N) sqrt(2 R/N)``.
    """
    return _site_xi(phi_measure, g_values, gibbs_relative_entropy(psi_measure, phi_measure))


def _site_xi(phi_measure: _Measure, g_values, budget: float) -> GoalBound:
    """:func:`xi_bounds` of Phi's site-total CGF with the extensive budget
    ``budget``, divided by N: the shared tail of both bounds, and the way in
    for a caller that already holds the relative entropy."""
    bound = xi_bounds(phi_measure.site_total_cgf(g_values), budget)
    return bound.scaled(1.0 / phi_measure.num_sites)


def triple_norm_xi(phi_measure: _Measure, psi_interaction: Interaction, g_values) -> GoalBound:
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
    return _site_xi(phi_measure, g_values, surrogate)


def spin_observable(interaction: Interaction) -> np.ndarray:
    """The magnetization observable g(s) = s, aligned with the spin states."""
    return np.array(interaction.spin_states, dtype=float)
