"""Scalable information-divergence bounds for quantities of interest.

The package computes classical information divergences and QoI bounds on
finite supports, the goal-oriented (CGF-optimized) bounds that remain tight
for high-dimensional product and Markov structures, their Markov-chain rate
analogues, exact finite-volume Gibbs-measure bounds, and closed-form
Ising/mean-field phase-diagram sweeps.

Public names are loaded on first access (PEP 562), so ``import infoscale``
imports no submodule and no numpy; ``infoscale.X`` is the object that its
submodule defines.
"""

import importlib

# Submodule -> the public names it provides.
_EXPORTS = {
    "divergences": (
        "ClassicalBounds",
        "DiscreteDistribution",
        "DivergenceReport",
        "Observable",
        "chi_squared",
        "classical_qoi_bounds",
        "dashti_stuart_half_width",
        "divergence_report",
        "hellinger",
        "iid_scaled_divergences",
        "relative_entropy",
        "renyi_divergence",
        "total_variation",
    ),
    "errors": (
        "AbsoluteContinuityError",
        "DimensionError",
        "EnumerationLimitError",
        "InfoscaleError",
        "NormalizationError",
        "NumericsError",
        "ParameterError",
        "StructureError",
        "UnboundedObservableError",
        "UnsupportedModelError",
    ),
    "exact_models": (
        "Ising1DParams",
        "Ising2DParams",
        "MeanFieldParams",
        "PhasePoint",
        "cross_model_re_rate",
        "ising1d_quantities",
        "ising2d_critical_beta",
        "ising2d_quantities",
        "meanfield_solve",
        "model_cgf",
    ),
    "gibbs": (
        "GibbsMeasure",
        "Interaction",
        "LatticeVolume",
        "SpinCluster",
        "finite_volume_xi",
        "gibbs_relative_entropy",
        "hamiltonian",
        "ising_interaction",
        "log_partition",
        "spin_product_cluster",
        "triple_norm",
        "triple_norm_xi",
    ),
    "goal_oriented": (
        "AnalyticCgf",
        "CgfSource",
        "EmpiricalCgf",
        "GoalBound",
        "linearized_half_width",
        "xi_bounds",
        "xi_tensorized",
    ),
    "markov": (
        "CheapRateBounds",
        "RateBound",
        "TransitionMatrix",
        "cheap_rate_bounds",
        "chi2_rate",
        "integrated_autocorrelation",
        "lambda_pg",
        "path_divergence_report",
        "relative_entropy_rate",
        "renyi_rate",
        "stationary_distribution",
        "xi_rate_bounds",
    ),
    "sweep": ("SweepConfig", "figure_preset", "run_sweep"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read the attribute on every access rather than caching it here, so a
    # later rebinding in the submodule is what ``infoscale.X`` returns.
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
