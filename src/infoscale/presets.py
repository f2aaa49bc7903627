"""The figure presets: for each preset name, the target model spec, the
baseline model spec and the swept parameter.

The specs are ``jsonio`` model-spec dicts.  A preset sweeps over
``sweep.BETA_GRID`` or ``sweep.H_GRID``, as its parameter says
(:func:`infoscale.sweep.figure_preset`).  This module is data only and
imports nothing, so the CLI parser reads the preset names without loading
the model layer.
"""

FIGURE_PRESETS = {
    # Mean field vs mean field, field perturbed, beta sweep (J = 2).
    "2a": ({"kind": "meanfield", "beta": 1.0, "J": 2.0, "h": 0.6},
           {"kind": "meanfield", "beta": 1.0, "J": 2.0, "h": 0.0}, "beta"),
    # Mean field vs mean field, beta perturbed 1.0 -> 1.6, field sweep (J = 1).
    "2b": ({"kind": "meanfield", "beta": 1.6, "J": 1.0},
           {"kind": "meanfield", "beta": 1.0, "J": 1.0}, "h"),
    # 1-D Ising vs its mean-field surrogate, beta sweep (J = 1, h = 0).
    "3a": ({"kind": "ising1d", "beta": 1.0, "J": 1.0, "h": 0.0},
           {"kind": "meanfield", "beta": 1.0, "J": 1.0, "h": 0.0}, "beta"),
    # 1-D Ising vs mean field, field sweep (beta = 1, J = 1).
    "3b": ({"kind": "ising1d", "beta": 1.0, "J": 1.0},
           {"kind": "meanfield", "beta": 1.0, "J": 1.0}, "h"),
    # 2-D zero-field Ising vs 2-D mean field, beta sweep, h -> 0+ branches.
    "4a": ({"kind": "ising2d", "beta": 1.0, "J": 1.0, "branch": "plus"},
           {"kind": "meanfield", "beta": 1.0, "J": 1.0, "d": 2, "branch": "upper"}, "beta"),
    # Same as 4a with the h -> 0- branches.
    "4b": ({"kind": "ising2d", "beta": 1.0, "J": 1.0, "branch": "minus"},
           {"kind": "meanfield", "beta": 1.0, "J": 1.0, "d": 2, "branch": "lower"}, "beta"),
    # 1-D Ising h = 0 baseline vs h = 0.6 target, beta sweep (J = 1).
    "5a": ({"kind": "ising1d", "beta": 1.0, "J": 1.0, "h": 0.6},
           {"kind": "ising1d", "beta": 1.0, "J": 1.0, "h": 0.0}, "beta"),
    # 1-D Ising beta = 1 baseline vs beta = 1.6 target, field sweep (J = 1).
    "5b": ({"kind": "ising1d", "beta": 1.6, "J": 1.0},
           {"kind": "ising1d", "beta": 1.0, "J": 1.0}, "h"),
}

PRESET_NAMES = tuple(sorted(FIGURE_PRESETS))
