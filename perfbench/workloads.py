"""The benchmark's workloads: the inputs each seed draws and the CLI jobs run on them.

Every job is one ``python -m infoscale.cli`` invocation.  There are two
workloads: ``phase-sweeps`` (the ``figure`` presets and two ``phase``
sweeps) and ``markov-gibbs`` (the dense chains, the banded chains and the
Gibbs volumes, one after the other in each pass).  Inputs are drawn with
``random.Random`` seeded from the job group's name (``markov-dense``,
``markov-sparse`` or ``gibbs-enum`` within ``markov-gibbs``) and the seed,
so one seed always writes byte-identical files.  The draws are narrow on purpose:
which minimizations end at the optimizer's cap, and which Perron solves
fall back to a dense eigensolve, must not change from seed to seed, or the
work per item (and so ``items_per_s``) would depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

PRESETS = ("2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b")
PRESET_ROWS = {"2a": 191, "2b": 301, "3a": 191, "3b": 301, "4a": 191, "4b": 191, "5a": 191, "5b": 301}

WORKLOADS = ("phase-sweeps", "markov-gibbs")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``kind`` selects the output check (``sweep``, ``markov`` or ``gibbs``);
    ``items`` is what the job contributes to ``items_per_s``: grid points for
    a sweep, 1 for a chain pair or a Gibbs bound.  ``expect`` holds values the
    output must report exactly (the number of Gibbs sites).
    """

    name: str
    args: tuple[str, ...]
    kind: str
    items: int
    expect: tuple[tuple[str, float], ...] = ()


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return str(path)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# phase-sweeps
# ---------------------------------------------------------------------------

H_SWEEP = ("-1.0", "1.0", "0.02")  # 101 points
BETA_SWEEP = ("0.1", "1.1", "0.01")  # 101 points, through beta_c = 0.44 / J


def phase_jobs(seed: int, root: Path) -> list[Job]:
    rng = _rng("phase-sweeps", seed)
    jobs = [Job(f"figure-{p}", ("figure", p), "sweep", PRESET_ROWS[p]) for p in PRESETS]

    j1, beta = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    q1 = _write(root / "ising1d.json", {"kind": "ising1d", "beta": beta, "J": j1, "h": 0.0})
    p1 = _write(root / "meanfield1d.json", {"kind": "meanfield", "beta": beta, "J": j1, "h": 0.0})
    start, stop, step = H_SWEEP
    jobs.append(Job("phase-ising1d-h", ("phase", "--q", q1, "--p", p1, "--sweep", "h",
                                        "--start", start, "--stop", stop, "--step", step),
                    "sweep", 101))

    j2, h2 = rng.uniform(0.8, 1.2), rng.uniform(0.0, 0.05)
    q2 = _write(root / "ising2d.json", {"kind": "ising2d", "beta": 1.0, "J": j2, "branch": "plus"})
    p2 = _write(root / "meanfield2d.json",
                {"kind": "meanfield", "beta": 1.0, "J": j2, "h": h2, "d": 2, "branch": "upper"})
    start, stop, step = BETA_SWEEP
    jobs.append(Job("phase-ising2d-beta", ("phase", "--q", q2, "--p", p2, "--sweep", "beta",
                                           "--start", start, "--stop", stop, "--step", step),
                    "sweep", 101))
    return jobs


# ---------------------------------------------------------------------------
# markov-gibbs: dense chains (markov-dense) and banded chains (markov-sparse)
# ---------------------------------------------------------------------------

def _normalized(rows: list[list[float]]) -> list[list[float]]:
    return [[x / sum(row) for x in row] for row in rows]


def dense_pair(rng: random.Random, n: int):
    """Independent chains with every weight in [0.1, 1.1) before normalizing."""
    draw = lambda: [[0.1 + rng.random() for _ in range(n)] for _ in range(n)]
    return _normalized(draw()), _normalized(draw())


def banded_pair(rng: random.Random, n: int, low_state: int):
    """Tridiagonal ring chains with self-loops (irreducible and aperiodic).

    P's three weights per row are drawn from [1, 2), so ``-log P(x, x)``
    lies in [0.69, 1.61], except that the self-loop of ``low_state`` (where
    the observable is smallest) weighs [0.02, 0.03), so
    ``-log P(low, low)`` exceeds 4.2.  Q multiplies each of P's weights by
    ``exp(u)``, u in [-0.1, 0.1], and one off-diagonal weight by ``e^-3``
    in a drawn row other than ``low_state``'s.  Then ``sup log|Q/P|`` lies
    in [2.2, 3.0] and the row relative entropies stay below 0.55.

    The upper bound reaches its trivial value ``max g`` only as c -> inf
    when the entropy budget exceeds ``-log P(x*, x*)`` at the observable's
    largest state x*, and the lower bound likewise at ``low_state``.  So on
    every seed exactly one of the six minimizations ends at the optimizer's
    cap (the upper ``sup_log_ratio`` bound), and its evaluations at large c
    underflow the tilted matrix and stall the Perron power iteration.
    """
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in (i - 1, i, i + 1):
            weights[i][j % n] = 1.0 + rng.random()
    weights[low_state][low_state] = rng.uniform(0.02, 0.03)
    q_weights = [[w * math.exp(rng.uniform(-0.1, 0.1)) if w else 0.0
                  for w in row] for row in weights]
    row = rng.choice([i for i in range(n) if i != low_state])
    column = (row + rng.choice((-1, 1))) % n
    q_weights[row][column] *= math.exp(-3.0)
    return _normalized(weights), _normalized(q_weights)


def _markov_job(root: Path, name: str, pair, observable, extra=()) -> Job:
    p, q = pair
    args = ("markov", "--cheap",
            "--p", _write(root / f"{name}-p.json", {"rows": p}),
            "--q", _write(root / f"{name}-q.json", {"rows": q}),
            "--observable", _write(root / f"{name}-g.json", {"values": observable}))
    return Job(name, args + tuple(extra), "markov", 1)


def markov_dense_jobs(seed: int, root: Path) -> list[Job]:
    rng = _rng("markov-dense", seed)
    jobs = []
    for n in (3, 30, 100, 300):
        pair = dense_pair(rng, n)
        g = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        extra = ("--enumerate", "12") if n == 3 else ()
        jobs.append(_markov_job(root, f"dense-n{n}", pair, g, extra))
    return jobs


def markov_sparse_jobs(seed: int, root: Path) -> list[Job]:
    rng = _rng("markov-sparse", seed)
    jobs = []
    for n in (10, 30):
        g = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        pair = banded_pair(rng, n, g.index(min(g)))
        jobs.append(_markov_job(root, f"banded-n{n}", pair, g))
    return jobs


# ---------------------------------------------------------------------------
# markov-gibbs: Gibbs volumes (gibbs-enum)
# ---------------------------------------------------------------------------

def _interaction(d: int, terms) -> dict:
    return {"d": d, "clusters": [
        {"offsets": offsets, "type": "pair_product" if len(offsets) == 2 else "field",
         "coeff": coeff}
        for offsets, coeff in terms
    ]}


def gibbs_pair(rng: random.Random, d: int, next_nearest: bool):
    """Ferromagnetic baseline Phi and a target Psi with stronger couplings.

    Coefficients include beta; a negative coefficient favours aligned spins
    (pairs) or +1 spins (field).  The coupling change is large enough that
    the triple-norm surrogate ``2 N |||Phi - Psi|||`` exceeds
    ``-log mu(all +1)`` and ``-log mu(all -1)``, so the triple-norm bound
    ends at the optimizer's cap on every seed, while the exact relative
    entropy stays below both and the finite-volume bound has an interior
    optimum.
    """
    origin = [0] * d
    axes = [[1 if i == a else 0 for i in range(d)] for a in range(d)]
    phi, psi = [], []
    for axis in axes:
        a = rng.uniform(0.3, 0.5)
        phi.append(([origin, axis], -a))
        psi.append(([origin, axis], -(a + rng.uniform(0.15, 0.2))))
    if next_nearest:
        k = rng.uniform(0.1, 0.2)
        phi.append(([[0], [2]], -k))
        psi.append(([[0], [2]], -(k + rng.uniform(0.05, 0.1))))
    b = rng.uniform(0.0, 0.1)
    phi.append(([origin], -b))
    psi.append(([origin], -(b + rng.uniform(0.2, 0.25))))
    return _interaction(d, phi), _interaction(d, psi)


def gibbs_jobs(seed: int, root: Path) -> list[Job]:
    rng = _rng("gibbs-enum", seed)
    jobs = []
    for name, d, nnn, half, sites in (("chain-nn-n8", 1, False, 8, 17),
                                      ("chain-nnn-n8", 1, True, 8, 17),
                                      ("square-n1", 2, False, 1, 9)):
        phi, psi = gibbs_pair(rng, d, nnn)
        args = ("gibbs", "--phi", _write(root / f"{name}-phi.json", phi),
                "--psi", _write(root / f"{name}-psi.json", psi), "--n", str(half))
        jobs.append(Job(name, args, "gibbs", 1, (("num_sites", sites),)))
    return jobs


def markov_gibbs_jobs(seed: int, root: Path) -> list[Job]:
    return markov_dense_jobs(seed, root) + markov_sparse_jobs(seed, root) + gibbs_jobs(seed, root)


GENERATORS = {
    "phase-sweeps": phase_jobs,
    "markov-gibbs": markov_gibbs_jobs,
}

# Span names that must record at least one call in a traced pass of each
# workload; a wrapper that exists but never fires fails the traced run.
EXPECTED_SPANS = {
    "phase-sweeps": ("cli.main", "jsonio.load", "sweep.run", "sweep.evaluate",
                     "exact_models.phase_point", "exact_models.meanfield_solve",
                     "exact_models.model_cgf", "exact_models.onsager",
                     "exact_models.re_rate", "quadrature.simpson", "optimize.minimize"),
    "markov-gibbs": ("cli.main", "jsonio.load", "optimize.minimize", "goal_oriented.xi_bounds",
                     "goal_oriented.cgf", "markov.perron", "markov.stationary", "markov.iact",
                     "markov.path_enum", "numpy.eigvals", "gibbs.measure", "gibbs.xi",
                     "gibbs.log_partition"),
}


def generate(workload: str, seed: int, root: Path) -> list[Job]:
    """Write the seed's input files under ``root`` and return the jobs."""
    root.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, root)
