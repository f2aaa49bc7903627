import math

import numpy as np
import pytest

from infoscale import DiscreteDistribution, Observable, TransitionMatrix


def random_distribution(rng, n, floor=0.05):
    """A strictly positive probability vector (mutual AC with any other)."""
    w = rng.random(n) + floor
    return DiscreteDistribution(w / w.sum())


def random_triple(rng, n=None):
    """(P, Q, f) with mutually absolutely continuous P, Q and bounded f."""
    if n is None:
        n = int(rng.integers(2, 6))
    p = random_distribution(rng, n)
    q = random_distribution(rng, n)
    f = Observable(rng.uniform(-1.0, 1.0, n))
    return p, q, f


def random_chain(rng, n, floor=0.1):
    rows = rng.random((n, n)) + floor
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


def product_measure(weights, n):
    """Brute-force N-fold product weights by repeated Kronecker products."""
    out = np.ones(1)
    for _ in range(n):
        out = np.kron(out, weights)
    return out


def mp_centered_cgf(weights, values, c):
    """50-digit ``log sum_i w_i exp(c (f_i - mean)) - log sum_i w_i`` over
    every atom as given, none merged: the oracle for an EmpiricalCgf."""
    import mpmath

    with mpmath.workdps(50):
        w = [mpmath.mpf(float(x)) for x in weights]
        f = [mpmath.mpf(float(x)) for x in values]
        total = mpmath.fsum(w)
        mean = mpmath.fsum(a * b for a, b in zip(w, f)) / total
        c = mpmath.mpf(c)
        return float(mpmath.log(mpmath.fsum(a * mpmath.exp(c * (b - mean)) for a, b in zip(w, f)) / total))


def assert_cgf_matches_oracle(cgf, weights, values):
    """K agrees with the unmerged oracle within 1e-13 relative at c in
    {+-1e-8, +-0.3, +-5, +-200}.  Near c = 0 the float sum of
    ``w_i expm1(c d_i)`` carries an absolute error of a few ulps of
    ``|c| max|d|``, which at |c| = 1e-8 is ~1e-9 of K itself (merged or
    not), so that floor is allowed on top."""
    span = float(np.max(np.abs(np.asarray(values) - cgf.mean)))
    for c in (1e-8, -1e-8, 0.3, -0.3, 5.0, -5.0, 200.0, -200.0):
        want = mp_centered_cgf(weights, values, c)
        floor = 8.0 * math.ulp(1.0) * abs(c) * span
        assert cgf.evaluate(c) == pytest.approx(want, rel=1e-13, abs=floor), c


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
