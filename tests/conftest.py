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


def close_pair(rng, n, eps):
    """(P, Q) on n atoms whose weights are multiples of 2^-52 that sum to
    exactly 1, Q off P by relative differences of up to about ``eps`` (at
    most 1): so the float weights are the measures, and a sum over them has
    one exact value to test against."""
    unit = 2**52
    k = rng.integers(unit // (2 * n), unit // n, n - 1)
    k = np.append(k, unit - k.sum())
    moved = k * (1.0 + eps * rng.uniform(-0.9, 0.9, n))
    j = np.rint(moved[:-1] * (unit / moved.sum())).astype(np.int64)
    j = np.append(j, unit - j.sum())
    return DiscreteDistribution(k / unit), DiscreteDistribution(j / unit)


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
    """50-digit ``(K(c), K'(c))`` for ``K(c) = log sum_i w_i exp(c (f_i -
    mean)) - log sum_i w_i`` over every atom as given, none merged: the
    oracle for an EmpiricalCgf.  K' is the tilted mean of ``f_i - mean``."""
    import mpmath

    with mpmath.workdps(50):
        w = [mpmath.mpf(float(x)) for x in weights]
        f = [mpmath.mpf(float(x)) for x in values]
        total = mpmath.fsum(w)
        mean = mpmath.fsum(a * b for a, b in zip(w, f)) / total
        c = mpmath.mpf(c)
        tilted = [a * mpmath.exp(c * (b - mean)) for a, b in zip(w, f)]
        norm = mpmath.fsum(tilted)
        slope = mpmath.fsum(t * (b - mean) for t, b in zip(tilted, f)) / norm
        return float(mpmath.log(norm / total)), float(slope)


def assert_cgf_matches_oracle(cgf, weights, values):
    """K and K' agree with the unmerged oracle within 1e-13 relative at c
    in {+-1e-8, +-0.3, +-5, +-200}.  Past ``|c| max|d| = 1`` the tilted
    mean less the mean's rounding residual carries an absolute error of a
    few ulps of ``max|d|``, and K a few ulps of ``|c| max|d|``, so those
    floors are allowed on top."""
    span = float(np.max(np.abs(np.asarray(values) - cgf.mean)))
    for c in (1e-8, -1e-8, 0.3, -0.3, 5.0, -5.0, 200.0, -200.0):
        want, want_slope = mp_centered_cgf(weights, values, c)
        value, slope = cgf.evaluate(c)
        floor = 8.0 * math.ulp(1.0) * span
        assert value == pytest.approx(want, rel=1e-13, abs=floor * abs(c)), c
        assert slope == pytest.approx(want_slope, rel=1e-13, abs=floor), c


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
