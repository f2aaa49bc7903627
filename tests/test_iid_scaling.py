import math

import numpy as np
import pytest

from conftest import product_measure, random_distribution, random_triple
from infoscale import (
    ParameterError,
    chi_squared,
    divergence_report,
    hellinger,
    iid_scaled_divergences,
    relative_entropy,
    renyi_divergence,
    xi_tensorized,
)


def enumeration_oracle(pw, qw, n, alpha):
    """Raw-numpy product-measure divergences over all |S|^N outcomes."""
    pn = product_measure(pw, n)
    qn = product_measure(qw, n)
    kl = float(np.sum(qn * np.log(qn / pn)))
    chi2 = float(np.sum(qn**2 / pn)) - 1.0
    h = math.sqrt(float(np.sum((np.sqrt(qn) - np.sqrt(pn)) ** 2)))
    renyi = math.log(float(np.sum(qn**alpha * pn ** (1.0 - alpha)))) / (alpha - 1.0)
    return kl, renyi, chi2, h


def test_n_equal_one_matches_single_site(rng):
    p = random_distribution(rng, 4)
    q = random_distribution(rng, 4)
    rep = iid_scaled_divergences(p, q, 1, alpha=1.7)
    assert rep.kl == pytest.approx(relative_entropy(q, p), abs=1e-14)
    assert rep.chi2 == pytest.approx(chi_squared(q, p), abs=1e-14)
    assert rep.hellinger == pytest.approx(hellinger(q, p), abs=1e-14)
    assert rep.renyi == pytest.approx(renyi_divergence(q, p, 1.7), abs=1e-14)


def test_closed_forms_match_enumeration(rng):
    for _ in range(40):
        n_states = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        alpha = float(rng.uniform(1.2, 3.0))
        p = random_distribution(rng, n_states)
        q = random_distribution(rng, n_states)
        kl, renyi, chi2, h = enumeration_oracle(p.weights, q.weights, n, alpha)
        rep = iid_scaled_divergences(p, q, n, alpha=alpha)
        assert rep.kl == pytest.approx(kl, abs=1e-10)
        assert rep.renyi == pytest.approx(renyi, abs=1e-10)
        assert rep.chi2 == pytest.approx(chi2, abs=1e-10)
        assert rep.hellinger == pytest.approx(h, abs=1e-10)


def test_hellinger_saturates_at_sqrt_two(rng):
    p = random_distribution(rng, 3)
    q = random_distribution(rng, 3)
    values = [iid_scaled_divergences(p, q, n).hellinger for n in (1, 10, 100, 10_000)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_chi2_overflow_guard(rng):
    p = random_distribution(rng, 3)
    q = random_distribution(rng, 3)
    rep = iid_scaled_divergences(p, q, 10**9)
    assert rep.chi2 == math.inf
    assert math.isfinite(rep.kl)
    assert rep.hellinger == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_product_report_has_no_tv():
    p = random_distribution(np.random.default_rng(1), 3)
    q = random_distribution(np.random.default_rng(2), 3)
    assert iid_scaled_divergences(p, q, 3).tv is None
    assert divergence_report(p, q).tv is not None


def test_invalid_n(rng):
    p = random_distribution(rng, 3)
    with pytest.raises(ParameterError):
        iid_scaled_divergences(p, p, 0)


@pytest.mark.parametrize("n", [math.nan, math.inf, "3", True, 2.5, -1.0])
@pytest.mark.parametrize("product", [
    lambda p, q, f, n: iid_scaled_divergences(p, q, n),
    lambda p, q, f, n: xi_tensorized(p, q, f, n),
], ids=["iid_scaled_divergences", "xi_tensorized"])
def test_n_must_be_a_positive_integer(rng, product, n):
    p, q, f = random_triple(rng)
    with pytest.raises(ParameterError, match="N must be a positive integer"):
        product(p, q, f, n)
    assert product(p, q, f, 2.0) == product(p, q, f, 2)
