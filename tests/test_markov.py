import dataclasses
import itertools
import json
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import close_pair, random_chain, random_distribution
import infoscale.markov as markov
from infoscale import (
    AbsoluteContinuityError,
    AnalyticCgf,
    DimensionError,
    DiscreteDistribution,
    EmpiricalCgf,
    NormalizationError,
    NumericsError,
    Observable,
    ParameterError,
    StructureError,
    TransitionMatrix,
    UnboundedObservableError,
    cheap_rate_bounds,
    chi2_rate,
    integrated_autocorrelation,
    lambda_pg,
    path_divergence_report,
    relative_entropy,
    relative_entropy_rate,
    renyi_rate,
    stationary_distribution,
    xi_rate_bounds,
)
from infoscale.jsonio import load_chain
from infoscale.markov import hellinger_rate_limit, path_cgf, perron_root


class TestTransitionMatrix:
    def test_row_sum_validation(self):
        with pytest.raises(NormalizationError):
            TransitionMatrix([[0.5, 0.4], [0.3, 0.7]])

    def test_negative_entries(self):
        with pytest.raises(NormalizationError):
            TransitionMatrix([[1.2, -0.2], [0.5, 0.5]])

    def test_reducible_rejected(self):
        with pytest.raises(StructureError):
            TransitionMatrix([[1.0, 0.0], [0.5, 0.5]])

    def test_labels_become_strings(self):
        assert TransitionMatrix([[0.5, 0.5], [0.5, 0.5]], labels=[0, "b"]).labels == ("0", "b")
        assert TransitionMatrix([[1.0]]).labels is None

    def test_label_count_mismatch_names_the_file(self, tmp_path):
        with pytest.raises(DimensionError, match="label count does not match"):
            TransitionMatrix([[0.5, 0.5], [0.5, 0.5]], labels=["a"])
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"rows": [[0.5, 0.5], [0.5, 0.5]], "labels": ["a", "b", "c"]}))
        with pytest.raises(DimensionError, match=f"^{re.escape(str(path))}: label count"):
            load_chain(path)

    @pytest.mark.parametrize("labels", [
        "ab", {"a": 1, "b": 2}, ["a", None], [True, "b"], [["a"], "b"], None,
    ], ids=["string", "object", "null", "boolean", "nested-list", "null-field"])
    def test_labels_must_be_a_list_of_strings_or_numbers(self, tmp_path, labels):
        # Each used to load: a string as its characters, an object as its
        # keys, null, booleans and lists as their text, and a null field as
        # no labels.
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"rows": [[0.5, 0.5], [0.5, 0.5]], "labels": labels}))
        with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: field 'labels'"):
            load_chain(path)
        path.write_text(json.dumps({"rows": [[0.5, 0.5], [0.5, 0.5]], "labels": [1, "b"]}))
        assert load_chain(path).labels == ("1", "b")


def _mp_law(rows) -> mpmath.matrix:
    """The stationary law of the float rows at the caller's mpmath precision,
    each diagonal taken as one minus the row's off-diagonal sum, as for any
    stochastic matrix."""
    n = rows.shape[0]
    m = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in rows])
    for i in range(n):
        m[i, i] = 1 - mpmath.fsum(m[i, j] for j in range(n) if j != i)
    a = mpmath.matrix([[m[j, i] - (i == j) for j in range(n)] for i in range(n - 1)] + [[1] * n])
    return mpmath.lu_solve(a, mpmath.matrix([0] * (n - 1) + [1]))


class TestStationary:
    def test_doubly_stochastic_gives_uniform(self):
        p = TransitionMatrix([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        assert np.allclose(stationary_distribution(p).weights, 1.0 / 3.0, atol=1e-12)

    def test_two_state_closed_form(self, rng):
        for _ in range(20):
            a, b = rng.uniform(0.05, 0.95, 2)
            p = TransitionMatrix([[1 - a, a], [b, 1 - b]])
            mu = stationary_distribution(p).weights
            assert np.allclose(mu, np.array([b, a]) / (a + b), atol=1e-12)

    def test_uniform_mixing_chain(self):
        # Convex mix of identity and the uniform kernel keeps uniform invariant.
        n = 4
        p = TransitionMatrix(0.6 * np.eye(n) + 0.4 * np.full((n, n), 1.0 / n))
        assert np.allclose(stationary_distribution(p).weights, 0.25, atol=1e-12)

    def test_fixed_point_residual(self, rng):
        p = random_chain(rng, 5)
        mu = stationary_distribution(p).weights
        assert np.max(np.abs(mu @ p.rows - mu)) < 1e-12

    @pytest.mark.parametrize("e", [1e-12, 1e-40, 1e-300])
    def test_a_tiny_exit_keeps_its_digits(self, e):
        # mu_2 = 2e / (1 + 2e).  An LU solve of the balance equations, which
        # forms 1 - P(1, 1), gave 1.99996e-12, 0.0 and 0.0.
        mu = stationary_distribution(TransitionMatrix([[1.0 - e, e], [0.5, 0.5]])).weights
        with mpmath.workdps(50):
            want = float(2 * mpmath.mpf(e) / (1 + 2 * mpmath.mpf(e)))
        assert abs(mu[1] - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-14])
    def test_nearly_decomposable_chains_match_60_digit_laws(self, eps):
        # Two 3-state blocks coupled by eps.  An LU solve was up to 1.1e-12,
        # 1.5e-8, 1.1e-4 and 9.9e-3 relative off at these eps.
        rng = np.random.default_rng(6)
        coupling = np.kron(np.eye(2), np.ones((3, 3))) == 0
        for _ in range(10):
            weights = rng.uniform(0.1, 1.1, (6, 6))
            weights[coupling] *= eps
            p = TransitionMatrix(weights / weights.sum(axis=1, keepdims=True))
            with mpmath.workdps(60):
                want = [float(x) for x in _mp_law(p.rows)]
            np.testing.assert_allclose(stationary_distribution(p).weights, want,
                                       rtol=1e-14, atol=0.0)


# A banded ten-state ring on which the tilted power iterate underflows to an
# exact zero entry at c = -256 (the Collatz-Wielandt ratios were then inf).
_BANDED_RING = [
    {0: 0.3715932226001421, 1: 0.3126093377257437, 9: 0.3157974396741143},
    {0: 0.2995026117221687, 1: 0.4479236308146528, 2: 0.25257375746317856},
    {1: 0.3169721805476498, 2: 0.4299958763180063, 3: 0.25303194313434396},
    {2: 0.34293863483191667, 3: 0.35730168482011676, 4: 0.2997596803479666},
    {3: 0.3073108568712117, 4: 0.3062362189111934, 5: 0.38645292421759486},
    {4: 0.320009408747186, 5: 0.36696561452243465, 6: 0.3130249767303795},
    {5: 0.32611914147771903, 6: 0.3271566008070784, 7: 0.34672425771520254},
    {6: 0.25975979695058554, 7: 0.4513722708911506, 8: 0.2888679321582638},
    {7: 0.33930164712468663, 8: 0.32741962091761545, 9: 0.33327873195769786},
    {0: 0.3760236182342388, 8: 0.3554452945921432, 9: 0.2685310871736181},
]
_BANDED_G = [
    -0.5512905201291309, -0.8234168261622958, 0.7570549196391525,
    -0.2763710097211338, -0.9497444944343307, 0.26058280678744405,
    -0.4370710728638083, -0.26954032943467676, 0.16657638552631027,
    0.3414065456583233,
]


class TestPerron:
    def test_two_state_characteristic_polynomial(self, rng):
        # Quadratic-formula root of det(M - x I) as the independent oracle.
        for _ in range(25):
            m = rng.uniform(0.0, 2.0, (2, 2))
            m[0, 1] = max(m[0, 1], 1e-3)
            m[1, 0] = max(m[1, 0], 1e-3)
            tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            root = 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))
            assert perron_root(m)[0] == pytest.approx(root, abs=1e-10)

    def test_periodic_pattern_converges(self):
        # Pure off-diagonal pattern: power iteration oscillates and never
        # settles, so the dense solve gives the root.
        m = np.array([[0.0, 4.0], [1.0, 0.0]])
        assert perron_root(m)[0] == pytest.approx(2.0, abs=1e-11)

    def test_stochastic_matrix_has_root_one(self, rng):
        p = random_chain(rng, 4)
        assert perron_root(p.rows)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # On either route (2 states dense, 30 power) they would otherwise
        # reach numpy's eigensolve and leak its LinAlgError.
        for n in (2, 30):
            m = np.ones((n, n))
            m[0, 1] = bad
            with pytest.raises(ParameterError, match="finite"):
                perron_root(m)

    def test_underflow_truncated_tilt_stays_bounded(self):
        # An extreme tilt underflows all but one column, leaving a reducible
        # pattern whose root is the surviving diagonal entry; the shifted
        # iteration stalls there and must fall back without diverging.
        rows = np.array([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
        rows[0, 2] = 1e-12
        rows[0, :] /= rows[0, :].sum()
        p = TransitionMatrix(rows)
        g = Observable([0.0, 0.0, 1.0])
        value = lambda_pg(p, g, 5000.0)
        assert math.isfinite(value)
        # lambda(c)/c tends to max(g) - E(g) < 1 from below at huge tilts.
        assert value <= 5000.0

    def test_underflowed_iterate_falls_back_to_dense_solve(self):
        rows = np.zeros((10, 10))
        for x, row in enumerate(_BANDED_RING):
            for y, value in row.items():
                rows[x, y] = value
        p = TransitionMatrix(rows)
        g = Observable(_BANDED_G)
        mu = stationary_distribution(p).weights
        centered = g.values - float(mu @ g.values)
        for c in (-128.0, -256.0, -512.0):
            tilt = c * centered
            shift = float(np.max(tilt))
            dense = np.max(np.linalg.eigvals(rows * np.exp(tilt - shift)[None, :]).real)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                value = lambda_pg(p, g, c)
                route = markov._PerronRoute(power=True)
                forced = perron_root(rows * np.exp(tilt - shift)[None, :], route)[0]
            assert math.isfinite(value)
            assert value == pytest.approx(math.log(dense) + shift, rel=1e-12)
            assert route.power is (c == -128.0)  # past it the power iteration falls back
            assert forced == pytest.approx(dense, rel=1e-12)


@st.composite
def _cyclic_patterns(draw):
    """A strongly connected pattern on 1 to 12 states whose edges all run
    from class k to class k + 1 (mod d), d in 1..4: a Hamiltonian cycle
    through the classes in turn plus each other allowed edge with a drawn
    probability, in a drawn state order."""
    d = draw(st.one_of(st.just(1), st.integers(2, 4)))
    n = d * draw(st.integers(1, 12 // d))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    uniform = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    keep = np.reshape(uniform, (n, n)) < density
    index = np.arange(n)
    allowed = (index[None, :] - index[:, None] - 1) % d == 0
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    order = np.array(draw(st.permutations(range(n))))
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[np.ix_(order, order)] = ring | (allowed & keep)
    return adjacency


_TINY_ENTRIES = st.sampled_from([1e-300, 1e-200, 1e-100, 1e-30, 1e-8])


class TestPerronProperties:
    @settings(max_examples=300, deadline=None)
    @given(adjacency=_cyclic_patterns(), data=st.data())
    def test_matches_dense_eigensolve(self, adjacency, data):
        n = adjacency.shape[0]
        entries = data.draw(st.lists(st.floats(0.05, 20.0), min_size=n * n, max_size=n * n))
        for k, tiny in data.draw(st.lists(st.tuples(st.integers(0, n * n - 1), _TINY_ENTRIES),
                                          max_size=3)):
            entries[k] = tiny
        m = np.where(adjacency, np.reshape(entries, (n, n)), 0.0)
        dense = float(np.max(np.linalg.eigvals(m).real))
        assert perron_root(m)[0] == pytest.approx(dense, rel=1e-12, abs=0.0)
        # Below _DENSE_BELOW states the power route runs only when forced.
        forced = perron_root(m, markov._PerronRoute(power=True))[0]
        assert forced == pytest.approx(dense, rel=1e-12, abs=0.0)

    def test_dense_chain_needs_no_eigensolve(self, monkeypatch):
        # A positive 300-state chain mixes in a few steps; the power
        # iteration must settle on it without the O(n^3) dense solve.
        rng = np.random.default_rng(300)
        rows = rng.random((300, 300)) + 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        p = TransitionMatrix(rows)
        g = Observable(rng.uniform(-1.0, 1.0, 300))
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m))
        assert perron_root(rows)[0] == pytest.approx(1.0, rel=1e-12)
        for c in (-5.0, 0.5, 20.0):
            assert math.isfinite(lambda_pg(p, g, c))
        assert calls == []


def _banded_chain():
    rows = np.zeros((10, 10))
    for x, row in enumerate(_BANDED_RING):
        for y, value in row.items():
            rows[x, y] = value
    return TransitionMatrix(rows), Observable(_BANDED_G)


class TestPerronVectors:
    @staticmethod
    def _assert_eigenvectors(m):
        rho, left, right = perron_root(m)
        assert np.all(left >= 0.0) and np.all(right >= 0.0)
        assert np.max(np.abs(left @ m - rho * left)) <= 1e-12 * rho * np.max(left)
        assert np.max(np.abs(m @ right - rho * right)) <= 1e-12 * rho * np.max(right)

    def test_power_iteration_vectors(self, rng, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", None)  # no dense solve
        for n in (markov._DENSE_BELOW, markov._DENSE_BELOW + 8, 40):
            self._assert_eigenvectors(rng.uniform(0.5, 2.0, (n, n)))

    def test_dense_solve_vectors(self, rng):
        # Small positive matrices take the dense route by size; a periodic
        # pattern and a banded ring at a tilt the power iteration does not
        # settle would take it on any route.
        for n in (3, 8):
            self._assert_eigenvectors(rng.uniform(0.5, 2.0, (n, n)))
        self._assert_eigenvectors(np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0]]))
        p, g = _banded_chain()
        self._assert_eigenvectors(p.rows * np.exp(-2.0 * (g.values - g.values.max()))[None, :])

    @pytest.mark.parametrize("banded", [False, True])
    def test_lambda_slope_matches_a_central_difference(self, rng, banded, monkeypatch):
        if banded:  # 10 states, below _DENSE_BELOW: every solve is dense
            p, g = _banded_chain()
            cs = (-256.0, -3.0, -0.4, 0.7, 5.0)
        else:
            p, g = random_chain(rng, 6), Observable(rng.uniform(-1.0, 1.0, 6))
            cs = (-20.0, -1.5, -0.01, 0.3, 2.0, 40.0)
        curve = xi_rate_bounds(p, p, g).lambda_curve
        dense = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: dense.append(m) or eigvals(m))
        for c in cs:
            before = len(dense)
            value, slope = curve(c)
            step = 1e-5 * max(1.0, abs(c))
            difference = (curve(c + step)[0] - curve(c - step)[0]) / (2.0 * step)
            assert value == pytest.approx(lambda_pg(p, g, c), rel=1e-14, abs=1e-15)
            assert slope == pytest.approx(difference, rel=1e-6, abs=1e-9), c
            if banded and c == -256.0:
                assert len(dense) > before

    @pytest.mark.parametrize("offset", [-21, -1, 0, 16])
    def test_routes_agree(self, rng, offset):
        # One matrix on each route, on both sides of _DENSE_BELOW.
        n = markov._DENSE_BELOW + offset
        m = rng.uniform(0.5, 2.0, (n, n))
        power = markov._PerronRoute(power=True)
        rho_p, left_p, right_p = perron_root(m, power)
        rho_d, left_d, right_d = perron_root(m, markov._PerronRoute(power=False))
        assert power.power is True  # the power iteration settled
        assert rho_p == pytest.approx(rho_d, rel=1e-13, abs=0.0)
        np.testing.assert_allclose(left_p * right_p, left_d * right_d, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("c", [0.5, -256.0])
    def test_banded_curve_matches_mpmath(self, c):
        # 50-digit eigensolves of the tilted ring and of its transpose give
        # the root and the slope sum l g r / sum l r from both Perron vectors.
        p, g = _banded_chain()
        centered = g.values - float(p._stationary.weights @ g.values)
        value, slope = markov._lambda_curve(p.rows, centered, p._stationary.weights)(c)
        with mpmath.workdps(50):
            tilt = [mpmath.exp(mpmath.mpf(c) * mpmath.mpf(float(v))) for v in centered]
            m = mpmath.matrix([[mpmath.mpf(float(a)) * t for a, t in zip(row, tilt)]
                               for row in p.rows])

            def perron(matrix):
                roots, vectors = mpmath.eig(matrix)
                k = max(range(len(roots)), key=lambda i: mpmath.re(roots[i]))
                return mpmath.re(roots[k]), [mpmath.re(vectors[i, k]) for i in range(10)]

            rho, right = perron(m)
            left = perron(m.T)[1]
            overlap = [a * b for a, b in zip(left, right)]
            want_slope = sum(o * mpmath.mpf(float(v)) for o, v in zip(overlap, centered)) / sum(overlap)
            want = float(mpmath.log(rho))
        assert value == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert slope == pytest.approx(float(want_slope), rel=1e-12)


def _ring_pair(n: int, seed: int):
    """Chains q and p on one tridiagonal ring of n states (each state steps
    to itself and its two neighbours), with an observable."""
    rng = np.random.default_rng(seed)
    ring = np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
    ring |= ring.T
    p = np.where(ring, rng.uniform(0.2, 1.0, (n, n)), 0.0)
    q = p * np.exp(rng.uniform(-1.0, 1.0, (n, n)))
    return (TransitionMatrix(q / q.sum(axis=1, keepdims=True)),
            TransitionMatrix(p / p.sum(axis=1, keepdims=True)),
            Observable(rng.uniform(-1.0, 1.0, n)))


class TestPerronRoute:
    """The route is chosen once per chain; these counts do not depend on
    the machine."""

    @staticmethod
    def _count(monkeypatch, q, p, g):
        counts = {"power": 0, "dense": 0}
        power, eigvals = markov._power_iteration, np.linalg.eigvals

        def counted_power(step):
            counts["power"] += 1
            return power(step)

        def counted_eigvals(m):
            counts["dense"] += 1
            return eigvals(m)

        monkeypatch.setattr(markov, "_power_iteration", counted_power)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        cheap_rate_bounds(q, p, g)
        return counts

    def test_small_ring_runs_no_power_step(self, monkeypatch):
        counts = self._count(monkeypatch, *_ring_pair(10, 0))
        assert counts["power"] == 0 and counts["dense"] > 0

    def test_large_ring_tries_the_power_route_once(self, monkeypatch):
        # One lambda-curve serves all three bounds; its first power solve
        # falls back, and every later solve goes straight to the dense one.
        counts = self._count(monkeypatch, *_ring_pair(30, 0))
        assert counts["power"] <= 1 and counts["dense"] > 10

    def test_large_positive_chain_runs_no_dense_solve(self, monkeypatch):
        rng = np.random.default_rng(100)
        p, q = random_chain(rng, 100), random_chain(rng, 100)
        counts = self._count(monkeypatch, q, p, Observable(rng.uniform(-1.0, 1.0, 100)))
        assert counts["dense"] == 0 and counts["power"] > 10


# A periodic 4-state pattern (period 2), with tilted columns: a power
# iteration from the uniform start never settles on it, so a forced power
# route falls back to the dense solve.  (On the untilted chain it settles:
# that start is balanced between the two classes.)
_PERIODIC_4 = np.array([[0, 0, .3, .7], [0, 0, .6, .4], [.5, .5, 0, 0], [.2, .8, 0, 0]]) * [1, 2, 3, 4]


def _bits(*values) -> list[bytes]:
    return [np.asarray(v, dtype=float).tobytes() for v in values]


class TestPerronBuffers:
    """perron_root never writes its argument; _log_perron's tilted matrix,
    built in one buffer, gives the bits of the plain expression."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(24)
        dense, power = rng.uniform(0.1, 2.0, (5, 5)), rng.uniform(0.1, 2.0, (30, 30))
        return [(dense, None), (power, None), (_PERIODIC_4, True)]

    @pytest.mark.parametrize("case", range(3), ids=["dense", "power", "fallback"])
    def test_argument_is_left_unchanged(self, case):
        m, power = self._cases()[case]
        before = m.copy()
        frozen = m.copy()
        frozen.setflags(write=False)
        route = markov._PerronRoute(power)
        on_writable = perron_root(m, route)
        on_frozen = perron_root(frozen, markov._PerronRoute(power))
        assert m.tobytes() == before.tobytes() and frozen.tobytes() == before.tobytes()
        assert _bits(*on_frozen) == _bits(*on_writable)
        if power:  # the forced power route fell back: the dense route's bits
            assert route.power is False
            assert _bits(*on_writable) == _bits(*perron_root(m, markov._PerronRoute(False)))

    @pytest.mark.parametrize("case", range(3), ids=["dense", "power", "fallback"])
    @pytest.mark.parametrize("form", ["curve", "renyi"])
    def test_log_perron_matches_the_plain_tilted_matrix(self, case, form):
        # 40 tilts on each form; the 30-state Renyi form's power iteration
        # falls back unforced.
        rows, power = self._cases()[case]
        rows = rows / rows.sum(axis=1, keepdims=True)
        n = rows.shape[0]
        for seed in range(40):
            rng = np.random.default_rng(seed)
            if form == "curve":  # the lambda-curve: p(x, y) e^{c g(y)}
                base, exponents = rows, rng.uniform(-40.0, 40.0, n)
            else:  # the Renyi rate: e^{a log q + (1 - a) log p}, a zero entry at -inf
                with np.errstate(divide="ignore"):
                    base, exponents = 1.0, np.log(rows) * 3.0 + rng.uniform(-5.0, 5.0, (n, n))
            top = float(np.max(exponents))
            low = float(np.min(exponents, where=exponents > -math.inf, initial=top))
            shift = max(top - 700.0, min(top, low + 700.0))
            routes = markov._PerronRoute(power), markov._PerronRoute(power)
            got = markov._log_perron(base, exponents, routes[0])
            rho, left, right = perron_root(base * np.exp(exponents - shift), routes[1])
            assert _bits(*got) == _bits(math.log(rho) + shift, left, right)
            assert routes[0] == routes[1]
            if power:
                assert routes[0].power is False  # the forced power route fell back

    def test_power_route_over_the_whole_shifted_range(self):
        # _log_perron hands over entries from e^-700 to e^700: here most from
        # e^698 to e^700 and a fifth at e^-700.  The iterates, each divided by the
        # largest row sum (about e^702), stay finite and positive, and the
        # power route settles without a dense solve.
        n = 30
        rng = np.random.default_rng(700)
        exponents = rng.uniform(698.0, 700.0, (n, n))
        exponents[rng.random((n, n)) < 0.2] = -700.0
        exponents[0, 0] = 700.0
        m = np.exp(exponents)
        route = markov._PerronRoute()
        rho, left, right = perron_root(m, route)
        assert route.power is True  # the power iteration settled
        assert np.isfinite(left).all() and np.isfinite(right).all()
        assert (left > 0.0).all() and (right > 0.0).all()
        dense = perron_root(m, markov._PerronRoute(power=False))
        assert rho == pytest.approx(dense[0], rel=1e-12, abs=0.0)
        np.testing.assert_allclose(left, dense[1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(right, dense[2], rtol=1e-12, atol=0.0)
        # The same matrix as _log_perron builds it from exponents 1000 higher.
        log_rho = markov._log_perron(1.0, exponents + 1000.0, markov._PerronRoute())[0]
        assert log_rho == pytest.approx(math.log(dense[0]) + 1000.0, rel=1e-15)


class TestRates:
    def test_rer_zero_iff_equal(self, rng):
        p = random_chain(rng, 3)
        assert relative_entropy_rate(p, p) == 0.0
        q = random_chain(rng, 3)
        assert relative_entropy_rate(q, p) > 0.0

    def test_order_next_to_one_is_the_kl(self, rng):
        # Inside the 1e-6 window the 1/(alpha - 1) prefactor would cancel
        # catastrophically; the rate and the path report take the KL instead.
        p, q = random_chain(rng, 3), random_chain(rng, 3)
        alpha = 1.0 + 1e-7
        assert renyi_rate(q, p, alpha) == relative_entropy_rate(q, p)
        report = path_divergence_report(p, q, 5, alpha=alpha)
        assert report.renyi == report.kl > 0.0 and report.renyi_alpha == alpha

    def test_renyi_rate_with_a_subnormal_entry(self):
        # q(1,1)^2 / p(1,1) = 9e321 overflows a float; the rate is then the
        # log of that entry, up to a correction of relative size 1e-322.
        p = TransitionMatrix([[0.5, 0.5], [1.0, 1e-322]])
        q = TransitionMatrix([[0.5, 0.5], [0.05, 0.95]])
        want = 2.0 * math.log(0.95) - math.log(1e-322)
        assert renyi_rate(q, p, 2.0) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _mp_renyi_rate(q, p, alpha):
        """``log rho / (alpha - 1)`` of ``q^alpha p^(1-alpha)`` from
        ``mpmath.eig`` at 40 digits beyond the entries' spread: the eigensolve
        is accurate relative to the largest entry only, so at 40 digits alone
        an entry e^-200 beside one of e^600 counts as 0."""
        support = q.rows > 0
        logs = alpha * np.log(q.rows[support]) + (1.0 - alpha) * np.log(p.rows[support])
        with mpmath.workdps(40 + int(np.ptp(logs) / math.log(10.0))):
            a = mpmath.mpf(alpha)
            m = mpmath.matrix(q.size)
            for i, j in zip(*np.nonzero(support)):
                m[i, j] = mpmath.mpf(q.rows[i, j]) ** a * mpmath.mpf(p.rows[i, j]) ** (1 - a)
            rho = max(mpmath.re(e) for e in mpmath.eig(m, left=False, right=False))
            return float(mpmath.log(rho) / (a - 1))

    def test_renyi_rates_match_mpmath_perron_root(self, rng):
        # Dense and banded-ring chains with n <= 8, and order 20 against a p
        # whose diagonal entry 1e-40 puts an exponent above 1600, past e^709.
        # The Perron enclosure leaves _PERRON_TOL in log rho.
        cases = []
        for _ in range(24):
            n = int(rng.integers(2, 9))
            cases.append((random_chain(rng, n), random_chain(rng, n), rng.choice([0.3, 2.0, 5.0])))
        for n in (3, 5, 8):
            ring = np.eye(n) + np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1) > 0
            q, p = (TransitionMatrix(r / r.sum(axis=1, keepdims=True))
                    for r in (np.where(ring, rng.random((n, n)) + 0.1, 0.0) for _ in range(2)))
            cases.append((q, p, 2.0))
            rows = random_chain(rng, n).rows.copy()
            rows[1, 1] = 1e-40
            rows[1] /= rows[1].sum()
            cases.append((random_chain(rng, n), TransitionMatrix(rows), 20.0))
        # Order 20 with exponents [[-13.9, 600.0], [-200.4, 13.2]]: the root,
        # about e^199.8 (a rate of 10.515), is set by the 2-cycle through e^600
        # and e^-200.4.  Shifted by its maximum, e^-200.4 would underflow to 0
        # and leave the diagonal root e^13.2 (a rate of 0.69).
        cases.append((TransitionMatrix([[0.5, 0.5], [2.3e-5, 1.0 - 2.3e-5]]),
                      TransitionMatrix([[1.0 - 9.3e-15, 9.3e-15], [0.5, 0.5]]), 20.0))
        for q, p, alpha in cases:
            want = self._mp_renyi_rate(q, p, alpha)
            got = chi2_rate(q, p) if alpha == 2.0 else renyi_rate(q, p, alpha)
            assert abs(got - want) <= 1e-12 * want + markov._PERRON_TOL / abs(alpha - 1), alpha

    def test_renyi_rate_raises_when_the_shift_underflows_every_cycle(self):
        # Order 20 against p(0, 1) = 1e-40: that exponent, about 1736, is
        # shifted down to 700 and every other, about 1737 below it, to under
        # e^-1036, so each entry that closes a cycle through it underflows
        # and the root is 0.  The
        # true rate is about 45.7; a rate of 0 would be silently wrong.
        q = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        p = TransitionMatrix([[1.0, 1e-40], [0.5, 0.5]])
        with pytest.raises(NumericsError):
            renyi_rate(q, p, 20.0)

    def test_rer_matches_path_enumeration(self, rng):
        # With stationary initial laws the finite-horizon per-step KL equals
        # r + R(mu_q || mu_p)/N exactly, so a perturbed pair keeps the
        # horizon bias inside the stated windows.
        p = random_chain(rng, 3)
        q = TransitionMatrix(0.75 * p.rows + 0.25 * random_chain(rng, 3).rows)
        r = relative_entropy_rate(q, p)
        per_step = {n: path_divergence_report(p, q, n).kl / n for n in (10, 12)}
        assert abs(per_step[10] - per_step[12]) < 1e-3
        assert abs(per_step[12] - r) < 1e-2
        # The finite-horizon excess decays like C/N.
        assert abs(per_step[12] - r) < abs(per_step[10] - r) + 1e-12

    def test_rer_iid_rows_reduces_to_kl(self, rng):
        pw = random_distribution(rng, 3).weights
        qw = random_distribution(rng, 3).weights
        p = TransitionMatrix(np.tile(pw, (3, 1)))
        q = TransitionMatrix(np.tile(qw, (3, 1)))
        expected = relative_entropy(DiscreteDistribution(qw), DiscreteDistribution(pw))
        assert relative_entropy_rate(q, p) == pytest.approx(expected, abs=1e-13)

    def test_renyi_rate_matches_enumeration(self, rng):
        p = random_chain(rng, 2)
        q = random_chain(rng, 2)
        rate = renyi_rate(q, p, 2.0)
        per_step = [path_divergence_report(p, q, n, alpha=2.0).renyi / n for n in (8, 10, 12)]
        gaps = [abs(v - rate) for v in per_step]
        assert gaps[-1] < 2e-2
        assert gaps[0] >= gaps[-1] - 1e-12

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_orders_rejected(self, rng, alpha):
        # An infinite order used to fail as "Perron root requires finite
        # entries" in the rate, and to reach the path transfer in the report.
        p, q = random_chain(rng, 3), random_chain(rng, 3)
        with pytest.raises(ParameterError, match="Renyi order must be positive and finite"):
            renyi_rate(q, p, alpha)
        with pytest.raises(ParameterError, match="Renyi order must be positive and finite"):
            path_divergence_report(p, q, 4, alpha=alpha)

    def test_chi2_rate_is_renyi_two(self, rng):
        p = random_chain(rng, 3)
        q = random_chain(rng, 3)
        assert chi2_rate(q, p) == pytest.approx(renyi_rate(q, p, 2.0), abs=1e-11)

    def test_rates_zero_for_identical(self, rng):
        p = random_chain(rng, 3)
        assert renyi_rate(p, p, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert chi2_rate(p, p) == pytest.approx(0.0, abs=1e-12)
        uniform = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        rate = renyi_rate(uniform, uniform, 0.5)  # log rho is 0: 0 / (alpha - 1) was -0.0
        assert rate == 0.0 and math.copysign(1.0, rate) == 1.0

    def test_hellinger_limit_flag(self, rng):
        p = random_chain(rng, 3)
        q = random_chain(rng, 3)
        assert hellinger_rate_limit(q, p) == math.sqrt(2.0)
        assert hellinger_rate_limit(p, p) == 0.0

    def test_row_ac_violation(self):
        p = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        q = TransitionMatrix([[0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(AbsoluteContinuityError):
            relative_entropy_rate(q, p)


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_relative_entropies_match_relative_entropy(self, seed):
        # Banded pattern: most entries of each row are zero (0 log 0 = 0).
        q, p, _ = _chain_pair(seed, 12, 2.0, True)
        rows = markov._kl_terms(q.rows, p.rows).sum(axis=1)
        assert (q.rows == 0).any()
        for x in range(q.size):
            want = relative_entropy(
                DiscreteDistribution(q.rows[x]), DiscreteDistribution(p.rows[x])
            )
            assert abs(rows[x] - want) <= 1e-15, x


class TestLambdaCurve:
    def test_zero_at_origin(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        assert lambda_pg(p, g, 0.0) == 0.0

    def test_constant_observable(self, rng):
        p = random_chain(rng, 3)
        g = Observable([2.0, 2.0, 2.0])
        for c in (-3.0, 0.5, 10.0):
            assert lambda_pg(p, g, c) == 0.0

    def test_iid_rows_equals_centered_cgf(self, rng):
        pw = random_distribution(rng, 3).weights
        p = TransitionMatrix(np.tile(pw, (3, 1)))
        g = Observable(rng.uniform(-1, 1, 3))
        src = EmpiricalCgf(DiscreteDistribution(pw), g)
        for c in (-2.0, 0.3, 1.7):
            assert lambda_pg(p, g, c) == pytest.approx(src.evaluate(c)[0], abs=1e-11)

    def test_convex_in_c(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        for _ in range(15):
            a, b = sorted(rng.uniform(-4.0, 4.0, 2))
            mid = lambda_pg(p, g, 0.5 * (a + b))
            assert mid <= 0.5 * (lambda_pg(p, g, a) + lambda_pg(p, g, b)) + 1e-10


class TestXiRateBounds:
    def test_identical_chains(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        rb = xi_rate_bounds(p, p, g)
        assert rb.xi_plus_rate == 0.0 and rb.xi_minus_rate == 0.0

    def test_sandwich_on_random_pairs(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 4))
            p, q = random_chain(rng, n), random_chain(rng, n)
            g = Observable(rng.uniform(-1, 1, n))
            rb = xi_rate_bounds(q, p, g)
            gap = g.expectation(stationary_distribution(q)) - g.expectation(
                stationary_distribution(p)
            )
            assert rb.xi_minus_rate - 1e-9 <= gap <= rb.xi_plus_rate + 1e-9

    def test_nearby_pairs_give_finite_bounds_around_zero(self):
        # lambda(c) >= c mu_p . gbar = 0 for the centred tilt, so each bound
        # (lambda + r) / c keeps its sign; rounding near c = 0 once gave
        # lambda(1e-8) = -9.9e-17 and xi_plus_rate = -4.3e302.
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            p = random_chain(rng, n)
            q = p.rows * np.exp(10.0 ** rng.uniform(-12.0, -4.0) * rng.uniform(-1.0, 1.0, (n, n)))
            q = TransitionMatrix(q / q.sum(axis=1, keepdims=True))
            rb = xi_rate_bounds(q, p, Observable(rng.uniform(-1.0, 1.0, n)))
            assert math.isfinite(rb.xi_minus_rate) and math.isfinite(rb.xi_plus_rate)
            assert rb.xi_minus_rate <= 0.0 <= rb.xi_plus_rate

    @staticmethod
    def _mp_stationary_gap(q, p, g):
        """``mu_q . g - mu_p . g`` from 50-digit solves of the balance
        equations of the float rows."""
        def stationary(rows):
            n = rows.shape[0]
            a = mpmath.matrix([[mpmath.mpf(float(rows[j, i])) - (i == j) for j in range(n)]
                               for i in range(n - 1)] + [[1] * n])
            return mpmath.lu_solve(a, mpmath.matrix([0] * (n - 1) + [1]))

        with mpmath.workdps(50):
            mu_q, mu_p = stationary(q.rows), stationary(p.rows)
            return sum((mu_q[i] - mu_p[i]) * mpmath.mpf(float(v)) for i, v in enumerate(g.values))

    @pytest.mark.parametrize("seed, count, sizes", [(3, 190, (3, 7)), (4, 20, (24, 32))])
    def test_nearby_pairs_sandwich_the_exact_gap(self, seed, count, sizes):
        # Q = P e^{eps U}, eps from 1e-12 to 1e-4: near c = 0 the Perron
        # root keeps lambda ~ c^2 sigma^2 / 2 only to ulp(1), and the clamped
        # curve once missed the gap on 34 of the 190 small pairs and 1 of
        # the 20 power-route pairs (24 states and up).  The small-c form
        # from mu^T P = mu^T keeps it to ulp(c gbar).
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(sizes[0], sizes[1] + 1))
            p = random_chain(rng, n)
            q = p.rows * np.exp(10.0 ** rng.uniform(-12.0, -4.0) * rng.uniform(-1.0, 1.0, (n, n)))
            q = TransitionMatrix(q / q.sum(axis=1, keepdims=True))
            g = Observable(rng.uniform(-1.0, 1.0, n))
            rb = xi_rate_bounds(q, p, g)
            gap = self._mp_stationary_gap(q, p, g)
            assert rb.xi_minus_rate <= gap <= rb.xi_plus_rate, (n, gap, rb)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_stationary_gap_matches_60_digit_laws(self, eps):
        # The gap is mu_q ((Q - P) h), h the Poisson solution, against laws
        # of the rows with each diagonal one minus the off-diagonal row sum
        # in 60 digits.  The difference of the two expectations was 1.2e-8,
        # 2.7e-6 and 1.6e-2 relative off at these eps.
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            p = random_chain(rng, n)
            q = p.rows * np.exp(eps * rng.standard_normal((n, n)))
            q = TransitionMatrix(q / q.sum(axis=1, keepdims=True))
            g = Observable(rng.uniform(-1.0, 1.0, n))
            with mpmath.workdps(60):
                laws = [_mp_law(q.rows), _mp_law(p.rows)]
                want = float(mpmath.fsum((laws[0][i] - laws[1][i]) * mpmath.mpf(float(v))
                                         for i, v in enumerate(g.values)))
            got = xi_rate_bounds(q, p, g).stationary_gap
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), n

    def test_periodic_pair_with_a_zero_curve(self):
        # g is constant on the two cyclic classes, so lambda is identically
        # 0 and so is the gap; the dense solve's rounding once put
        # xi_plus_rate at -0.00111.
        flip = np.array([[0.0, 0.0, 0.3, 0.7], [0.0, 0.0, 0.6, 0.4],
                         [0.5, 0.5, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0]])
        p, q = TransitionMatrix(flip), TransitionMatrix(np.where(flip > 0, 0.5, 0.0))
        rb = xi_rate_bounds(q, p, Observable([1.0, 1.0, -1.0, -1.0]))
        assert rb.xi_minus_rate <= 0.0 <= rb.xi_plus_rate

    def test_linearization_for_small_perturbations(self, rng):
        # q = (1 - eps) p + eps uniform: xi+ approaches sqrt(v) sqrt(2 r).
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        v = integrated_autocorrelation(p, g)
        for eps in (0.02, 0.01):
            q = TransitionMatrix((1 - eps) * p.rows + eps / 3.0)
            rb = xi_rate_bounds(q, p, g)
            linear = math.sqrt(v) * math.sqrt(2.0 * rb.rer)
            assert abs(rb.xi_plus_rate - linear) < 10.0 * rb.rer


def _periodic_chain(rng, n: int, d: int) -> TransitionMatrix:
    """A random chain of period d on n states: state x lies in cyclic class
    x mod d, and every step moves to the next class."""
    classes = np.arange(n) % d
    allowed = (classes[None, :] - classes[:, None]) % d == 1
    rows = np.where(allowed, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


_PERIODIC_SHAPES = [(3, 2), (4, 2), (6, 3), (8, 4), (9, 3), (12, 4)]


def _lambda_second_derivative(p: TransitionMatrix, g: Observable) -> float:
    """``lambda''(0)`` in 50 digits: the central second difference at
    h = 1e-12 of the log of the largest real eigenvalue (``mpmath.eig``) of
    ``p(x, y) e^{c g(y)}``; a period-d chain's other peripheral eigenvalues
    are the root times the d-th roots of unity, whose real parts are smaller."""
    with mpmath.workdps(50):
        entries = [[mpmath.mpf(float(a)) for a in row] for row in p.rows]
        values = [mpmath.mpf(float(v)) for v in g.values]

        def log_root(c):
            tilt = [mpmath.exp(c * v) for v in values]
            m = mpmath.matrix([[a * t for a, t in zip(row, tilt)] for row in entries])
            return mpmath.log(max(mpmath.re(e) for e in mpmath.eig(m, right=False)))

        h = mpmath.mpf("1e-12")
        return float((log_root(h) - 2 * log_root(0) + log_root(-h)) / h**2)


class TestIntegratedAutocorrelation:
    def test_beyond_the_float_range_raises(self):
        # Values of size 1e152 on a chain that mixes in about 1e6 steps: the
        # IACT of about 1e310 is not a float.
        eps = 1e-6
        p = TransitionMatrix([[1 - eps, eps], [eps, 1 - eps]])
        with pytest.raises(NumericsError):
            integrated_autocorrelation(p, Observable([1e152, -1e152]))

    @pytest.mark.parametrize("size", [1e155, 1e300])
    def test_rate_bounds_reject_an_overflowing_spread(self, rng, size):
        p, q = random_chain(rng, 3), random_chain(rng, 3)
        with pytest.raises(UnboundedObservableError):
            xi_rate_bounds(q, p, Observable([size, 0.0, -size]))

    def test_iid_rows_give_variance(self, rng):
        pw = random_distribution(rng, 3).weights
        p = TransitionMatrix(np.tile(pw, (3, 1)))
        g = Observable(rng.uniform(-1, 1, 3))
        expected = g.variance(DiscreteDistribution(pw))
        assert integrated_autocorrelation(p, g) == pytest.approx(expected, abs=1e-12)

    def test_two_state_truncated_sum_oracle(self):
        a = 0.3
        p = TransitionMatrix([[1 - a, a], [a, 1 - a]])
        g = Observable([0.0, 1.0])
        # Direct truncation of Var + 2 sum_k Cov(g_0, g_k) with 1e4 terms.
        mu = np.array([0.5, 0.5])
        gb = g.values - 0.5
        total = float(gb @ (mu * gb))
        pk = np.eye(2)
        for _ in range(10_000):
            pk = pk @ p.rows
            total += 2.0 * float((mu * gb) @ (pk @ gb))
        assert integrated_autocorrelation(p, g) == pytest.approx(total, abs=1e-10)

    def test_matches_second_derivative_of_lambda(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        v = integrated_autocorrelation(p, g)
        h = 1e-4
        fd = (lambda_pg(p, g, h) - 2.0 * lambda_pg(p, g, 0.0) + lambda_pg(p, g, -h)) / h**2
        assert v == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("n, d", _PERIODIC_SHAPES)
    def test_periodic_chain_is_the_lambda_second_derivative(self, rng, n, d):
        # (I - p + 1 mu^T) is invertible for every irreducible p, so the
        # Poisson solve gives the asymptotic variance of a periodic chain too.
        p, g = _periodic_chain(rng, n, d), Observable(rng.uniform(-1.0, 1.0, n))
        want = _lambda_second_derivative(p, g)
        assert integrated_autocorrelation(p, g) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCheapBounds:
    def test_identical_chains_all_zero(self, rng):
        p = random_chain(rng, 3)
        g = Observable(rng.uniform(-1, 1, 3))
        cb = cheap_rate_bounds(p, p, g)
        assert cb.sup_row_re == 0.0
        assert cb.sup_log_ratio == 0.0
        assert cb.bounds_sup_row_re.xi_plus == 0.0

    def test_surrogate_ordering(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            p, q = random_chain(rng, n), random_chain(rng, n)
            g = Observable(rng.uniform(-1, 1, n))
            cb = cheap_rate_bounds(q, p, g)
            assert cb.rer <= cb.sup_row_re + 1e-12
            assert cb.sup_row_re <= cb.sup_log_ratio + 1e-12

    def test_a_dense_pair_holds_few_temporaries(self):
        # One n x n work array at a time: the GTH reduction of each chain,
        # then one tilted buffer per Perron solve (perron_root reads it and
        # never writes it, and the Renyi exponents are built in it); every
        # other n x n pass (row KL terms, log ratios, the rows of Q - P) goes
        # by row blocks.  Beyond the two chains the numeric work holds 1.20
        # n x n arrays at most at n = 200.  LU solves of the balance and
        # Poisson systems and whole-matrix row terms made it 2.17, log ratios
        # kept alive next to a solve's buffer 2.38, and a scaled copy of each
        # tilted matrix 3.21.
        n = 200
        rng = np.random.default_rng(200)
        p, q = (TransitionMatrix(m / m.sum(axis=1, keepdims=True))
                for m in (rng.uniform(0.1, 1.1, (n, n)) for _ in range(2)))
        g = Observable(rng.uniform(-1.0, 1.0, n))
        tracemalloc.start()
        try:
            cheap_rate_bounds(q, p, g)
            chi2_rate(q, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n, f"{peak / (8 * n * n):.2f} n x n arrays"

    def test_no_linear_solve_is_reached(self, rng, monkeypatch):
        # The stationary law and the Poisson solution come from GTH state
        # reduction on every chain size; no LAPACK solve or least-squares
        # fallback is left.
        def refuse(*args, **kwargs):
            pytest.fail("a numpy.linalg solve was reached")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for n in (1, 3, 40):
            p, q = random_chain(rng, n), random_chain(rng, n)
            g = Observable(rng.uniform(-1.0, 1.0, n))
            mu = stationary_distribution(p).weights
            assert np.max(np.abs(mu @ p.rows - mu)) < 1e-15
            assert integrated_autocorrelation(p, g) >= 0.0
            assert math.isfinite(xi_rate_bounds(q, p, g).stationary_gap)

    def test_exact_is_the_rate_bound(self, rng):
        flip = np.array([[0.0, 0.0, 0.3, 0.7], [0.0, 0.0, 0.6, 0.4],
                         [0.5, 0.5, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0]])
        periodic_p = TransitionMatrix(flip)
        periodic_q = TransitionMatrix(np.where(flip > 0, 0.5, 0.0))
        pairs = [(random_chain(rng, 4), random_chain(rng, 4)) for _ in range(5)]
        for q, p in pairs + [(periodic_q, periodic_p)]:
            g = Observable(rng.uniform(-1, 1, 4))
            exact, want = cheap_rate_bounds(q, p, g).exact, xi_rate_bounds(q, p, g)
            for field in dataclasses.fields(want):
                a, b = getattr(exact, field.name), getattr(want, field.name)
                if isinstance(b, DiscreteDistribution):
                    np.testing.assert_array_equal(a.weights, b.weights)
                elif callable(b):
                    cs = (-2.0, -0.3, 0.3, 2.0)
                    assert [a(c) for c in cs] == [b(c) for c in cs], field.name
                else:
                    assert a == b, field.name
        oracle = _lambda_second_derivative(periodic_p, g)
        assert want.iact == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_periodic_pair_needs_no_finite_difference_variance(self, rng, monkeypatch):
        # Every bound is linearized with the Poisson-equation IACT, periodic
        # chain or not; the lambda-curve's own variance is never differenced.
        monkeypatch.setattr(AnalyticCgf, "variance", lambda self: pytest.fail("variance called"))
        for n, d in _PERIODIC_SHAPES:
            p, q = _periodic_chain(rng, n, d), _periodic_chain(rng, n, d)
            g = Observable(rng.uniform(-1.0, 1.0, n))
            cheap = cheap_rate_bounds(q, p, g)
            exact, iact = cheap.exact, integrated_autocorrelation(p, g)
            assert exact.iact == iact > 0.0
            assert exact.xi_minus_rate <= exact.stationary_gap <= exact.xi_plus_rate
            for rate, bound in ((cheap.sup_row_re, cheap.bounds_sup_row_re),
                                (cheap.sup_log_ratio, cheap.bounds_sup_log_ratio)):
                want = math.sqrt(iact) * math.sqrt(2.0 * rate)
                assert bound.linearized_half_width == pytest.approx(want, rel=1e-15)

    def test_intervals_nested(self, rng):
        for _ in range(20):
            p, q = random_chain(rng, 3), random_chain(rng, 3)
            g = Observable(rng.uniform(-1, 1, 3))
            rb = xi_rate_bounds(q, p, g)
            cb = cheap_rate_bounds(q, p, g)
            assert cb.bounds_sup_row_re.xi_plus >= rb.xi_plus_rate - 1e-9
            assert cb.bounds_sup_row_re.xi_minus <= rb.xi_minus_rate + 1e-9
            assert cb.bounds_sup_log_ratio.xi_plus >= cb.bounds_sup_row_re.xi_plus - 1e-9
            assert cb.bounds_sup_log_ratio.xi_minus <= cb.bounds_sup_row_re.xi_minus + 1e-9


class TestPathEnumeration:
    def test_long_horizon_matches_the_rates(self, rng):
        # 3^10001 paths: from stationary initial laws every step adds the
        # rate exactly to the KL, and the Renyi sum grows as N log rho plus
        # a constant set by the Perron vectors of q^a p^(1-a).
        p, q = random_chain(rng, 3), random_chain(rng, 3)
        n, alpha = 10_000, 2.0
        mu_p, mu_q = stationary_distribution(p), stationary_distribution(q)
        rep = path_divergence_report(p, q, n, alpha=alpha)
        want = relative_entropy(mu_q, mu_p) + n * relative_entropy_rate(q, p)
        assert rep.kl == pytest.approx(want, rel=1e-12)
        tilted = q.rows**alpha * p.rows ** (1.0 - alpha)
        _, left, right = perron_root(tilted)
        start = mu_q.weights**alpha * mu_p.weights ** (1.0 - alpha)
        offset = math.log(float(start @ right) * left.sum() / float(left @ right))
        constant = abs(offset) / (alpha - 1.0) + 1e-6
        assert abs(rep.renyi / n - renyi_rate(q, p, alpha)) <= constant / n
        assert rep.tv is None

    def test_identical_chains_give_zero(self, rng):
        p = random_chain(rng, 2)
        rep = path_divergence_report(p, p, 6)
        assert (rep.hellinger, rep.kl, rep.renyi, rep.chi2) == (0.0, 0.0, 0.0, 0.0)
        assert rep.tv is None

    def test_matches_brute_force_path_probabilities(self, rng):
        # Every path probability written out as a product over the path, on
        # 3-state chains over 4 steps, with stationary and drawn initial laws.
        steps = 4
        for draw in range(4):
            p, q = random_chain(rng, 3), random_chain(rng, 3)
            if draw % 2:
                nu_p, nu_q = random_distribution(rng, 3), random_distribution(rng, 3)
            else:
                nu_p, nu_q = stationary_distribution(p), stationary_distribution(q)
            probs = {"p": [], "q": []}
            for path in itertools.product(range(3), repeat=steps + 1):
                for name, chain, nu in (("p", p, nu_p), ("q", q, nu_q)):
                    prob = nu.weights[path[0]]
                    for a, b in zip(path, path[1:]):
                        prob *= chain.rows[a, b]
                    probs[name].append(prob)
            alpha = 0.5 + draw
            want = {
                "hellinger": math.sqrt(math.fsum(
                    (math.sqrt(b) - math.sqrt(a)) ** 2 for a, b in zip(probs["p"], probs["q"])
                )),
                "kl": math.fsum(b * math.log(b / a) for a, b in zip(probs["p"], probs["q"])),
                "renyi": math.log(math.fsum(
                    b**alpha * a ** (1.0 - alpha) for a, b in zip(probs["p"], probs["q"])
                )) / (alpha - 1.0),
                "chi2": math.fsum(b * b / a for a, b in zip(probs["p"], probs["q"])) - 1.0,
            }
            got = path_divergence_report(p, q, steps, nu_p=nu_p, nu_q=nu_q, alpha=alpha)
            assert got.renyi_alpha == alpha
            assert got.tv is None
            for name, value in want.items():
                assert getattr(got, name) == pytest.approx(value, rel=1e-12), name

    def test_chi2_of_nearby_chains_matches_a_50_digit_enumeration(self):
        # chi^2 is summed from the differences q - p, so it keeps its digits
        # as Q nears P; expm1 of the order-2 log sum kept an absolute floor
        # of about 1e-16 (1.5e-4 relative off at eps = 1e-6, 0 at 1e-8).
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.2, 1.0, (3, 3))
        p = TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))
        u = rng.standard_normal((3, 3))
        for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            q_rows = p.rows * np.exp(eps * u)
            q = TransitionMatrix(q_rows / q_rows.sum(axis=1, keepdims=True))
            laws = [[mpmath.mpf(float(w)) for w in chain._stationary.weights] for chain in (q, p)]
            with mpmath.workdps(50):
                want = mpmath.mpf(0)
                for path in itertools.product(range(3), repeat=5):
                    a, b = (law[path[0]] for law in laws)
                    for x, y in zip(path, path[1:]):
                        a *= mpmath.mpf(float(q.rows[x, y]))
                        b *= mpmath.mpf(float(p.rows[x, y]))
                    want += (a - b) ** 2 / b
            got = path_divergence_report(p, q, 4).chi2
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), eps

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_close_pairs_match_a_50_digit_enumeration(self, eps):
        # Rows and initial laws from conftest.close_pair, whose float weights
        # are the measures, so every path law is exact: 3 states over 4
        # steps.  The Hellinger rows summed (sqrt q - sqrt p)^2, which
        # cancels: 1.5e-4 relative off at eps = 1e-12.  The Renyi divergence
        # is log1p(S_a) / (a - 1) with S_a = sum p (tail(aG) - a tail(G)),
        # G = log(q / p) and tail(y) = e^y - 1 - y; the log of the path
        # transfer was 2.1e4 (order 2) and 1.0 (order 0.5) relative off at
        # eps = 1e-10.
        rng = np.random.default_rng(5)
        pairs = [close_pair(rng, 3, eps) for _ in range(4)]  # three rows, the initial laws
        p, q = (TransitionMatrix([pair[side].weights for pair in pairs[:3]]) for side in (0, 1))
        nu_p, nu_q = pairs[3]
        orders = (2.0, 0.5)
        with mpmath.workdps(50):
            kl = h2 = chi2 = mpmath.mpf(0)
            sums = dict.fromkeys(orders, mpmath.mpf(0))
            tail = lambda y: mpmath.expm1(y) - y  # noqa: E731
            for path in itertools.product(range(3), repeat=5):
                a, b = (mpmath.mpf(float(nu.weights[path[0]])) for nu in (nu_p, nu_q))
                for x, y in zip(path, path[1:]):
                    a *= mpmath.mpf(float(p.rows[x, y]))
                    b *= mpmath.mpf(float(q.rows[x, y]))
                kl += b * mpmath.log(b / a)
                h2 += (mpmath.sqrt(b) - mpmath.sqrt(a)) ** 2
                chi2 += (b - a) ** 2 / a
                for order in orders:
                    g = mpmath.log(b / a)
                    sums[order] += a * (tail(order * g) - order * tail(g))
            want = {"kl": float(kl), "hellinger": float(mpmath.sqrt(h2)), "chi2": float(chi2)}
            renyi = {order: float(mpmath.log1p(sums[order]) / (order - 1)) for order in orders}
        got = path_divergence_report(p, q, 4, nu_p=nu_p, nu_q=nu_q)
        assert min(want.values()) > 0.0
        for name, value in want.items():
            assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
        for order, value in renyi.items():
            got = path_divergence_report(p, q, 4, nu_p=nu_p, nu_q=nu_q, alpha=order).renyi
            assert got == pytest.approx(value, rel=1e-13, abs=0.0), order

    # (states, alpha): chi^2, KL, Hellinger, Renyi of two seeded chains over
    # 12 steps from their stationary laws, as the order-2 pass decided chi^2.
    _SEEDED_REPORTS = {
        (3, 0.5): (36.13036927226852, 1.3448465498772566, 0.7183730888536418,
                   0.5968927939985731),
        (3, 2.0): (36.13036927226852, 1.3448465498772566, 0.7183730888536418,
                   3.6144352135278592),
        (30, 0.5): (2927.0324459106037, 3.7945885312110432, 1.1091064998586724,
                    1.9093284009557294),
        (30, 2.0): (2927.0324459106037, 3.7945885312110432, 1.1091064998586724,
                    7.982085956273426),
    }

    @pytest.mark.parametrize("states, alpha", list(_SEEDED_REPORTS))
    def test_one_renyi_pass_gives_every_divergence(self, monkeypatch, states, alpha):
        # One recursion carries the order-2 sum (chi^2) and the report's
        # order, so a report builds a Renyi transfer only where its sum
        # sum q^a p^(1-a) - 1 is below -1/2, here (30, 0.5) alone.
        rng = np.random.default_rng(states)
        p, q = (TransitionMatrix(m / m.sum(axis=1, keepdims=True))
                for m in (rng.uniform(0.05, 1.0, (states, states)) for _ in range(2)))
        transfers = []

        def counted(*args):
            transfers.append(args)
            return transfer(*args)

        transfer = markov._PathTransfer
        monkeypatch.setattr(markov, "_PathTransfer", counted)
        rep = path_divergence_report(p, q, 12, alpha=alpha)
        far = math.expm1((alpha - 1.0) * self._SEEDED_REPORTS[states, alpha][3]) < -0.5
        assert len(transfers) == far == ((states, alpha) == (30, 0.5))
        got = (rep.chi2, rep.kl, rep.hellinger, rep.renyi)
        assert got == pytest.approx(self._SEEDED_REPORTS[states, alpha], rel=1e-12, abs=0.0)
        at_two = path_divergence_report(p, q, 12)
        assert (rep.chi2, rep.kl, rep.hellinger) == (at_two.chi2, at_two.kl, at_two.hellinger)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_chi2_past_the_log_limit_is_inf(self, alpha):
        # q / p = 3.3e29 on two entries: log(1 + chi^2) grows by about 67 a
        # step, past 700 by step 11, and the recursion itself overflows
        # (inf - inf) long before step 400, with no warning.
        p = TransitionMatrix([[1 - 2e-30, 1e-30, 1e-30], [1 / 3] * 3, [1 / 3] * 3])
        q = TransitionMatrix([[1 / 3] * 3] * 3)
        u = DiscreteDistribution([1 / 3] * 3)
        chi2 = [path_divergence_report(p, q, n, nu_p=u, nu_q=u, alpha=alpha).chi2
                for n in (1, 12, 40, 400)]
        assert chi2[:2] == pytest.approx([7.407407407407405e+28, 9.361060577946511e+173],
                                         rel=1e-12)
        assert chi2[2:] == [math.inf, math.inf]

    def test_renyi_sum_keeps_a_tiny_entry_that_closes_the_cycle(self):
        # At order 20 the exponents of q^a p^(1-a) span about 1750: the
        # e^1736 step 0 -> 1 comes back only through e^-10.9, which a shift
        # by the largest exponent would underflow to 0.  The rate's
        # log-Perron gives up on such pairs
        # (test_renyi_rate_raises_when_the_shift_underflows_every_cycle).
        p_rows = [[1.0 - 1e-40, 1e-40], [0.5, 0.5]]
        q_rows = [[0.5, 0.5], [0.3, 0.7]]
        alpha, steps = 20.0, 3
        nu = DiscreteDistribution([0.5, 0.5])
        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            for path in itertools.product(range(2), repeat=steps + 1):
                prob_p = prob_q = mpmath.mpf("0.5")
                for a, b in zip(path, path[1:]):
                    prob_p *= mpmath.mpf(p_rows[a][b])
                    prob_q *= mpmath.mpf(q_rows[a][b])
                total += prob_q**alpha * prob_p ** (1 - alpha)
            want = float(mpmath.log(total) / (alpha - 1))
        got = path_divergence_report(TransitionMatrix(p_rows), TransitionMatrix(q_rows), steps,
                                     nu_p=nu, nu_q=nu, alpha=alpha)
        assert got.renyi == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("zero_in", ["p", "q", "nu_p"])
    def test_rows_not_mutually_continuous_raise(self, zero_in):
        # One transition that only one chain makes, or one initial state
        # that only one law charges, gives path measures that are not
        # mutually absolutely continuous.
        full = TransitionMatrix([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
        gap = TransitionMatrix([[0.2, 0.8, 0.0], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]])
        laws = {}
        if zero_in == "nu_p":
            p = q = full
            laws = {"nu_p": DiscreteDistribution([0.5, 0.5, 0.0]),
                    "nu_q": DiscreteDistribution([0.25, 0.25, 0.5])}
        else:
            p, q = (gap, full) if zero_in == "p" else (full, gap)
        with pytest.raises(AbsoluteContinuityError):
            path_divergence_report(p, q, 3, **laws)

    @pytest.mark.parametrize("n_steps", [math.nan, math.inf, "3", True, 0, 2.5, -1])
    def test_horizon_must_be_a_positive_integer(self, n_steps):
        # Each is a ParameterError, not a ValueError, OverflowError or
        # TypeError out of int(); a bool is not a step count.
        p = TransitionMatrix([[0.6, 0.4], [0.3, 0.7]])
        q = TransitionMatrix([[0.5, 0.5], [0.2, 0.8]])
        with pytest.raises(ParameterError, match="n_steps must be a positive integer"):
            path_divergence_report(p, q, n_steps)
        with pytest.raises(ParameterError, match="n_steps must be a positive integer"):
            path_cgf(p, Observable([-1.0, 1.0]), n_steps, 0.5)

    def test_path_cgf_takes_a_large_tilt_of_either_sign(self, rng):
        # The shift is the largest c g, so c g and (-c)(-g) give one value.
        p = random_chain(rng, 3)
        g = Observable([-1.0, 0.2, 1.0])
        minus_g = Observable(-g.values)
        for c in (0.5, 40.0, 1000.0):
            value = path_cgf(p, g, 6, -c)
            assert math.isfinite(value)
            assert value == pytest.approx(path_cgf(p, minus_g, 6, c), rel=1e-12)

    @staticmethod
    def _mp_path_cgf(nu, rows, g, n_steps, tilts):
        """60-digit ``log E e^{c (S_N - E S_N)}``, ``S_N = sum_{k=1}^N
        g(X_k)``, at each c of ``tilts``, path by path, with nu and every
        row of P normalized in 60 digits."""
        with mpmath.workdps(60):
            nu = [mpmath.mpf(float(x)) for x in nu]
            nu = [x / mpmath.fsum(nu) for x in nu]
            rows = [[mpmath.mpf(float(x)) for x in row] for row in rows]
            rows = [[x / mpmath.fsum(row) for x in row] for row in rows]
            probs, sums = [], []
            for path in itertools.product(range(len(nu)), repeat=n_steps + 1):
                prob = nu[path[0]]
                for a, b in zip(path, path[1:]):
                    prob *= rows[a][b]
                probs.append(prob)
                sums.append(mpmath.fsum(mpmath.mpf(float(g[x])) for x in path[1:]))
            mean = mpmath.fsum(a * b for a, b in zip(probs, sums))
            return [float(mpmath.log(mpmath.fsum(
                a * mpmath.exp(mpmath.mpf(c) * (b - mean)) for a, b in zip(probs, sums)
            ))) for c in tilts]

    def test_path_cgf_matches_a_60_digit_path_enumeration(self, rng):
        # Small tilts take the log1p tail form, which keeps the digits that
        # log E e^{c S_N} - c E S_N, two numbers of size |c| N |E g|, lost
        # (3.9e-2 relative at c = 1e-6); large ones the difference of log
        # partitions.  Some chains have zero entries, and some initial laws
        # a zero, so a state can be unreachable at a step.  Every third g
        # sits at an offset of 100 next to a spread of about 1, where the
        # tail pass must not sum terms of size |c| N 100 that cancel.
        tilts = (1e-2, -1e-2, 1e-4, -1e-4, 1e-6, 0.3, 0.5, -2.0, 40.0)
        for draw in range(20):
            n = int(rng.integers(2, 5))
            rows = rng.random((n, n))
            if draw % 2:  # zero entries off a ring, which keeps p irreducible
                ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
                rows[(rng.random((n, n)) < 0.3) & ~ring] = 0.0
            p = TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))
            nu = None
            if draw % 4 == 3:
                weights = rng.random(n)
                weights[0] = 0.0
                nu = DiscreteDistribution(weights / weights.sum())
            g = Observable(rng.normal(size=n) + (100.0 if draw % 3 == 0 else 0.0))
            law = (nu or stationary_distribution(p)).weights
            for n_steps in (1, 3):
                want = self._mp_path_cgf(law, p.rows, g.values, n_steps, tilts)
                for c, value in zip(tilts, want):
                    got = path_cgf(p, g, n_steps, c, nu_p=nu)
                    assert got == pytest.approx(value, rel=1e-12, abs=0.0), (draw, n_steps, c)

    def test_path_cgf_is_exactly_zero_at_c_zero_and_for_a_constant_g(self, rng):
        for _ in range(5):
            p = random_chain(rng, 3)
            g = Observable(rng.normal(size=3))
            assert path_cgf(p, g, 4, 0.0) == 0.0
            assert path_cgf(p, Observable([0.7, 0.7, 0.7]), 4, 2.5) == 0.0

    def test_finite_horizon_xi_converges_to_rate(self, rng):
        # Per-site goal-oriented bounds from exact path quantities approach
        # the rate bounds on both sides as the horizon grows (2-state
        # instances).
        p, q = random_chain(rng, 2), random_chain(rng, 2)
        g = Observable(rng.uniform(-1, 1, 2))
        rb = xi_rate_bounds(q, p, g)
        grid = np.logspace(-3, 3, 600)
        plus_gaps, minus_gaps = [], []
        for n in (6, 8, 10, 12):
            r_n = path_divergence_report(p, q, n).kl
            plus = min((path_cgf(p, g, n, c) + r_n) / (c * n) for c in grid)
            minus = -min((path_cgf(p, g, n, -c) + r_n) / (c * n) for c in grid)
            plus_gaps.append(abs(plus - rb.xi_plus_rate))
            minus_gaps.append(abs(minus - rb.xi_minus_rate))
        assert plus_gaps[-1] < 5e-2 and minus_gaps[-1] < 5e-2
        assert plus_gaps[0] >= plus_gaps[-1] - 1e-12
        assert minus_gaps[0] >= minus_gaps[-1] - 1e-12


def _chain_pair(seed: int, n: int, spread: float, sparse: bool):
    """Chains p and q = p e^u (u uniform in [-spread, spread], renormalized)
    on one pattern, with an observable.  The pattern holds a ring and every
    self-loop, so both chains are irreducible and aperiodic."""
    rng = np.random.default_rng(seed)
    pattern = np.ones((n, n), dtype=bool)
    if sparse:
        pattern = np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
        pattern |= rng.random((n, n)) < 0.3
    p = np.where(pattern, rng.uniform(0.02, 1.0, (n, n)), 0.0)
    q = p * np.exp(rng.uniform(-spread, spread, (n, n)))
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    return TransitionMatrix(q), TransitionMatrix(p), Observable(rng.uniform(-1.0, 1.0, n))


def _assert_rate_sandwich(q, p, g):
    """The stationary gap lies inside the exact-rate interval and inside both
    surrogate intervals; returns the surrogate bounds."""
    gap = g.expectation(stationary_distribution(q)) - g.expectation(stationary_distribution(p))
    exact = xi_rate_bounds(q, p, g)
    assert exact.xi_minus_rate - 1e-10 <= gap <= exact.xi_plus_rate + 1e-10
    cheap = cheap_rate_bounds(q, p, g)
    for b in (cheap.bounds_sup_row_re, cheap.bounds_sup_log_ratio):
        assert b.xi_minus - 1e-10 <= gap <= b.xi_plus + 1e-10
    return cheap


class TestRateSandwichProperties:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           spread=st.floats(0.01, 4.0), sparse=st.booleans())
    def test_random_pairs(self, seed, n, spread, sparse):
        _assert_rate_sandwich(*_chain_pair(seed, n, spread, sparse))

    def test_pair_with_bounds_at_the_cap(self):
        # sup |log q/p| exceeds -log p(x, x) at the observable's extreme
        # states, so the optimum of that surrogate bound is at c -> inf.
        cheap = _assert_rate_sandwich(*_chain_pair(7, 4, 4.0, False))
        b = cheap.bounds_sup_log_ratio
        assert b.c_star_plus == b.c_star_minus == 1e12
