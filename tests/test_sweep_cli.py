import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoscale.markov as markov
from infoscale import (
    Ising1DParams,
    Ising2DParams,
    MeanFieldParams,
    Observable,
    ParameterError,
    UnsupportedModelError,
    chi2_rate,
    cheap_rate_bounds,
    ising1d_quantities,
    ising2d_critical_beta,
    path_divergence_report,
    renyi_rate,
    stationary_distribution,
    xi_rate_bounds,
)
from infoscale.cli import main
from infoscale.exact_models import phase_bound_point
from infoscale.jsonio import load_chain, load_interaction, load_model
from infoscale.sweep import (
    SweepConfig,
    evaluate_sweep,
    figure_preset,
    format_rows_csv,
    parse_rows_csv,
    PRESET_NAMES,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text: str):
    """Parse a report that must be strict JSON: NaN and +-Infinity raise.

    Two outputs are meant to hold them and are not parsed with this:
    ``phase --format json`` NaN rows, and the chi-squared of N-fold product
    measures past e^700, which ``divergence --iid`` prints as Infinity.
    """
    return json.loads(text, parse_constant=_reject_constant)


def short_config(**overrides):
    base = dict(
        model_q=Ising1DParams(beta=1.6, J=1.0),
        model_p=Ising1DParams(beta=1.0, J=1.0),
        sweep_parameter="h",
        start=-0.3,
        stop=0.3,
        step=0.1,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_step_must_be_positive(self):
        with pytest.raises(ParameterError):
            short_config(step=-0.1)
        with pytest.raises(ParameterError):
            short_config(step=0.0)

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            short_config(start=1.0, stop=0.5)

    @pytest.mark.parametrize("step", [1e-300, 1e-6])
    def test_oversized_grid_rejected_at_construction(self, step):
        # Checked before any grid is built: 1e-300 would ask for ~1e299 floats.
        with pytest.raises(ParameterError, match="exceeds the cap"):
            short_config(start=0.0, stop=1.0, step=step)

    def test_largest_allowed_grid_constructs(self):
        assert short_config(start=0.0, stop=1.0, step=1.0 / 999_999).step > 0.0

    @pytest.mark.parametrize("model_q, model_p, sweep, error", [
        # The 2-D model has no field, on either side of the pair.
        (Ising2DParams(beta=1.0), MeanFieldParams(beta=1.0, d=2), "h", ParameterError),
        (Ising1DParams(beta=1.0), Ising2DParams(beta=1.0), "h", ParameterError),
        # Pairs without a closed-form relative entropy rate.
        (MeanFieldParams(beta=1.0), Ising1DParams(beta=1.0), "beta", UnsupportedModelError),
        (Ising2DParams(beta=1.0), Ising2DParams(beta=1.0), "beta", UnsupportedModelError),
        (Ising1DParams(beta=1.0), Ising1DParams(beta=1.0), "J", ParameterError),
    ])
    def test_sweep_without_any_row_rejected(self, model_q, model_p, sweep, error):
        # Every grid point would fail, so the config is refused when built,
        # and the grid-point evaluation refuses it the same way.
        with pytest.raises(error):
            short_config(model_q=model_q, model_p=model_p, sweep_parameter=sweep)
        with pytest.raises(error):
            phase_bound_point(model_q, model_p, 0.5, sweep)

    def test_grid_is_ascending_and_inclusive(self):
        grid = short_config().grid()
        assert grid == pytest.approx([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3])
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestEvaluate:
    def test_rows_in_ascending_order(self):
        rows, failures = evaluate_sweep(short_config())
        assert failures == 0
        params = [r.param for r in rows]
        assert params == sorted(params)

    def test_nan_rows_on_numeric_failure(self):
        # beta <= 0 grid points are invalid model parameters: NaN rows,
        # remaining points still evaluated.
        config = short_config(sweep_parameter="beta", start=-0.15, stop=0.15, step=0.1)
        rows, failures = evaluate_sweep(config)
        assert failures == 2
        assert math.isnan(rows[0].true_qoi) and math.isnan(rows[1].re_rate)
        assert math.isfinite(rows[2].xi_upper) and math.isfinite(rows[3].xi_upper)

    def test_strict_mode_raises(self):
        config = short_config(
            sweep_parameter="beta", start=-0.15, stop=0.15, step=0.1, strict=True
        )
        with pytest.raises(ParameterError):
            evaluate_sweep(config)


class TestCsv:
    def test_round_trip_exact(self):
        rows, _ = evaluate_sweep(short_config())
        text = format_rows_csv(rows)
        assert format_rows_csv(parse_rows_csv(text)) == text

    def test_header_fixed(self):
        text = format_rows_csv([])
        assert text.splitlines()[0] == (
            "param,baseline_qoi,true_qoi,xi_lower,xi_upper,lin_lower,lin_upper,re_rate"
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ParameterError):
            parse_rows_csv("a,b,c\n1,2,3\n")


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            figure_preset("9z")

    def test_all_presets_construct(self):
        assert PRESET_NAMES == ("2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b")
        for name in PRESET_NAMES:
            figure_preset(name)

    def test_grid_follows_the_swept_parameter(self):
        from infoscale.sweep import BETA_GRID, H_GRID

        configs = {name: figure_preset(name) for name in PRESET_NAMES}
        assert {n for n, c in configs.items() if c.sweep_parameter == "h"} == {"2b", "3b", "5b"}
        for cfg in configs.values():
            grid = BETA_GRID if cfg.sweep_parameter == "beta" else H_GRID
            assert (cfg.start, cfg.stop, cfg.step) == grid

    def test_4b_is_4a_with_flipped_branches(self):
        a = figure_preset("4a")
        b = figure_preset("4b")
        assert a.model_q.branch == "plus" and b.model_q.branch == "minus"
        assert a.model_p.branch == "upper" and b.model_p.branch == "lower"
        assert (a.start, a.stop, a.step) == (b.start, b.stop, b.step)

    def test_5a_bindings(self):
        cfg = figure_preset("5a")
        assert cfg.model_p == Ising1DParams(beta=1.0, J=1.0, h=0.0)
        assert cfg.model_q == Ising1DParams(beta=1.0, J=1.0, h=0.6)
        assert cfg.sweep_parameter == "beta"

    def test_2a_bindings(self):
        cfg = figure_preset("2a")
        assert cfg.model_p == MeanFieldParams(beta=1.0, J=2.0, h=0.0)
        assert cfg.model_q == MeanFieldParams(beta=1.0, J=2.0, h=0.6)
        assert cfg.sweep_parameter == "beta"


@pytest.fixture
def fixtures(tmp_path):
    paths = {}

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths[name] = str(path)

    write("p.json", {"weights": [0.25, 0.75]})
    write("q.json", {"weights": [0.5, 0.5]})
    write("f.json", {"values": [-1.0, 1.0]})
    write("chainp.json", {"rows": [[0.7, 0.3], [0.4, 0.6]]})
    write("chainq.json", {"rows": [[0.5, 0.5], [0.2, 0.8]]})
    write("g.json", {"values": [0.0, 1.0]})
    write(
        "phi.json",
        {
            "d": 1,
            "clusters": [
                {"offsets": [[0], [1]], "type": "pair_product", "coeff": -0.5},
                {"offsets": [[0]], "type": "field", "coeff": -0.3},
            ],
        },
    )
    write(
        "psi.json",
        {
            "d": 1,
            "clusters": [
                {"offsets": [[0], [1]], "type": "pair_product", "coeff": -0.5},
                {"offsets": [[0]], "type": "field", "coeff": -0.1},
            ],
        },
    )
    write("mq.json", {"kind": "ising1d", "beta": 1.6, "J": 1.0, "h": 0.0})
    write("mp.json", {"kind": "ising1d", "beta": 1.0, "J": 1.0, "h": 0.0})
    paths["dir"] = str(tmp_path)
    return paths


def _argv_reading(command, path, fixtures):
    """CLI arguments for ``command`` with ``path`` as one of its input files
    (``markov-q``: the target chain) and the other inputs from ``fixtures``."""
    path = str(path)
    return {
        "gibbs": ["gibbs", "--phi", path, "--psi", fixtures["psi.json"], "--n", "1"],
        "phase": ["phase", "--q", path, "--p", fixtures["mp.json"], "--sweep", "h",
                  "--start", "0", "--stop", "0.1", "--step", "0.1"],
        "divergence": ["divergence", "--p", path, "--q", fixtures["q.json"]],
        "goal-bound": ["goal-bound", "--p", fixtures["p.json"], "--q", fixtures["q.json"],
                       "--observable", path],
        "markov": ["markov", "--p", path, "--q", fixtures["chainq.json"],
                   "--observable", fixtures["g.json"]],
        "markov-q": ["markov", "--p", fixtures["chainp.json"], "--q", path,
                     "--observable", fixtures["g.json"]],
    }[command]


def _low_temperature_sweep(tmp_path):
    """``phase`` arguments for a 1-D chain at beta J = 400 against mean field,
    swept over h in {0, 0.1}."""
    q, p = tmp_path / "q.json", tmp_path / "p.json"
    q.write_text(json.dumps({"kind": "ising1d", "beta": 1, "J": 400}))
    p.write_text(json.dumps({"kind": "meanfield", "beta": 1}))
    return ["phase", "--q", str(q), "--p", str(p), "--sweep", "h",
            "--start", "0", "--stop", "0.1", "--step", "0.1"]


class TestCli:
    def test_divergence_report(self, fixtures, capsys):
        code = main(["divergence", "--p", fixtures["p.json"], "--q", fixtures["q.json"]])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["tv"] == pytest.approx(0.25)
        assert payload["kl"] == pytest.approx(0.1438410362258904, abs=1e-12)

    def test_divergence_with_observable_and_iid(self, fixtures, capsys):
        code = main(
            [
                "divergence", "--p", fixtures["p.json"], "--q", fixtures["q.json"],
                "--observable", fixtures["f.json"], "--iid", "3",
            ]
        )
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["tv"] is None
        assert payload["bound_ckp"] >= abs(payload["qoi_gap"])

    def test_divergence_ignores_a_huge_value_where_both_laws_vanish(self, tmp_path, capsys):
        # f = 1e200 on an atom of weight 0 printed NaN for the two variance
        # bounds, with two RuntimeWarnings on stderr.
        files = {"p": {"weights": [0.5, 0.5, 0]}, "q": {"weights": [0.4, 0.6, 0]},
                 "f": {"values": [1, 2, 1e200]}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        code = main(["divergence", "--p", str(tmp_path / "p.json"), "--q", str(tmp_path / "q.json"),
                     "--observable", str(tmp_path / "f.json")])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = strict_json(out)  # a NaN raises
        assert payload["bound_chapman_robbins"] == pytest.approx(0.1, rel=1e-14)
        assert payload["bound_hellinger_improved"] > abs(payload["qoi_gap"])

    @pytest.mark.parametrize("iid", [[], ["--iid", "3"]])
    def test_divergence_of_a_law_from_itself_prints_plus_zeros(self, tmp_path, capsys, iid):
        # f = +-1e200 on the support: Var f is inf, so the variance bounds were
        # inf * 0 = NaN; the order-1/2 Renyi divergence and the Pinsker bound
        # printed -0.0 (log1p(0) / (alpha - 1)).
        files = {"p": {"weights": [0.5, 0.5, 0]}, "f": {"values": [1e200, -1e200, 0]}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        p = str(tmp_path / "p.json")
        code = main(["divergence", "--p", p, "--q", p, "--observable", str(tmp_path / "f.json"),
                     "--alpha", "0.5", *iid])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = strict_json(out)  # a NaN raises
        zeros = ["hellinger", "kl", "renyi", "chi2", "qoi_gap", "bound_ckp", "bound_pinsker",
                 "bound_chapman_robbins", "bound_le_cam", "bound_hellinger_improved"]
        for key in zeros:
            assert payload[key] == 0.0 and math.copysign(1.0, payload[key]) == 1.0, key

    def test_goal_bound_keys(self, fixtures, capsys):
        code = main(
            [
                "goal-bound", "--p", fixtures["p.json"], "--q", fixtures["q.json"],
                "--observable", fixtures["f.json"],
            ]
        )
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert set(payload) == {
            "xi_plus", "xi_minus", "c_star_plus", "c_star_minus", "linearized", "gap",
        }
        assert payload["xi_minus"] - 1e-9 <= payload["gap"] <= payload["xi_plus"] + 1e-9

    def test_markov_report(self, fixtures, capsys):
        code = main(
            [
                "markov", "--p", fixtures["chainp.json"], "--q", fixtures["chainq.json"],
                "--observable", fixtures["g.json"], "--cheap", "--enumerate", "8",
            ]
        )
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["xi_minus"] <= payload["stationary_gap"] <= payload["xi_plus"]
        assert payload["rer"] <= payload["sup_row_re"] <= payload["sup_log_ratio"]
        assert payload["kl_per_step"] > 0

    def test_markov_enumerate_past_the_old_path_cap(self, tmp_path, capsys):
        # 14 steps on 3 states are 3^15 = 14,348,907 paths, past the old
        # enumeration cap; the transfer products take any horizon.
        chains = {
            "p": [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
            "q": [[0.4, 0.4, 0.2], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]],
        }
        args = ["markov"]
        for name, rows in chains.items():
            path = tmp_path / f"chain{name}.json"
            path.write_text(json.dumps({"rows": rows}))
            args += [f"--{name}", str(path)]
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"values": [-1.0, 0.0, 1.0]}))
        assert main([*args, "--observable", str(g), "--enumerate", "14"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["enumerated_steps"] == 14
        assert 0.0 < payload["kl_per_step"] < payload["renyi_per_step"]
        assert 0.0 < payload["hellinger_path"] < math.sqrt(2.0)

    def test_markov_perron_roots_all_come_from_log_perron(self, fixtures, capsys, monkeypatch):
        # One tilted log-Perron, one shift rule: the lambda-curve and both
        # Renyi rates reach perron_root only through _log_perron.
        counts = {"log_perron": 0, "perron": 0}
        log_perron, perron = markov._log_perron, markov.perron_root

        def counted_log_perron(*args):
            counts["log_perron"] += 1
            return log_perron(*args)

        def counted_perron(*args):
            counts["perron"] += 1
            return perron(*args)

        monkeypatch.setattr(markov, "_log_perron", counted_log_perron)
        monkeypatch.setattr(markov, "perron_root", counted_perron)
        code = main(
            [
                "markov", "--p", fixtures["chainp.json"], "--q", fixtures["chainq.json"],
                "--observable", fixtures["g.json"], "--cheap",
            ]
        )
        assert code == 0
        assert counts["perron"] == counts["log_perron"] > 2
        capsys.readouterr()

    def test_markov_report_sets_up_the_pair_once(self, fixtures, capsys, monkeypatch):
        counts = {"stationary": 0, "iact": 0, "xi_bounds": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(markov, "stationary_distribution",
                            counted("stationary", markov.stationary_distribution))
        monkeypatch.setattr(markov, "integrated_autocorrelation",
                            counted("iact", markov.integrated_autocorrelation))
        monkeypatch.setattr(markov, "xi_bounds", counted("xi_bounds", markov.xi_bounds))
        code = main(
            [
                "markov", "--p", fixtures["chainp.json"], "--q", fixtures["chainq.json"],
                "--observable", fixtures["g.json"], "--cheap", "--enumerate", "8",
            ]
        )
        assert code == 0
        # mu_p and mu_q once each, which the IACT reuses; one bound at the
        # exact rate and one at each surrogate.
        assert counts == {"stationary": 2, "iact": 1, "xi_bounds": 3}
        monkeypatch.undo()
        payload = json.loads(capsys.readouterr().out)
        p, q = load_chain(fixtures["chainp.json"]), load_chain(fixtures["chainq.json"])
        g = Observable([0.0, 1.0])
        rate, cheap = xi_rate_bounds(q, p, g), cheap_rate_bounds(q, p, g)
        path = path_divergence_report(p, q, 8)
        gap = g.expectation(stationary_distribution(q)) - g.expectation(stationary_distribution(p))
        assert payload == {
            "rer": rate.rer,
            "renyi_rate": renyi_rate(q, p, 2.0),
            "renyi_alpha": 2.0,
            "chi2_rate": chi2_rate(q, p),
            "xi_plus": rate.xi_plus_rate,
            "xi_minus": rate.xi_minus_rate,
            "iact": rate.iact,
            "stationary_gap": gap,
            "sup_row_re": cheap.sup_row_re,
            "sup_log_ratio": cheap.sup_log_ratio,
            "xi_plus_sup_row_re": cheap.bounds_sup_row_re.xi_plus,
            "xi_minus_sup_row_re": cheap.bounds_sup_row_re.xi_minus,
            "xi_plus_sup_log_ratio": cheap.bounds_sup_log_ratio.xi_plus,
            "xi_minus_sup_log_ratio": cheap.bounds_sup_log_ratio.xi_minus,
            "enumerated_steps": 8,
            "kl_per_step": path.kl / 8,
            "renyi_per_step": path.renyi / 8,
            "hellinger_path": path.hellinger,
        }

    def test_markov_report_on_a_periodic_pair(self, tmp_path, capsys):
        # Period 2: every step switches between {0, 1} and {2, 3}.  The IACT
        # is the Poisson-equation variance, finite, so the report is strict JSON.
        chains = {
            "p": [[0, 0, 0.3, 0.7], [0, 0, 0.6, 0.4], [0.5, 0.5, 0, 0], [0.2, 0.8, 0, 0]],
            "q": [[0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5], [0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0]],
        }
        args = ["markov", "--cheap"]
        for name, rows in chains.items():
            path = tmp_path / f"chain{name}.json"
            path.write_text(json.dumps({"rows": rows}))
            args += [f"--{name}", str(path)]
        values = [1.0, 0.0, -1.0, 0.5]
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"values": values}))
        assert main([*args, "--observable", str(g)]) == 0
        payload = strict_json(capsys.readouterr().out)
        p = load_chain(str(tmp_path / "chainp.json"))
        assert payload["iact"] == markov.integrated_autocorrelation(p, Observable(values)) > 0.0
        assert payload["xi_minus"] <= payload["stationary_gap"] <= payload["xi_plus"]

    @pytest.mark.parametrize("alpha, orders", [("2", [2.0]), ("3", [2.0, 3.0])])
    def test_markov_solves_each_renyi_order_once(
        self, fixtures, capsys, monkeypatch, alpha, orders
    ):
        # The chi-squared rate is the Renyi rate of order 2: at --alpha 2 the
        # one order-2 Perron root serves both payload values.
        solved = []
        exponents = markov._renyi_exponents

        def counted(q, p, order):
            solved.append(order)
            return exponents(q, p, order)

        monkeypatch.setattr(markov, "_renyi_exponents", counted)
        code = main(
            [
                "markov", "--p", fixtures["chainp.json"], "--q", fixtures["chainq.json"],
                "--observable", fixtures["g.json"], "--alpha", alpha,
            ]
        )
        assert code == 0
        assert sorted(solved) == orders
        payload = strict_json(capsys.readouterr().out)
        p, q = load_chain(fixtures["chainp.json"]), load_chain(fixtures["chainq.json"])
        assert payload["renyi_rate"] == renyi_rate(q, p, float(alpha))
        assert payload["chi2_rate"] == chi2_rate(q, p)

    def test_gibbs_report(self, fixtures, capsys):
        code = main(
            ["gibbs", "--phi", fixtures["phi.json"], "--psi", fixtures["psi.json"], "--n", "3"]
        )
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["num_sites"] == 7
        assert payload["triple_norm_phi"] == pytest.approx(0.8)
        assert payload["xi_minus"] - 1e-9 <= payload["qoi_gap"] <= payload["xi_plus"] + 1e-9

    def test_phase_subcommand(self, fixtures, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "--out", str(out), "phase", "--q", fixtures["mq.json"],
                "--p", fixtures["mp.json"], "--sweep", "h",
                "--start", "-0.2", "--stop", "0.2", "--step", "0.1",
            ]
        )
        assert code == 0
        rows = parse_rows_csv(out.read_text())
        assert len(rows) == 5
        for row in rows:
            assert row.xi_lower - 1e-9 <= row.true_qoi <= row.xi_upper + 1e-9

    @pytest.mark.parametrize(
        "q_kind, p_extra, sweep, value",
        [
            # Within 1e-9 of beta_c the Onsager integrand used to divide by a
            # cancelled 0 at theta = 0.
            ("ising2d", {"d": 2}, "beta", ising2d_critical_beta(1.0) * (1.0 + 1e-10)),
            ("ising2d", {"d": 2}, "beta", ising2d_critical_beta(1.0) * (1.0 - 1e-10)),
            # |beta h| > 355 used to overflow sinh^2 in the 1-D chain quantities.
            ("ising1d", {}, "h", 400.0),
            ("ising1d", {}, "h", -400.0),
        ],
    )
    def test_strict_one_point_sweep_is_finite(self, tmp_path, q_kind, p_extra, sweep, value):
        q, p, out = tmp_path / "q.json", tmp_path / "p.json", tmp_path / "s.csv"
        q.write_text(json.dumps({"kind": q_kind, "beta": 1.0, "J": 1.0}))
        p.write_text(json.dumps({"kind": "meanfield", "beta": 1.0, "J": 1.0, **p_extra}))
        code = main(
            [
                "--strict", "--out", str(out), "phase", "--q", str(q), "--p", str(p),
                "--sweep", sweep, "--start", repr(value), "--stop", repr(value), "--step", "1",
            ]
        )
        assert code == 0
        (row,) = parse_rows_csv(out.read_text())
        assert all(math.isfinite(v) for v in row.as_tuple())
        assert row.xi_lower - 1e-9 <= row.true_qoi <= row.xi_upper + 1e-9

    def test_overflowing_model_gives_nan_rows(self, tmp_path, capsys):
        # At beta J = 400 the zero-field chain is 0/0 (its per-site variance
        # e^{800} is beyond the float range): a NaN row, or exit 1 under
        # --strict, never a traceback.  With a field the chain is finite.
        out = tmp_path / "s.csv"
        args = _low_temperature_sweep(tmp_path)
        assert main(["--out", str(out), *args]) == 0
        rows = parse_rows_csv(out.read_text())
        assert [r.param for r in rows] == [0.0, 0.1]
        assert all(math.isnan(v) for v in rows[0].as_tuple()[1:])
        assert all(math.isfinite(v) for v in rows[1].as_tuple())
        assert rows[1].xi_lower <= rows[1].true_qoi <= rows[1].xi_upper
        # m = e^{bJ} sinh y / sqrt(e^{2bJ} sinh^2 y + e^{-2bJ}) at y = 0.1
        m = ising1d_quantities(Ising1DParams(beta=1.0, J=400.0, h=0.1)).magnetization
        assert abs(m - 1.0 / math.sqrt(1.0 + math.exp(-1600.0) / math.sinh(0.1) ** 2)) <= 1e-12
        capsys.readouterr()
        assert main(["--strict", "--out", str(out), *args]) == 1
        assert "infoscale: error: h = 0.0: float division by zero" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["", "debug"])
    def test_nan_row_warning_is_one_line(self, tmp_path, level):
        # The default log level names the failure in one line; only
        # INFOSCALE_LOG=debug adds its traceback.
        env = {k: v for k, v in os.environ.items() if k != "INFOSCALE_LOG"}
        env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
        if level:
            env["INFOSCALE_LOG"] = level
        run = subprocess.run(
            [sys.executable, "-m", "infoscale.cli", *_low_temperature_sweep(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0
        warning = ("infoscale.sweep: grid point 0 failed "
                   "(NumericsError: h = 0.0: float division by zero); emitting NaN row")
        assert warning in run.stderr.splitlines()
        if level:
            assert "Traceback" in run.stderr
        else:
            assert "Traceback" not in run.stderr
            assert len(run.stderr.splitlines()) == 2  # the row and the failure count

    def test_non_numeric_observable_names_the_file(self, fixtures, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"values": {"a": 1}}))
        code = main(
            ["goal-bound", "--p", fixtures["p.json"], "--q", fixtures["q.json"],
             "--observable", str(obs)]
        )
        assert code == 1
        assert f"{obs}: field 'values' must hold numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command,payload", [
        ("gibbs", {"d": 1, "clusters": [{"offsets": [[0]], "type": "field", "coeff": [1]}]}),
        ("gibbs", {"d": 1, "clusters": [5]}),
        ("phase", {"kind": "ising1d", "beta": [1]}),
        # Non-finite couplings used to run every grid point to a NaN row and
        # exit 0; fractional dimensions and offsets used to be truncated.
        ("phase", {"kind": "ising1d", "beta": 1, "J": math.nan}),
        ("phase", {"kind": "ising1d", "beta": math.inf}),
        ("phase", {"kind": "ising1d", "beta": 1, "h": -math.inf}),
        ("phase", {"kind": "ising2d", "beta": 1, "J": math.nan}),
        ("phase", {"kind": "meanfield", "beta": 1, "h": math.nan}),
        ("phase", {"kind": "meanfield", "beta": 1, "d": 2.7}),
        ("gibbs", {"d": 1.5, "clusters": [{"offsets": [[0], [1]], "coeff": -0.5}]}),
        ("gibbs", {"d": 1, "clusters": [{"offsets": [[0], [1.7]], "coeff": -0.5}]}),
        # Unknown keys used to load silently and run the defaults, and a JSON
        # boolean used to load as 0 or 1.
        ("phase", {"kind": "ising1d", "beta": 1, "j": 2}),
        ("phase", {"kind": "ising2d", "beta": 1, "h": 0.3}),
        ("phase", {"kind": "meanfield", "beta": 1, "d": True}),
        ("phase", {"kind": "ising1d", "beta": True}),
        ("gibbs", {"d": 1, "spin": [-1, 1], "clusters": [{"offsets": [[0]], "coeff": -0.5}]}),
        ("gibbs", {"d": 1, "clusters": [{"offsets": [[0]], "coef": -0.5, "coeff": 0.0}]}),
        ("gibbs", {"d": True, "clusters": [{"offsets": [[0]], "coeff": -0.5}]}),
        ("gibbs", {"d": 1, "clusters": [{"offsets": [[0]], "coeff": False}]}),
        ("gibbs", {"d": 1, "clusters": [{"offsets": [[0], [True]], "coeff": -0.5}]}),
        ("divergence", {"weights": [True, 1]}),
        ("divergence", {"weights": [0.5, 0.5], "wieghts": 3}),
        ("goal-bound", {"values": [True, False]}),
        ("markov", {"rows": [[0.5, 0.5], [True, False]]}),
        ("markov", {"rows": [[0.7, 0.3], [0.4, 0.6]], "label": ["a", "b"]}),
        # Values the constructors reject name the file too, so a bad --p
        # and a bad --q can be told apart.
        ("divergence", {"weights": [0.3, 0.3]}),
        ("markov-q", {"rows": [[0.5, 0.4], [0.4, 0.6]]}),
        # An integer beyond the float range used to escape as a raw
        # OverflowError traceback.
        ("divergence", {"weights": [10**400, 1]}),
        ("goal-bound", {"values": [10**400, 1]}),
        ("markov", {"rows": [[0.5, 0.5], [10**400, 0]]}),
        ("phase", {"kind": "ising1d", "beta": 10**400}),
        ("gibbs", {"d": 1, "clusters": [{"offsets": [[0]], "type": "field", "coeff": 10**400}]}),
    ])
    def test_malformed_fields_name_the_file(self, fixtures, tmp_path, capsys, command, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(_argv_reading(command, bad, fixtures)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"infoscale: error: {bad}: ")

    @pytest.mark.parametrize("command", ["gibbs", "phase", "divergence", "goal-bound", "markov"])
    @pytest.mark.parametrize("content", [
        b"\xff{}",
        b'{"values": [1' + b"0" * 5000 + b"]}",
    ], ids=["not-utf-8", "past-int-digit-limit"])
    def test_unreadable_file_names_itself(self, fixtures, tmp_path, capsys, command, content):
        # Each used to print only the decoder's message ("'utf-8' codec can't
        # decode byte 0xff ..." or "Exceeds the limit (4300 digits) ..."),
        # with no path.
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(_argv_reading(command, bad, fixtures)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"infoscale: error: {bad}: ")
        assert ("codec can't decode" if content[0] == 0xFF else "integer string") in err[0]

    def test_integral_floats_still_load(self, tmp_path):
        # 2.0 is an integer: a mean-field dimension, an interaction dimension
        # and an offset written with a decimal point load as ints.
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"kind": "meanfield", "beta": 1.0, "d": 2.0}))
        assert load_model(model) == MeanFieldParams(beta=1.0, d=2)
        assert type(load_model(model).d) is int
        inter = tmp_path / "i.json"
        inter.write_text(json.dumps({"d": 1.0, "clusters": [{"offsets": [[0], [1.0]], "coeff": -0.5}]}))
        loaded = load_interaction(inter)
        assert loaded.dimension == 1 and loaded.clusters[0].offsets == ((0,), (1,))

    def test_overflowing_site_total_is_one_error_line(self, fixtures, tmp_path, capsys):
        # Three sites with g = +-1e154 spread the site total past 1.3e154,
        # where its variance overflows.
        obs = tmp_path / "g.json"
        obs.write_text(json.dumps({"values": [-1e154, 1e154]}))
        argv = ["gibbs", "--phi", fixtures["phi.json"], "--psi", fixtures["psi.json"],
                "--n", "1", "--observable", str(obs)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "observable spread" in err[0]

    @pytest.mark.parametrize("q, p, sweep", [
        ({"kind": "ising2d", "beta": 1.0}, {"kind": "meanfield", "beta": 1.0, "d": 2}, "h"),
        ({"kind": "meanfield", "beta": 1.0}, {"kind": "ising1d", "beta": 1.0}, "beta"),
        ({"kind": "ising2d", "beta": 1.0}, {"kind": "ising2d", "beta": 1.0}, "beta"),
    ])
    def test_sweep_without_any_row_is_error_exit(self, tmp_path, capsys, q, p, sweep):
        # Such a sweep used to write one NaN row per grid point and exit 0.
        q_path, p_path, out = tmp_path / "q.json", tmp_path / "p.json", tmp_path / "s.csv"
        q_path.write_text(json.dumps(q))
        p_path.write_text(json.dumps(p))
        code = main(["--out", str(out), "phase", "--q", str(q_path), "--p", str(p_path),
                     "--sweep", sweep, "--start", "0.1", "--stop", "0.3", "--step", "0.1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("infoscale: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("coeff", ["1e400", "NaN"])
    def test_non_finite_coefficient_names_the_file(self, fixtures, tmp_path, capsys, coeff):
        # 1e400 parses to inf; either one used to reach the energies and
        # fail there with a RuntimeWarning.
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 1, "clusters": [{"offsets": [[0]], "type": "field", '
                       f'"coeff": {coeff}}}]}}')
        argv = ["gibbs", "--phi", str(bad), "--psi", fixtures["psi.json"], "--n", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"infoscale: error: {bad}: cluster 0: ")
        assert "finite" in err[0]

    @pytest.mark.parametrize("spins, message", [
        ("[NaN, 1]", "spin states must be finite"),
        ("[Infinity, 1]", "spin states must be finite"),
        ("[-1]", "need at least two spin states"),
    ])
    def test_bad_spin_states_name_the_file(self, fixtures, tmp_path, capsys, spins, message):
        # Non-finite states used to fail as "the Hamiltonian leaves the float
        # range", and a single state named no file.
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"d": 1, "spins": {spins}, "clusters": '
                       '[{"offsets": [[0]], "type": "field", "coeff": 0.1}]}')
        argv = ["gibbs", "--phi", fixtures["phi.json"], "--psi", str(bad), "--n", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"infoscale: error: {bad}: {message}")

    @pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
    @pytest.mark.parametrize("n, spins, coeff, message", [
        # Three sites: +-3e308 overflow in the energy sum itself.
        ("1", [-1, 1], 1e308, "the Hamiltonian leaves the float range"),
        # One site: energies +-1e308 are finite, their spread is not.
        ("0", [-1, 1], 1e308, "the Hamiltonian leaves the float range"),
        # One site, spins {0, 1}: each measure's energies (0, +-1.5e308) are
        # in range, but H^Phi - H^Psi is not.
        ("0", [0, 1], 1.5e308, "the Hamiltonian difference H^Phi - H^Psi leaves"),
        # One site, fields +-5e307: energies, spread and difference are in
        # range, but the triple-norm surrogate 2 N |||Phi - Psi||| = 2e308 is
        # not; it used to reach xi_bounds and fail as a non-finite CGF.
        ("0", [-1, 1], 5e307, "the triple-norm surrogate 2 N |||Phi - Psi||| = inf leaves"),
    ], ids=["energy-sum", "energy-spread", "energy-difference", "triple-norm-surrogate"])
    def test_overflowing_hamiltonian_is_one_error_line(
        self, tmp_path, warnings, n, spins, coeff, message
    ):
        paths = []
        for sign in (1, -1):
            path = tmp_path / f"field{sign}.json"
            path.write_text(json.dumps({"d": 1, "spins": spins, "clusters": [
                {"offsets": [[0]], "type": "field", "coeff": sign * coeff}]}))
            paths.append(str(path))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-W", warnings, "-m", "infoscale.cli", "gibbs",
             "--phi", paths[0], "--psi", paths[1], "--n", n],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 1
        assert run.stdout == ""
        err = run.stderr.splitlines()
        assert len(err) == 1, run.stderr
        assert err[0].startswith(f"infoscale: error: {message}")

    @pytest.mark.parametrize("command", [
        ["divergence", "--p", "p.json", "--q", "q.json"],
        ["markov", "--p", "chainp.json", "--q", "chainq.json", "--observable", "g.json",
         "--enumerate", "3"],
    ], ids=["divergence", "markov"])
    def test_infinite_renyi_order_is_one_error_line(self, fixtures, command):
        # divergence used to exit 0 with "renyi": NaN and a RuntimeWarning;
        # markov failed as "Perron root requires finite entries".
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-W", "default", "-m", "infoscale.cli",
             *[fixtures.get(a, a) for a in command], "--alpha", "inf"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.splitlines() == [
            "infoscale: error: Renyi order must be positive and finite, got inf"
        ]

    def test_oversized_grid_is_error_exit(self, fixtures, capsys, monkeypatch):
        # Fail, rather than allocate ~1e299 floats, if the cap is ever lost.
        monkeypatch.setattr(SweepConfig, "grid", lambda self: pytest.fail("grid built"))
        code = main(
            [
                "phase", "--q", fixtures["mq.json"], "--p", fixtures["mp.json"],
                "--sweep", "h", "--start", "0", "--stop", "0.1", "--step", "1e-300",
            ]
        )
        assert code == 1
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["figure", "2a"],
        ["phase", "--q", "mq.json", "--p", "mp.json", "--sweep", "h",
         "--start", "0", "--stop", "0.1", "--step", "0.1"],
    ], ids=["figure", "phase"])
    def test_jobs_below_one_is_error_exit(self, fixtures, capsys, command):
        argv = [fixtures.get(a, a) for a in command]
        assert main(["--jobs", "0", *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["infoscale: error: --jobs must be at least 1"]

    def test_figure_deterministic_across_jobs(self, tmp_path):
        out1, out8 = tmp_path / "a.csv", tmp_path / "b.csv"
        # A preset is cheap enough to run twice here (5a has closed forms only).
        assert main(["--out", str(out1), "figure", "5a"]) == 0
        assert main(["--out", str(out8), "--jobs", "8", "figure", "5a"]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_json_format(self, fixtures, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "--out", str(out), "--format", "json", "phase",
                "--q", fixtures["mq.json"], "--p", fixtures["mp.json"],
                "--sweep", "h", "--start", "0.0", "--stop", "0.2", "--step", "0.1",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 3
        assert set(payload[0]) == {
            "param", "baseline_qoi", "true_qoi", "xi_lower", "xi_upper",
            "lin_lower", "lin_upper", "re_rate",
        }

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["divergence", "--p", str(tmp_path / "nope.json"), "--q", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["input", "out"])
    def test_directory_path_is_one_error_line(self, fixtures, tmp_path, capsys, where):
        # Reading or writing a directory raised a raw IsADirectoryError.
        q = str(tmp_path) if where == "input" else fixtures["mq.json"]
        out = ["--out", str(tmp_path)] if where == "out" else []
        code = main([*out, "phase", "--q", q, "--p", fixtures["mp.json"], "--sweep", "h",
                     "--start", "0", "--stop", "0.1", "--step", "0.1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("infoscale: error: ")

    def test_invalid_json_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"weights": [0.5,]}')
        code = main(["divergence", "--p", str(bad), "--q", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["figure", "7q"])

    @pytest.mark.parametrize("field, value", [
        ("step", "inf"), ("start", "nan"), ("stop", "inf"), ("step", "nan"),
    ])
    def test_non_finite_grid_is_error_exit(self, fixtures, capsys, field, value):
        # --step inf printed one row with param nan; the others were refused
        # as a grid past the cap.
        grid = {"start": "0", "stop": "1", "step": "0.1", field: value}
        code = main(["phase", "--q", fixtures["mq.json"], "--p", fixtures["mp.json"],
                     "--sweep", "h", *(a for k, v in grid.items() for a in (f"--{k}", v))])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [f"infoscale: error: {field} must be finite, got {float(value)!r}"]

    def test_empty_range_is_error_exit(self, fixtures, capsys):
        code = main(
            [
                "phase", "--q", fixtures["mq.json"], "--p", fixtures["mp.json"],
                "--sweep", "h", "--start", "1.0", "--stop", "0.5", "--step", "0.1",
            ]
        )
        assert code == 1
        assert "empty sweep range" in capsys.readouterr().err


# Small JSON inputs for the CLI: mostly well-formed, now and then a value of
# the wrong type or a missing field.
_JUNK = st.one_of(st.none(), st.text(max_size=2), st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))
_NUMBER = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-300, 50.0, -1e200, 1e300]))


def _rarely_junk(strategy):
    return st.integers(0, 15).flatmap(lambda k: _JUNK if k == 0 else strategy)


def _normalized(n):
    """Probability vectors of length n (some entries 0) or junk."""
    raw = st.lists(st.sampled_from([0.0, 0.05]) | st.floats(0.0, 1.0), min_size=n, max_size=n)
    return _rarely_junk(raw.filter(lambda w: sum(w) > 0).map(lambda w: [x / sum(w) for x in w]))


def _numbers(n):
    return _rarely_junk(st.lists(_rarely_junk(_NUMBER), min_size=n, max_size=n))


@st.composite
def _json_object(draw, fields):
    """A JSON object holding each field, each left out with probability 1/16."""
    return {k: draw(v) for k, v in fields.items() if draw(st.integers(0, 15))}


@st.composite
def _goal_bound_args(draw):
    n = draw(st.integers(1, 4))
    weights = _json_object({"weights": _normalized(n)})
    files = {"p": draw(weights), "q": draw(weights),
             "observable": draw(_json_object({"values": _numbers(n)}))}
    return files, ["--renormalize"] if draw(st.booleans()) else []


@st.composite
def _markov_args(draw):
    n = draw(st.integers(1, 3))
    chain = _json_object({"rows": _rarely_junk(st.lists(_normalized(n), min_size=n, max_size=n))})
    files = {"p": draw(chain), "q": draw(chain),
             "observable": draw(_json_object({"values": _numbers(n)}))}
    extra = ["--cheap"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        extra += ["--enumerate", str(draw(st.integers(1, 3)))]
    return files, extra


def _interaction(d):
    origin, step = [0] * d, [1] + [0] * (d - 1)
    offsets = st.sampled_from([[origin], [origin, step], [origin, [2] + origin[1:]], [step]])
    cluster = _json_object({"offsets": _rarely_junk(offsets), "coeff": _rarely_junk(_NUMBER),
                            "type": st.sampled_from(["product", "pair_product", "field", "x"])})
    return _json_object({"d": _rarely_junk(st.just(d)),
                         "clusters": _rarely_junk(st.lists(_rarely_junk(cluster), max_size=3))})


@st.composite
def _gibbs_args(draw):
    d = draw(st.integers(1, 2))
    return ({"phi": draw(_interaction(d)), "psi": draw(_interaction(d))},
            ["--n", str(draw(st.integers(0, 3 - d)))])


@st.composite
def _phase_args(draw):
    kind = draw(st.sampled_from(["ising1d", "ising2d", "meanfield"]))
    branches = {"ising2d": ["plus", "minus"], "meanfield": ["upper", "lower"]}.get(kind, ["x"])
    model = _json_object({
        "kind": _rarely_junk(st.just(kind)),
        "beta": _rarely_junk(st.floats(0.05, 2.0) | _NUMBER), "J": _rarely_junk(_NUMBER),
        "h": _rarely_junk(_NUMBER), "d": _rarely_junk(st.integers(0, 3)),
        "branch": _rarely_junk(st.sampled_from(branches)),
    })
    start = draw(st.floats(-1.0, 1.0))
    stop = start + draw(st.floats(0.0, 0.5))
    grid = ["--sweep", draw(st.sampled_from(["h", "beta"])), f"--start={start!r}",
            f"--stop={stop!r}", "--step=0.25"]
    return {"q": draw(model), "p": draw(model)}, grid


_COMMANDS = {"goal-bound": _goal_bound_args(), "markov": _markov_args(),
             "gibbs": _gibbs_args(), "phase": _phase_args()}


class TestCliInputs:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), command=st.sampled_from(sorted(_COMMANDS)), strict=st.booleans())
    def test_small_inputs_exit_cleanly(self, data, command, strict):
        # Whatever the JSON holds, the CLI reports a result (exit 0) or one
        # error line (exit 1); no exception leaves main.
        files, extra = data.draw(_COMMANDS[command])
        with tempfile.TemporaryDirectory() as root:
            argv = ["--strict", command] if strict else [command]
            for name, payload in files.items():
                path = Path(root) / f"{name}.json"
                path.write_text(json.dumps(payload))
                argv += [f"--{name}", str(path)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + extra)
        assert code in (0, 1)
