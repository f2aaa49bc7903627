"""Command-line interface.

Subcommands: ``divergence``, ``goal-bound``, ``markov``, ``gibbs``,
``phase``, ``figure``.  Scalar reports are emitted as JSON; sweeps default
to CSV.  The ``INFOSCALE_LOG`` environment variable (debug|info|warn)
controls diagnostics on stderr.

This module loads only ``argparse``, ``json``, ``os``, ``sys`` and ``errors``;
each handler imports the layers it runs when it runs, and reads their
functions at call time.  So ``--help`` loads no model layer, and the parser
reads the ``figure`` preset names from the data-only ``presets``.  ``phase``
and ``figure`` load ``jsonio``, ``sweep`` and the exact-model layer, never
numpy; ``divergence``, ``goal-bound``, ``markov`` and ``gibbs`` load
``jsonio``, numpy and their own layers, never ``sweep`` or ``exact_models``.
The sweep diagnostics are the only logging: ``logging`` is imported, and
configured from ``INFOSCALE_LOG``, only for ``phase`` and ``figure``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InfoscaleError, ParameterError


def _configure_logging():
    """Set the level from ``INFOSCALE_LOG``; returns this module's logger."""
    import logging

    level = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}.get(
        os.environ.get("INFOSCALE_LOG", "warn").lower(), logging.WARNING
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")
    return logging.getLogger("infoscale.cli")


def _emit(payload: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(payload)
    else:
        from pathlib import Path

        Path(out_path).write_text(payload)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _cmd_divergence(args) -> int:
    from . import jsonio
    from .divergences import classical_qoi_bounds, divergence_report, iid_scaled_divergences

    p = jsonio.load_distribution(args.p, renormalize=args.renormalize)
    q = jsonio.load_distribution(args.q, renormalize=args.renormalize)
    if args.iid is not None:
        report = iid_scaled_divergences(p, q, args.iid, alpha=args.alpha)
    else:
        report = divergence_report(p, q, alpha=args.alpha)
    payload = report.as_dict()
    if args.observable is not None:
        f = jsonio.load_observable(args.observable)
        bounds = classical_qoi_bounds(p, q, f)
        payload["qoi_gap"] = f.gap(q, p)
        payload.update({f"bound_{k}": v for k, v in bounds.as_dict().items()})
    _emit_json(payload, args.out)
    return 0


def _cmd_goal_bound(args) -> int:
    from . import jsonio
    from .divergences import relative_entropy
    from .goal_oriented import EmpiricalCgf, xi_bounds

    p = jsonio.load_distribution(args.p, renormalize=args.renormalize)
    q = jsonio.load_distribution(args.q, renormalize=args.renormalize)
    f = jsonio.load_observable(args.observable)
    bound = xi_bounds(EmpiricalCgf(p, f), relative_entropy(q, p))
    payload = bound.as_dict()
    payload["gap"] = f.gap(q, p)
    _emit_json(payload, args.out)
    return 0


def _cmd_markov(args) -> int:
    from . import jsonio, markov

    p = jsonio.load_chain(args.p)
    q = jsonio.load_chain(args.q)
    g = jsonio.load_observable(args.observable)
    cheap = markov.cheap_rate_bounds(q, p, g) if args.cheap else None
    bound = cheap.exact if args.cheap else markov.xi_rate_bounds(q, p, g)
    chi2_rate = markov.chi2_rate(q, p)  # the Renyi rate of order 2
    payload = {
        "rer": bound.rer,
        "renyi_rate": chi2_rate if args.alpha == 2.0 else markov.renyi_rate(q, p, args.alpha),
        "renyi_alpha": args.alpha,
        "chi2_rate": chi2_rate,
        "xi_plus": bound.xi_plus_rate,
        "xi_minus": bound.xi_minus_rate,
        "iact": bound.iact,
        "stationary_gap": bound.stationary_gap,
    }
    if args.cheap:
        payload.update(
            {
                "sup_row_re": cheap.sup_row_re,
                "sup_log_ratio": cheap.sup_log_ratio,
                "xi_plus_sup_row_re": cheap.bounds_sup_row_re.xi_plus,
                "xi_minus_sup_row_re": cheap.bounds_sup_row_re.xi_minus,
                "xi_plus_sup_log_ratio": cheap.bounds_sup_log_ratio.xi_plus,
                "xi_minus_sup_log_ratio": cheap.bounds_sup_log_ratio.xi_minus,
            }
        )
    if args.enumerate is not None:
        steps = args.enumerate
        path = markov.path_divergence_report(p, q, steps, alpha=args.alpha)
        payload.update(
            {
                "enumerated_steps": steps,
                "kl_per_step": path.kl / steps,
                "renyi_per_step": path.renyi / steps,
                "hellinger_path": path.hellinger,
            }
        )
    _emit_json(payload, args.out)
    return 0


def _cmd_gibbs(args) -> int:
    from . import gibbs, jsonio

    phi = jsonio.load_interaction(args.phi)
    psi = jsonio.load_interaction(args.psi)
    volume = gibbs.LatticeVolume.centered(phi.dimension, args.n)
    if args.observable == "spin":
        g = gibbs.spin_observable(phi)
    else:
        g = jsonio.load_observable(args.observable).values
    phi_m = gibbs.gibbs_measure(phi, volume)
    phi_m.site_total_cgf(g)  # the one site-total law: a chain past the work cap stops here
    psi_m = gibbs.gibbs_measure(psi, volume)
    r = gibbs.gibbs_relative_entropy(psi_m, phi_m)
    bound = gibbs._site_xi(phi_m, g, r)  # finite_volume_xi, on the R just computed
    triple = gibbs.triple_norm_xi(phi_m, psi, g)
    gap_norm = gibbs.triple_norm(gibbs.interaction_difference(phi, psi))
    gap = psi_m.site_total_mean(g) - phi_m.site_total_mean(g)
    n_sites = volume.num_sites
    payload = {
        "num_sites": n_sites,
        "triple_norm_phi": gibbs.triple_norm(phi),
        "triple_norm_psi": gibbs.triple_norm(psi),
        "triple_norm_difference": gap_norm,
        "log_partition_phi": phi_m.log_partition,
        "log_partition_psi": psi_m.log_partition,
        "relative_entropy_per_site": r / n_sites,
        "xi_plus": bound.xi_plus,
        "xi_minus": bound.xi_minus,
        "linearized": bound.linearized_half_width,
        "triple_xi_plus": triple.xi_plus,
        "triple_xi_minus": triple.xi_minus,
        "qoi_gap": gap / n_sites,
    }
    _emit_json(payload, args.out)
    return 0


def _run_config(config, args) -> int:
    from . import sweep

    if args.jobs < 1:
        raise ParameterError("--jobs must be at least 1")
    log = _configure_logging()
    rows, failures = sweep.run_sweep(config)
    if failures:
        log.warning("%d of %d grid points failed", failures, len(rows))
    return 0


def _cmd_phase(args) -> int:
    from . import jsonio, sweep

    config = sweep.SweepConfig(
        model_q=jsonio.load_model(args.q),
        model_p=jsonio.load_model(args.p),
        sweep_parameter=args.sweep,
        start=args.start,
        stop=args.stop,
        step=args.step,
        output_path=args.out,
        fmt=args.format,
        strict=args.strict,
    )
    return _run_config(config, args)


def _cmd_figure(args) -> int:
    from dataclasses import replace

    from . import sweep

    config = replace(
        sweep.figure_preset(args.name),
        output_path=args.out,
        fmt=args.format,
        strict=args.strict,
    )
    return _run_config(config, args)


def build_parser() -> argparse.ArgumentParser:
    from .presets import PRESET_NAMES

    parser = argparse.ArgumentParser(
        prog="infoscale",
        description="Information-divergence UQ bounds for QoIs, chains, and lattices",
    )
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="sweep output format")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; changes neither output nor speed")
    parser.add_argument("--strict", action="store_true",
                        help="fail on any grid-point numerical error")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("divergence", help="divergences between two distributions")
    d.add_argument("--p", required=True)
    d.add_argument("--q", required=True)
    d.add_argument("--alpha", type=float, default=2.0)
    d.add_argument("--observable", default=None)
    d.add_argument("--iid", type=int, default=None, metavar="N")
    d.add_argument("--renormalize", action="store_true")
    d.set_defaults(handler=_cmd_divergence)

    gb = sub.add_parser("goal-bound", help="goal-oriented QoI bound")
    gb.add_argument("--p", required=True)
    gb.add_argument("--q", required=True)
    gb.add_argument("--observable", required=True)
    gb.add_argument("--renormalize", action="store_true")
    gb.set_defaults(handler=_cmd_goal_bound)

    mk = sub.add_parser("markov", help="Markov-chain rates and steady-state bounds")
    mk.add_argument("--p", required=True)
    mk.add_argument("--q", required=True)
    mk.add_argument("--observable", required=True)
    mk.add_argument("--alpha", type=float, default=2.0)
    mk.add_argument("--cheap", action="store_true")
    mk.add_argument(
        "--enumerate", type=int, default=None, metavar="N",
        help="also report the divergences of the N-step path measures started in "
        "the stationary laws, by transfer products (linear in N)",
    )
    mk.set_defaults(handler=_cmd_markov)

    gp = sub.add_parser("gibbs", help="finite-volume Gibbs bounds")
    gp.add_argument("--phi", required=True)
    gp.add_argument("--psi", required=True)
    gp.add_argument("--n", type=int, required=True, help="half-width of the box")
    gp.add_argument("--observable", default="spin")
    gp.set_defaults(handler=_cmd_gibbs)

    ph = sub.add_parser("phase", help="phase-diagram bound sweep")
    ph.add_argument("--q", required=True, help="target model JSON")
    ph.add_argument("--p", required=True, help="baseline model JSON")
    ph.add_argument("--sweep", choices=("beta", "h"), required=True)
    ph.add_argument("--start", type=float, required=True)
    ph.add_argument("--stop", type=float, required=True)
    ph.add_argument("--step", type=float, required=True)
    ph.set_defaults(handler=_cmd_phase)

    fg = sub.add_parser("figure", help="run a preset phase-diagram study")
    fg.add_argument("name", choices=PRESET_NAMES)
    fg.set_defaults(handler=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InfoscaleError, OSError, ValueError) as exc:
        print(f"infoscale: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
