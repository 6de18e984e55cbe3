"""Command-line interface.

    simulate sweep --config fig2 --out fig2.csv [--axis ... --range lo:hi
             --points N --control {L|M|R}]
    simulate modulate --config fig8 [--out report.txt --trajectory-out t.csv]
    simulate populations --config fig6 --out pops.csv
    simulate channels-dump --config fig2 --out channels.csv
    simulate validate --config fig2

--config accepts a file path or a shipped preset name; without --out a
command writes to stdout, and validate always does.  Each command solves
all of its operating points in one batched call (see
qtransistor.dynamics.solve), and a sweep's CSV rows are formatted from
that call's columns (experiments.SweepResult); the argument parser is
built once, when the module is imported.  populations reads its T_M grid
as sweep does (sweep_from_config).  Exit codes: 0 success, 2 invalid
configuration (a config file that is not UTF-8 included), unwritable
output, or a point that populations or modulate cannot solve (a domain
error of the kernel, SteadyStateError), 3 every sweep point failed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .channels import channel_table, channels_analytic
from .dynamics import SteadyStateError
from .experiments import (
    ConfigError,
    _get_float,
    drive_from_config,
    error_text,
    fmt,
    format_rows,
    load_config,
    params_from_config,
    run_modulation,
    run_populations,
    run_sweep,
    sweep_from_config,
    write_lines,
    write_population_csv,
    write_sweep_csv,
)
from .model import RESERVOIRS, ParameterError, validate_secular

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Three-qubit thermal transistor simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="config file path or preset name (e.g. fig2)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="one-dimensional parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", default=None, help="override the sweep axis")
    p_sweep.add_argument("--range", dest="range_", default=None, metavar="LO:HI",
                         help="override the sweep range")
    p_sweep.add_argument("--points", type=int, default=None)
    p_sweep.add_argument("--control", choices=RESERVOIRS, default=None)

    p_mod = sub.add_parser("modulate", help="dark-state heat modulation protocol")
    add_common(p_mod)
    p_mod.add_argument("--trajectory-out", default=None,
                       help="CSV for the driven-pair population trajectory")

    p_pop = sub.add_parser("populations", help="steady populations vs T_M")
    add_common(p_pop)
    p_pop.add_argument("--points", type=int, default=None)

    p_ch = sub.add_parser("channels-dump", help="dissipation channel table")
    add_common(p_ch)

    p_val = sub.add_parser("validate", help="check regime assumptions")
    p_val.add_argument("--config", required=True)
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.axis is not None:
        cfg["axis"] = args.axis
    if args.range_ is not None:
        try:
            lo, hi = args.range_.split(":")
            cfg["lo"], cfg["hi"] = lo, hi
        except ValueError:
            raise ConfigError(f"--range expects LO:HI, got {args.range_!r}") from None
    if args.points is not None:
        cfg["points"] = str(args.points)
    if args.control is not None:
        cfg["control"] = args.control
    spec = sweep_from_config(cfg)
    result = run_sweep(spec)
    errors = result.solution.errors
    if all(error is not None for error in errors):
        sys.stderr.write("error: every sweep point failed; first failure: "
                         f"{error_text(errors[0])}\n")
        return EXIT_ALL_FAILED
    write_sweep_csv(result, args.out)
    return EXIT_OK


def _cmd_modulate(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    drive = drive_from_config(cfg)
    report = run_modulation(params, drive, _get_float(cfg, "rho44_init"))
    lines = [
        f"rho44_before = {fmt(report.rho44_before)}",
        f"Q_L_before = {fmt(report.currents_before.Q_L)}",
        f"Q_M_before = {fmt(report.currents_before.Q_M)}",
        f"Q_R_before = {fmt(report.currents_before.Q_R)}",
        f"rho44_after = {fmt(report.rho44_after)}",
        f"Q_L_after = {fmt(report.currents_after.Q_L)}",
        f"Q_M_after = {fmt(report.currents_after.Q_M)}",
        f"Q_R_after = {fmt(report.currents_after.Q_R)}",
        f"scale_factor = {fmt(report.scale_factor)}",
        f"predicted_scale = {fmt(report.predicted_scale)}",
    ]
    write_lines(lines, args.out)
    if args.trajectory_out is not None:
        rows = format_rows(np.column_stack([report.times, report.rho44_trajectory]))
        write_lines(["t,rho44", *rows], args.trajectory_out)
    return EXIT_OK


def _cmd_populations(args) -> int:
    cfg = load_config(args.config)
    if args.points is not None:
        cfg["points"] = str(args.points)
    spec = sweep_from_config(cfg)
    curves = run_populations(spec, _get_float(cfg, "compare_lambda1", 0.0))
    write_population_csv(curves, args.out)
    return EXIT_OK


def _cmd_channels_dump(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    rows = ["reservoir,k,frequency,i,j,amplitude"]
    for nu, k, freq, i, j, a in channel_table(channels_analytic(params)):
        rows.append(f"{nu},{k},{fmt(freq)},{i},{j},{fmt(a)}")
    write_lines(rows, args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    report = validate_secular(params)
    lines = [
        f"ratio_2g_max_gamma = {fmt(report.ratio_2g_max_gamma)}",
        f"min_omega_over_g = {fmt(report.min_omega_over_g)}",
        f"min_bohr_gap = {fmt(report.min_bohr_gap)}",
        f"status = {'PASS' if report.passed else 'WARN'}",
    ]
    for w in report.warnings:
        lines.append(f"warning = {w}")
    write_lines(lines, None)
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "modulate": _cmd_modulate,
    "populations": _cmd_populations,
    "channels-dump": _cmd_channels_dump,
    "validate": _cmd_validate,
}


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, SteadyStateError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
