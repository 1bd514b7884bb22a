"""Command line driver: scenario configs in, plot-ready CSV/JSON tables out.

Subcommands: solve (fixed-step oracle), closed-form, multispan, sweep,
preemph, osnr-target, validate-config.  Exit codes: 0 success, 2 config
error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import _csv_lines, run_order_sweep, write_records_csv, write_summary_csv
from .closedform import derive_params, power_profile
from .config import RunConfig, parse_config
from .errors import (
    ConfigurationError,
    ConvergenceError,
    NumericalInstabilityError,
    RootBracketError,
)
from .multispan import propagate_multispan_closedform
from .ode_oracle import integrate_span, propagate_link_numerical
from .profiles import ChannelGrid


def _dbm(watts):
    return 10.0 * np.log10(np.asarray(watts) / 1e-3)


def _write_table(path: Path, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        path.with_suffix(".json").write_text(
            json.dumps(records, indent=1, default=float) + "\n"
        )
        return
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_lines(header, rows))


def _channel_table(
    grid: ChannelGrid, column: str, values_db: np.ndarray
) -> tuple[list[str], list[list]]:
    """One row per channel: index, frequency, band name and one dB value."""
    names = grid.band_names()
    rows = [
        [i, grid.frequencies[i], names[i], value]
        for i, value in enumerate(values_db.tolist())
    ]
    return ["channel", "frequency_thz", "band", column], rows


def _longitudinal_table(spectra) -> tuple[list[str], list[list]]:
    grid = spectra[0].grid
    header = ["z_km"] + [f"p_dbm_{f:.4f}" for f in grid.frequencies] + ["total_dbm"]
    rows = []
    for s in spectra:
        rows.append([s.z, *(_dbm(s.powers).tolist()), float(_dbm(s.total_power))])
    return header, rows


def _require(cfg: RunConfig, attr: str, what: str):
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigurationError(f"this subcommand needs {what} in the config")
    return value


def _span_samples(span_input, params, fiber, cfg: RunConfig) -> list:
    """Closed-form spectra at ``steps_per_span + 1`` evenly spaced z over one span."""
    slope = fiber.raman.as_triangular().slope
    return [
        power_profile(span_input, params, slope, float(z), refresh_reference=cfg.refresh_reference)
        for z in np.linspace(0.0, fiber.length, cfg.solver.steps_per_span + 1)
    ]


def cmd_solve(cfg: RunConfig, out: Path, fmt: str) -> None:
    launch = _require(cfg, "launch", "a launch section")
    if cfg.link is not None:
        result = propagate_link_numerical(launch, cfg.link, cfg.solver)
        spectra = result.longitudinal([r.spectra for r in result.span_results])
    else:
        fiber = _require(cfg, "fiber", "fiber.length_km")
        result = integrate_span(launch, fiber, cfg.solver)
        spectra = result.spectra
    head, rows = _longitudinal_table(spectra)
    _write_table(out / f"{cfg.name}_solve_longitudinal.csv", head, rows, fmt)
    head, rows = _channel_table(launch.grid, "power_dbm", _dbm(result.final.powers))
    _write_table(out / f"{cfg.name}_solve_spectrum.csv", head, rows, fmt)


def cmd_closed_form(cfg: RunConfig, out: Path, fmt: str) -> None:
    launch = _require(cfg, "launch", "a launch section")
    fiber = _require(cfg, "fiber", "fiber.length_km")
    spectra = _span_samples(launch, derive_params(launch, fiber, cfg.order), fiber, cfg)
    head, rows = _longitudinal_table(spectra)
    _write_table(out / f"{cfg.name}_closedform_longitudinal.csv", head, rows, fmt)
    head, rows = _channel_table(launch.grid, "power_dbm", _dbm(spectra[-1].powers))
    _write_table(out / f"{cfg.name}_closedform_spectrum.csv", head, rows, fmt)


def cmd_multispan(cfg: RunConfig, out: Path, fmt: str) -> None:
    launch = _require(cfg, "launch", "a launch section")
    link = _require(cfg, "link", "a link section")
    result = propagate_multispan_closedform(launch, link, cfg.order)
    span_samples = [
        _span_samples(*span, cfg)
        for span in zip(result.span_inputs, result.span_results, link.spans)
    ]
    head, rows = _longitudinal_table(result.longitudinal(span_samples))
    _write_table(out / f"{cfg.name}_multispan_longitudinal.csv", head, rows, fmt)
    head, rows = _channel_table(launch.grid, "power_dbm", _dbm(result.final.powers))
    _write_table(out / f"{cfg.name}_multispan_spectrum.csv", head, rows, fmt)


def cmd_sweep(cfg: RunConfig, out: Path, fmt: str, workers: int) -> None:
    sweep = _require(cfg, "sweep", "a sweep section")
    records, summaries = run_order_sweep(sweep, workers=workers)
    if fmt == "json":
        rec_rows = [r.__dict__ for r in records]
        (out / f"{cfg.name}_sweep_records.json").write_text(
            json.dumps(rec_rows, indent=1, default=float) + "\n"
        )
        (out / f"{cfg.name}_sweep_summary.json").write_text(
            json.dumps([s.__dict__ for s in summaries], indent=1, default=float) + "\n"
        )
        return
    write_records_csv(records, out / f"{cfg.name}_sweep_records.csv")
    write_summary_csv(summaries, out / f"{cfg.name}_sweep_summary.csv")


def cmd_preemph(cfg: RunConfig, out: Path, fmt: str) -> None:
    if cfg.preemph is None:
        raise ConfigurationError("preemph needs launch.mode == 'preemphasis' with a target")
    launch = cfg.preemph(order=cfg.order)
    head, rows = _channel_table(launch.grid, "launch_power_dbm", _dbm(launch.powers))
    _write_table(out / f"{cfg.name}_preemph_launch.csv", head, rows, fmt)


def cmd_osnr_target(cfg: RunConfig, out: Path, fmt: str) -> None:
    link = _require(cfg, "link", "a link section")
    run = _require(cfg, "osnr", "a osnr_target section")(link, order=cfg.order)
    grid = run.launch.grid
    head, rows = _channel_table(grid, "launch_power_dbm", _dbm(run.launch.powers))
    _write_table(out / f"{cfg.name}_osnr_launch.csv", head, rows, fmt)
    hist_rows = [[i + 1, r] for i, r in enumerate(run.rmse_history)]
    _write_table(out / f"{cfg.name}_osnr_history.csv", ["iteration", "rmse"], hist_rows, fmt)
    head, rows = _channel_table(grid, "osnr_db", 10.0 * np.log10(run.osnr))
    _write_table(out / f"{cfg.name}_osnr_profile.csv", head, rows, fmt)


def _worker_count(text: str) -> int:
    """``--workers``: an int, at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isrsprop",
        description="Wideband WDM power evolution under Raman power transfer "
        "and frequency-dependent loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in [
        ("solve", cmd_solve, "fixed-step numerical power evolution"),
        ("closed-form", cmd_closed_form, "closed-form single-span profile"),
        ("multispan", cmd_multispan, "closed-form multi-span propagation"),
        ("sweep", cmd_sweep, "closed-form accuracy sweep vs the numerical solver"),
        ("preemph", cmd_preemph, "launch pre-emphasis for a target output"),
        ("osnr-target", cmd_osnr_target, "iterative pre-emphasis for a target OSNR shape"),
        ("validate-config", None, "parse and validate a config file"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--output", default=".", help="output directory (default: cwd)")
        p.add_argument("--steps", type=int, default=None, help="override steps per span")
        p.add_argument("--order", type=int, default=None, help="override approximation order")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "sweep":
            p.add_argument("--workers", type=_worker_count, default=1,
                           help="parallel sweep processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.steps is not None:
            cfg = replace(cfg, solver=replace(cfg.solver, steps_per_span=args.steps))
            if cfg.sweep is not None:
                cfg = replace(cfg, sweep=replace(cfg.sweep, steps_per_span=args.steps))
        if args.order is not None:
            cfg = replace(cfg, order=args.order)
        if args.run is None:
            print(f"ok: {args.config} ({cfg.name})")
            return 0
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        extra = [args.workers] if args.command == "sweep" else []
        args.run(cfg, out, args.format, *extra)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalInstabilityError, ConvergenceError, RootBracketError, FloatingPointError) as exc:
        print(f"numerical error in {args.config}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
