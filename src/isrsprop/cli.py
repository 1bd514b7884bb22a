"""Command line driver: scenario configs in, plot-ready CSV/JSON tables out.

Subcommands: solve (fixed-step oracle), closed-form, multispan, sweep,
preemph, osnr-target, validate-config.  solve and closed-form run a config
without a link as a one-span link of its fiber.  Exit codes: 0 success,
2 config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .bench import (
    SweepRecord,
    SweepSummary,
    _csv_lines,
    _dataclass_table,
    run_order_sweep,
    write_records_csv,
    write_summary_csv,
)
from .closedform import power_profile
from .config import RunConfig, parse_config
from .errors import (
    ConfigurationError,
    ConvergenceError,
    NumericalInstabilityError,
    RootBracketError,
)
from .multispan import LinkSpec, propagate_multispan_closedform
from .ode_oracle import propagate_link_numerical
from .profiles import ChannelGrid


def _dbm(watts):
    return 10.0 * np.log10(np.asarray(watts) / 1e-3)


def _write_table(path: Path, header: list[str], rows: Iterable[list], fmt: str) -> None:
    """Write ``rows`` as CSV, or as ``.json`` records, taking one row at a time.

    The JSON text is ``json.dumps(records, indent=1)``'s, written record by
    record (JSON strings hold no raw line break, so indenting a record's
    lines by one space nests it in the list).
    """
    if fmt == "json":
        encode = json.JSONEncoder(indent=1, default=float).encode
        with open(path.with_suffix(".json"), "w") as fh:
            opening = "[\n "
            for row in rows:
                fh.write(opening + encode(dict(zip(header, row))).replace("\n", "\n "))
                opening = ",\n "
            fh.write("[]\n" if opening == "[\n " else "\n]\n")
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


def _longitudinal_table(spectra) -> tuple[list[str], Iterator[list]]:
    """Header and rows of z samples; each row is built as the writer takes it."""
    grid = spectra[0].grid
    header = ["z_km"] + [f"p_dbm_{f:.4f}" for f in grid.frequencies] + ["total_dbm"]
    rows = ([s.z, *(_dbm(s.powers).tolist()), float(_dbm(s.total_power))] for s in spectra)
    return header, rows


def _require(cfg: RunConfig, attr: str, what: str):
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigurationError(f"this subcommand needs {what} in the config")
    return value


def _span_samples(span_input, params, fiber, span_output, cfg: RunConfig) -> list:
    """Closed-form spectra at ``steps_per_span + 1`` evenly spaced z over one span.

    The z = L sample is the link run's ``span_output``, the same spectrum with or
    without ``refresh_reference`` (``np.linspace`` ends exactly at L).
    """
    slope = fiber.raman.as_triangular().slope
    z_before_end = np.linspace(0.0, fiber.length, cfg.solver.steps_per_span + 1)[:-1]
    return [
        power_profile(span_input, params, slope, float(z), refresh_reference=cfg.refresh_reference)
        for z in z_before_end
    ] + [span_output]


def _one_span_link(cfg: RunConfig) -> LinkSpec:
    return LinkSpec((_require(cfg, "fiber", "fiber.length_km"),))


def _write_propagation(cfg: RunConfig, out: Path, fmt: str, kind: str, result, samples) -> None:
    """``<kind>_longitudinal`` from span-local samples, ``<kind>_spectrum`` from the link end."""
    head, rows = _longitudinal_table(result.longitudinal(samples))
    _write_table(out / f"{cfg.name}_{kind}_longitudinal.csv", head, rows, fmt)
    head, rows = _channel_table(result.final.grid, "power_dbm", _dbm(result.final.powers))
    _write_table(out / f"{cfg.name}_{kind}_spectrum.csv", head, rows, fmt)


def cmd_solve(cfg: RunConfig, out: Path, fmt: str) -> None:
    launch = _require(cfg, "launch", "a launch section")
    link = cfg.link if cfg.link is not None else _one_span_link(cfg)
    result = propagate_link_numerical(launch, link, cfg.solver)
    _write_propagation(cfg, out, fmt, "solve", result, [r.spectra for r in result.span_results])


def _closed_form_link(cfg: RunConfig, out: Path, fmt: str, kind: str, launch, link) -> None:
    result = propagate_multispan_closedform(launch, link, cfg.order)
    samples = [
        _span_samples(*span, cfg)
        for span in zip(result.span_inputs, result.span_results, link.spans, result.span_outputs)
    ]
    _write_propagation(cfg, out, fmt, kind, result, samples)


def cmd_closed_form(cfg: RunConfig, out: Path, fmt: str) -> None:
    launch = _require(cfg, "launch", "a launch section")
    _closed_form_link(cfg, out, fmt, "closedform", launch, _one_span_link(cfg))


def cmd_multispan(cfg: RunConfig, out: Path, fmt: str) -> None:
    launch = _require(cfg, "launch", "a launch section")
    _closed_form_link(cfg, out, fmt, "multispan", launch, _require(cfg, "link", "a link section"))


def cmd_sweep(cfg: RunConfig, out: Path, fmt: str, workers: int) -> None:
    sweep = _require(cfg, "sweep", "a sweep section")
    records, summaries = run_order_sweep(sweep, workers=workers)
    if fmt == "json":
        for kind, cls, items in (("records", SweepRecord, records),
                                 ("summary", SweepSummary, summaries)):
            head, rows = _dataclass_table(cls, items)
            # the CSV's 9 significant digits, so last-bit noise moves neither format
            rows = ([float("%.9g" % v) if isinstance(v, float) else v for v in row] for row in rows)
            _write_table(out / f"{cfg.name}_sweep_{kind}.json", head, rows, fmt)
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


def _subcommands() -> tuple:
    """``(name, command function or None, help)`` of every subcommand.

    Built on each call, so a function rebound on this module (a tracer, a
    test's monkeypatch) is the one that runs.
    """
    return (
        ("solve", cmd_solve, "fixed-step numerical power evolution"),
        ("closed-form", cmd_closed_form, "closed-form single-span profile"),
        ("multispan", cmd_multispan, "closed-form multi-span propagation"),
        ("sweep", cmd_sweep, "closed-form accuracy sweep vs the numerical solver"),
        ("preemph", cmd_preemph, "launch pre-emphasis for a target output"),
        ("osnr-target", cmd_osnr_target, "iterative pre-emphasis for a target OSNR shape"),
        ("validate-config", None, "parse and validate a config file"),
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves the parser unchanged, so every :func:`main` call shares
    it.  It holds subcommand names only; :func:`main` looks up the command
    function at each call.
    """
    parser = argparse.ArgumentParser(
        prog="isrsprop",
        description="Wideband WDM power evolution under Raman power transfer "
        "and frequency-dependent loss",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _, help_text in _subcommands():
        p = sub.add_parser(name, help=help_text)
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
        run = {name: command for name, command, _ in _subcommands()}[args.command]
        if run is None:
            print(f"ok: {args.config} ({cfg.name})")
            return 0
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        extra = [args.workers] if args.command == "sweep" else []
        run(cfg, out, args.format, *extra)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalInstabilityError, ConvergenceError, RootBracketError, FloatingPointError) as exc:
        print(f"numerical error in {args.config}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
