"""Command line driver: scenario configs in, plot-ready CSV/JSON tables out.

Subcommands: solve (fixed-step oracle), closed-form, multispan, sweep,
preemph, osnr-target, validate-config.  solve and closed-form run a config
without a link as a one-span link of its fiber.  Exit codes: 0 success,
2 config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import operator
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bench import SweepRecord, SweepSummary, run_order_sweep
from .closedform import power_profiles
from .config import RunConfig, parse_config
from .errors import (
    ConfigurationError,
    ConvergenceError,
    NumericalInstabilityError,
    RootBracketError,
)
from .floattext import csv_block
from .multispan import LinkSpec, MultiSpanResult, propagate_multispan_closedform
from .ode_oracle import propagate_link_numerical
from .profiles import ChannelGrid


def _dbm(watts):
    return 10.0 * np.log10(np.asarray(watts) / 1e-3)


def _dbm_path(path: Path, grid: ChannelGrid, samples: Iterable[tuple]) -> Path:
    """``path``, once no channel of the ``samples`` it tabulates in dBm is at 0 W (no dBm value).

    ``samples`` are ``(z, powers)`` array pairs: z values (km) and one row of
    channel powers per z (or one spectrum's powers at ``[z]``).
    """
    for z, powers in samples:
        flat = powers.ravel()
        j = flat.argmin()  # powers are >= 0: the first channel at 0 W, if there is one
        if flat[j] == 0.0:
            row, i = divmod(int(j), grid.n_channels)
            raise ConfigurationError(f"{path.stem}: channel {i} ({grid.frequencies[i]:.4f} THz) "
                                     f"is at 0 W at z = {z[row]:g} km, which has no dBm value")
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


_QUOTE_OR_BREAK = re.compile('["\r\n]')

#: Values per float block of a longitudinal table (a block holds whole rows, at least one).
_BLOCK_VALUES = 2048


def _csv_lines(header, rows):
    """Yield the CSV lines of a table, header first, each ending in CRLF.

    The text is what ``csv.writer`` writes for ``[_fmt(v) for v in row]``.
    A float block, a 2-D float array in place of a row, stands for its rows;
    :func:`isrsprop.floattext.csv_block` writes its lines at once.
    Each distinct tuple of cell types gets one cached ``%`` format (``%.9g``
    for float subclasses, ``%s`` otherwise) applied to the whole row.  Only
    a row that needs quoting goes through ``csv.writer``: a text cell holds
    a comma, a quote or a line break, or the row is one text cell (``[""]``
    is written ``""``).  Lines are yielded one at a time, so a large table
    is never held as one string.
    """
    formats = {}
    buffer = io.StringIO()
    quoting = csv.writer(buffer)
    for row in itertools.chain((header,), rows):
        if isinstance(row, np.ndarray):  # a float block
            yield csv_block(row)
            continue
        cells = tuple(row)
        types = tuple(map(type, cells))
        pattern = formats.get(types)
        if pattern is None:
            specs = ["%.9g" if issubclass(t, float) else "%s" for t in types]
            pattern = formats[types] = (",".join(specs), "%s" in specs)
        fmt, has_text = pattern
        line = fmt % cells
        # a %.9g float never holds a comma, a quote or a line break
        if has_text and (len(cells) == 1 or line.count(",") != len(cells) - 1
                         or _QUOTE_OR_BREAK.search(line)):
            quoting.writerow([_fmt(v) for v in cells])
            yield buffer.getvalue()
            buffer.seek(0)
            buffer.truncate()
        else:
            yield line + "\r\n"


def _dataclass_table(cls, items) -> tuple[list[str], Iterator[tuple]]:
    """Header and lazily built rows of ``cls`` instances, one column per field.

    Each row is the tuple one ``operator.attrgetter`` call over every field
    returns, so ``cls`` needs two fields or more (both sweep tables have 8+).
    """
    header = [f.name for f in fields(cls)]
    return header, map(operator.attrgetter(*header), items)


def _write_table(path: Path, header: list[str], rows: Iterable[Sequence], fmt: str) -> None:
    """Write ``rows`` as CSV, or as ``.json`` records, taking one row (or float block) at a time.

    A float block, a 2-D float array in place of a row, stands for its rows.
    The JSON text is ``json.dumps(records, indent=1)``'s, written record by
    record (JSON strings hold no raw line break, so indenting a record's
    lines by one space nests it in the list).
    """
    if fmt == "json":
        encode = json.JSONEncoder(indent=1, default=float).encode
        with open(path.with_suffix(".json"), "w") as fh:
            opening = "[\n "
            for row in itertools.chain.from_iterable(
                    item.tolist() if isinstance(item, np.ndarray) else (item,) for item in rows):
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


def _longitudinal_table(grid: ChannelGrid, samples: Sequence[tuple]) -> tuple[list[str], Iterator]:
    """Header and float blocks of z samples; each block is built as the writer takes it.

    ``samples`` are ``(z, powers)`` array pairs: z values (km) and a 2-D
    array with one row of channel powers per z.  A row is z, each channel's
    dBm and the total's dBm; a block holds at most :data:`_BLOCK_VALUES`
    values (one row at least) of one pair.
    """
    header = ["z_km"] + [f"p_dbm_{f:.4f}" for f in grid.frequencies] + ["total_dbm"]
    return header, _longitudinal_blocks(samples, len(header))


def _longitudinal_blocks(samples: Sequence[tuple], width: int) -> Iterator[np.ndarray]:
    """The float blocks of :func:`_longitudinal_table`, ``width`` values a row."""
    step = max(1, _BLOCK_VALUES // width)
    for z, powers in samples:
        for start in range(0, len(z), step):
            p = powers[start:start + step]
            block = np.empty((len(p), width))
            block[:, 0] = z[start:start + step]
            block[:, 1:-1] = _dbm(p)
            block[:, -1] = _dbm(p.sum(axis=1))
            yield block


def _require(cfg: RunConfig, attr: str, what: str):
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigurationError(f"this subcommand needs {what} in the config")
    return value


def _span_samples(span_input, params, fiber, span_output, cfg: RunConfig) -> tuple:
    """Closed-form ``(z, powers)`` at ``steps_per_span + 1`` evenly spaced z over one span.

    One :func:`power_profiles` pass gives every row but the z = L one, which
    is the link run's ``span_output``, the same spectrum with or without
    ``refresh_reference`` (``np.linspace`` ends exactly at L).
    """
    slope = fiber.raman.as_triangular().slope
    z = np.linspace(0.0, fiber.length, cfg.solver.steps_per_span + 1)
    before_end = power_profiles(span_input, params, slope, z[:-1], cfg.refresh_reference)
    return z, np.vstack((before_end, span_output.powers))


def _link_samples(result: MultiSpanResult, span_samples: Sequence[tuple]) -> list[tuple]:
    """Span-local ``(z, powers)`` samples shifted to link z, plus the receiver-boost sample.

    Each boundary appears twice (end of a span, then the amplified start of
    the next); the boost sample is the boosted link end at the last z.
    """
    starts = result.link.span_starts()
    samples = [(starts[k] + z, powers) for k, (z, powers) in enumerate(span_samples)]
    if result.boost_gain is not None:
        samples.append((samples[-1][0][-1:], result.final.powers[None]))
    return samples


def _one_span_link(cfg: RunConfig) -> LinkSpec:
    return LinkSpec((_require(cfg, "fiber", "fiber.length_km"),))


def _write_propagation(cfg: RunConfig, out: Path, fmt: str, kind: str, result, samples) -> None:
    """Write ``<kind>_longitudinal`` and ``<kind>_spectrum`` (the link end).

    ``samples`` holds each span's span-local ``(z, powers)``.
    """
    grid = result.final.grid
    link = _link_samples(result, samples)  # the link's end among them, so both tables are checked
    path = _dbm_path(out / f"{cfg.name}_{kind}_longitudinal.csv", grid, link)
    _write_table(path, *_longitudinal_table(grid, link), fmt)
    head, rows = _channel_table(grid, "power_dbm", _dbm(result.final.powers))
    _write_table(out / f"{cfg.name}_{kind}_spectrum.csv", head, rows, fmt)


def cmd_solve(cfg: RunConfig, out: Path, fmt: str) -> None:
    launch = _require(cfg, "launch", "a launch section")
    link = cfg.link if cfg.link is not None else _one_span_link(cfg)
    result = propagate_link_numerical(launch, link, cfg.solver)
    samples = [(r.z, r.powers) for r in result.span_results]
    _write_propagation(cfg, out, fmt, "solve", result, samples)


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


def cmd_sweep(cfg: RunConfig, out: Path, fmt: str) -> None:
    sweep = _require(cfg, "sweep", "a sweep section")
    records, summaries = run_order_sweep(sweep)
    for kind, cls, items in (("records", SweepRecord, records),
                             ("summary", SweepSummary, summaries)):
        head, rows = _dataclass_table(cls, items)
        if fmt == "json":
            # the CSV's 9 significant digits, so last-bit noise moves neither format
            rows = ([float("%.9g" % v) if isinstance(v, float) else v for v in row] for row in rows)
        _write_table(out / f"{cfg.name}_sweep_{kind}.csv", head, rows, fmt)


def cmd_preemph(cfg: RunConfig, out: Path, fmt: str) -> None:
    if cfg.preemph is None:
        raise ConfigurationError("preemph needs launch.mode == 'preemphasis' with a target")
    launch = cfg.preemph(order=cfg.order)
    path = _dbm_path(out / f"{cfg.name}_preemph_launch.csv", launch.grid,
                     [([launch.z], launch.powers)])
    _write_table(path, *_channel_table(launch.grid, "launch_power_dbm", _dbm(launch.powers)), fmt)


def cmd_osnr_target(cfg: RunConfig, out: Path, fmt: str) -> None:
    link = _require(cfg, "link", "a link section")
    run = _require(cfg, "osnr", "a osnr_target section")(link, order=cfg.order)
    grid = run.launch.grid
    path = _dbm_path(out / f"{cfg.name}_osnr_launch.csv", grid,
                     [([run.launch.z], run.launch.powers)])
    _write_table(path, *_channel_table(grid, "launch_power_dbm", _dbm(run.launch.powers)), fmt)
    hist_rows = [[i + 1, r] for i, r in enumerate(run.rmse_history)]
    _write_table(out / f"{cfg.name}_osnr_history.csv", ["iteration", "rmse"], hist_rows, fmt)
    head, rows = _channel_table(grid, "osnr_db", 10.0 * np.log10(run.osnr))
    _write_table(out / f"{cfg.name}_osnr_profile.csv", head, rows, fmt)


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
        run(cfg, out, args.format)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalInstabilityError, ConvergenceError, RootBracketError, FloatingPointError) as exc:
        print(f"numerical error in {args.config}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
