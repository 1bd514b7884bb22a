"""Accuracy benchmark: closed form vs the fixed-step oracle over a grid.

Sweeps peak Raman gain, per-channel launch power and span length for a set
of band plans, recording the total-power error ratio and the worst
per-channel deviation at every approximation order.  Summaries follow the
box-plot convention (median, quartiles, 1.5 IQR whiskers).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .closedform import _profile, _span_constants, _span_params, _SpanModel
from .errors import ConfigurationError, NumericalInstabilityError
from .ode_oracle import SolverOptions, _integrate_batch, _span_operator
from .profiles import (
    AttenuationProfile,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    _check_count,
    _same_grid,
    build_channel_grid,
    default_attenuation,
)


def total_power_error_ratio(closedform_out: PowerSpectrum, oracle_out: PowerSpectrum) -> float:
    """Closed-form total output power over the oracle's (unity when exact)."""
    if not _same_grid(closedform_out.grid, oracle_out.grid):
        raise ConfigurationError("spectra must share a grid")
    return float(_error_ratio(closedform_out.powers, oracle_out.powers))


def _error_ratio(closed: np.ndarray, oracle: np.ndarray):
    """:func:`total_power_error_ratio` of power arrays, along the last axis."""
    denom = oracle.sum(axis=-1)
    if np.any(denom <= 0):
        raise ConfigurationError("oracle total power must be positive")
    return closed.sum(axis=-1) / denom


@dataclass(frozen=True)
class SweepConfig:
    """Axes of the accuracy sweep; counts of 1 collapse an axis to its low end."""

    band_plans: tuple[str, ...] = ("C", "CL", "CLU", "SCLU")
    raman_peak_range: tuple[float, float] = (0.3, 0.4)
    raman_peak_count: int = 5
    launch_power_dbm_range: tuple[float, float] = (-5.0, 0.0)
    launch_power_count: int = 5
    length_range_km: tuple[float, float] = (50.0, 150.0)
    length_count: int = 5
    orders: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    spacing: float = 0.05
    attenuation: AttenuationProfile = field(default_factory=default_attenuation)
    raman_window: float = 15.5
    raman_peak_separation: float = 14.0
    steps_per_span: int = 50

    def __post_init__(self):
        for name in ("raman_peak_count", "launch_power_count", "length_count", "steps_per_span"):
            _check_count(getattr(self, name), f"sweep {name}")
        if not self.orders:
            raise ConfigurationError("sweep needs at least one order")
        for order in self.orders:
            _check_count(order, "sweep orders")
        if len(set(self.orders)) < len(self.orders):
            # a repeated order would run twice and count twice in its summary
            raise ConfigurationError(f"sweep orders must be distinct, got {self.orders}")
        for name in ("raman_peak_range", "launch_power_dbm_range", "length_range_km"):
            bounds = getattr(self, name)
            if (isinstance(bounds, str) or not isinstance(bounds, (Sequence, np.ndarray))
                    or len(bounds) != 2):
                raise ConfigurationError(f"sweep {name} must be a (low, high) pair, got {bounds!r}")
            if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in bounds):
                raise ConfigurationError(f"sweep {name} must be two real numbers, got {bounds!r}")
        if not all(math.isfinite(km) and km > 0 for km in self.length_range_km):
            raise ConfigurationError(
                f"sweep span lengths must be finite and > 0, got {self.length_range_km}"
            )
        for name in ("raman_peak_range", "launch_power_dbm_range"):
            bounds = getattr(self, name)
            if not all(math.isfinite(x) for x in bounds):
                raise ConfigurationError(f"sweep {name} must be finite, got {bounds}")
        if not 0 < self.spacing < math.inf:
            raise ConfigurationError(
                f"sweep spacing must be positive and finite, got {self.spacing!r}")
        plans = self.band_plans
        if (isinstance(plans, str) or not isinstance(plans, Sequence)
                or not all(isinstance(plan, str) for plan in plans)):
            raise ConfigurationError(
                f"sweep band_plans must be a sequence of plan names, got {plans!r}")
        if not plans:
            raise ConfigurationError("sweep needs at least one band plan")
        for plan in plans:
            # an unknown plan, or a band the spacing does not divide, would fail only
            # when its groups run, after every earlier group and perhaps in a worker
            build_channel_grid(plan, self.spacing)
        # every cell builds this model at its own peak; building the lowest one
        # here rejects a bad peak, peak separation or window before any cell runs
        RamanGainModel.triangular(peak=min(self.raman_peak_range),
                                  peak_separation=self.raman_peak_separation,
                                  window=self.raman_window)

    def axis(self, bounds: tuple[float, float], count: int) -> np.ndarray:
        return np.linspace(bounds[0], bounds[1], count)


@dataclass(frozen=True)
class SweepRecord:
    """One (band, gain, power, length, order) cell of the sweep."""

    band: str
    raman_peak: float
    launch_power_dbm: float
    length_km: float
    order: int
    eps_p: float
    max_deviation_db: float
    error: str = ""


@dataclass(frozen=True)
class SweepSummary:
    """Box-plot statistics of eps_p for one (band, order) group."""

    band: str
    order: int
    count: int
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outlier_count: int
    mean_abs_error: float


def _batch_or_rows(compute, count: int):
    """``compute(rows)`` for all ``count`` rows of a batch at once, or for each row alone.

    ``rows`` is a slice: all rows, or, when that raises, one row at a time,
    so a failure is recorded on the rows it concerns and every other row
    keeps its result.  Returns the rows that succeeded, their results
    stacked along the first axis, and ``{row: repr(error)}`` for the others.
    """
    try:
        return np.arange(count), compute(slice(None)), {}
    except Exception:  # recomputed row by row below
        pass
    done, results, errors = [], [], {}
    for b in range(count):
        try:
            results.append(compute(slice(b, b + 1)))
            done.append(b)
        except Exception as exc:
            errors[b] = repr(exc)
    return np.array(done, dtype=int), (np.concatenate(results) if results else None), errors


def _run_group(args) -> list[SweepRecord]:
    """Records of every cell sharing one (band plan, Raman peak), in cell order.

    The cells share the grid and the fiber model, hence the oracle's span
    operator, so the oracle integrates them as one batch; only the launch
    power and the span length vary.  After the batch, outside its memory
    peak, the closed form runs on the (B, n) rows the oracle finished: their
    shaping values in one pass, then one pass per order with one span length
    per row.  Both take alpha(f_i) from one span model, so it is evaluated
    once per group.  A failure is recorded on every record it concerns (group,
    cell or order): a pass that raises is run again row by row, so each
    failing cell and order gets the error of its own spectrum.
    """
    config, band, peak, cells = args
    grid = build_channel_grid(band, config.spacing)
    raman = RamanGainModel.triangular(
        peak=peak, peak_separation=config.raman_peak_separation, window=config.raman_window
    )
    # the span length plays no part in the span model
    model = _SpanModel(grid, FiberSpec(config.attenuation, raman, length=cells[0][1]))
    launches = np.array([PowerSpectrum.flat_dbm(grid, power_dbm).powers for power_dbm, _ in cells])
    lengths = np.array([length for _, length in cells])
    options = SolverOptions(steps_per_span=config.steps_per_span)
    results: dict[tuple[int, int], tuple[float, float] | str] = {}
    try:
        outputs, messages = _integrate_batch(
            launches, lengths, _span_operator(model, options), options.steps_per_span)
        errors = {b: repr(NumericalInstabilityError(m)) for b, m in enumerate(messages) if m}
    except Exception as exc:  # failed cells are recorded, the sweep continues
        errors = dict.fromkeys(range(len(cells)), repr(exc))
    cell_rows = np.array([b for b in range(len(cells)) if b not in errors], dtype=int)
    if cell_rows.size:
        p, oracle, lengths = launches, outputs, lengths
        if errors:
            p, oracle, lengths = (x[cell_rows] for x in (p, oracle, lengths))
        totals = p.sum(axis=1, keepdims=True)
        # an order-free failure fails every order of its cell alike
        done, shaping, failed = _batch_or_rows(lambda r: model.shaping(p[r], totals[r]),
                                               len(cell_rows))
        if failed:
            errors.update((cell_rows[i], error) for i, error in failed.items())
            cell_rows, p, oracle, totals, lengths = (
                x[done] for x in (cell_rows, p, oracle, totals, lengths))
        oracle_dbm = oracle / 1e-3
        np.log10(oracle_dbm, out=oracle_dbm)
        oracle_dbm *= 10.0
        c = _span_constants(model, lengths[:, None], 1)
        for n in config.orders:
            cn = c._replace(order=n, alpha_n=model.alpha**n)

            def evaluate(r):
                cr = cn._replace(length=cn.length[r], alpha_length=cn.alpha_length[r])
                alpha0, ref, _, growth = _span_params(p[r], totals[r], shaping[r], cr)
                closed = _profile(p[r], cr.alpha_length, shaping[r], ref, totals[r] * growth,
                                  alpha0, model.fit.slope, cr.length)
                PowerSpectrum._check(closed)
                eps = _error_ratio(closed, oracle[r])
                closed /= 1e-3
                dev = np.log10(closed, out=closed)
                dev *= 10.0
                dev -= oracle_dbm[r]
                np.abs(dev, out=dev)
                return np.stack([eps, dev.max(axis=-1)], axis=-1)

            done, values, failed = _batch_or_rows(evaluate, len(cell_rows))
            results.update(((cell_rows[i], n), error) for i, error in failed.items())
            if values is not None:
                results.update(((cell_rows[i], n), tuple(v)) for i, v in
                               zip(done, values.tolist()))
    records = []
    nan = float("nan")
    for b, (power_dbm, length) in enumerate(cells):
        for n in config.orders:
            value = errors.get(b) or results[b, n]
            if isinstance(value, str):
                records.append(SweepRecord(band, peak, power_dbm, length, n, nan, nan,
                                           error=value))
            else:
                records.append(SweepRecord(band, peak, power_dbm, length, n, *value))
    return records


def run_order_sweep(
    config: SweepConfig, workers: int = 1
) -> tuple[list[SweepRecord], list[SweepSummary]]:
    """Run every cell of the sweep; cell order is fixed by the config axes.

    Cells are integrated in (band plan, Raman peak) groups, contiguous in
    cell order.  ``workers > 1`` fans the groups out to a process pool; the
    batches are the same either way and results are collected in config
    order, so output is deterministic.
    """
    _check_count(workers, "workers")
    powers = config.axis(config.launch_power_dbm_range, config.launch_power_count)
    lengths = config.axis(config.length_range_km, config.length_count)
    groups = [
        (config, band, float(peak),
         [(float(power), float(length)) for power in powers for length in lengths])
        for band in config.band_plans
        for peak in config.axis(config.raman_peak_range, config.raman_peak_count)
    ]
    if workers > 1:
        # imported here: the pool's import costs every process, and only this uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_group = list(pool.map(_run_group, groups))
    else:
        per_group = [_run_group(g) for g in groups]
    records = [r for group in per_group for r in group]
    return records, summarize(records)


def summarize(records: Sequence[SweepRecord]) -> list[SweepSummary]:
    """Box-plot statistics per (band, order), in first-seen band order, from one pass."""
    eps_by_band: dict[str, dict[int, list[float]]] = {}
    for r in records:
        group = eps_by_band.setdefault(r.band, {}).setdefault(r.order, [])
        if not r.error:
            group.append(r.eps_p)
    out = []
    for band, eps_by_order in eps_by_band.items():
        for order in sorted(eps_by_order):
            eps = np.array(eps_by_order[order])
            if eps.size == 0:
                continue
            q1, med, q3 = np.percentile(eps, [25.0, 50.0, 75.0])
            iqr = q3 - q1
            lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
            outliers = int(np.sum((eps < lo) | (eps > hi)))
            out.append(
                SweepSummary(
                    band=band, order=order, count=int(eps.size),
                    median=float(med), q1=float(q1), q3=float(q3),
                    whisker_low=float(lo), whisker_high=float(hi),
                    outlier_count=outliers,
                    mean_abs_error=float(np.mean(np.abs(eps - 1.0))),
                )
            )
    return out

