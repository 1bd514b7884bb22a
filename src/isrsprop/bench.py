"""Accuracy benchmark: closed form vs the fixed-step oracle over a grid.

Sweeps peak Raman gain, per-channel launch power and span length for a set
of band plans, recording the total-power error ratio and the worst
per-channel deviation at every approximation order.  Summaries follow the
box-plot convention (median, quartiles, 1.5 IQR whiskers).
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .closedform import derive_params, power_profile
from .errors import ConfigurationError
from .ode_oracle import SolverOptions, integrate_span
from .profiles import (
    AttenuationProfile,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    build_channel_grid,
    default_attenuation,
)


def total_power_error_ratio(closedform_out: PowerSpectrum, oracle_out: PowerSpectrum) -> float:
    """Closed-form total output power over the oracle's (unity when exact)."""
    if closedform_out.grid.n_channels != oracle_out.grid.n_channels:
        raise ConfigurationError("spectra must share a grid")
    denom = oracle_out.total_power
    if denom <= 0:
        raise ConfigurationError("oracle total power must be positive")
    return closedform_out.total_power / denom


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
        for count in (self.raman_peak_count, self.launch_power_count, self.length_count):
            if count < 1:
                raise ConfigurationError("sweep axis counts must be >= 1")
        if not self.orders:
            raise ConfigurationError("sweep needs at least one order")

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
    oracle_seconds: float
    closedform_seconds: float
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


def _run_cell(args) -> list[SweepRecord]:
    config, band, peak, power_dbm, length = args
    grid = build_channel_grid(band, config.spacing)
    raman = RamanGainModel.triangular(
        peak=peak, peak_separation=config.raman_peak_separation, window=config.raman_window
    )
    fiber = FiberSpec(attenuation=config.attenuation, raman=raman, length=length)
    launch = PowerSpectrum.flat_dbm(grid, power_dbm)
    options = SolverOptions(steps_per_span=config.steps_per_span)
    records = []
    try:
        t0 = time.perf_counter()
        oracle = integrate_span(launch, fiber, options).final
        oracle_s = time.perf_counter() - t0
    except Exception as exc:  # failed cells are recorded, the sweep continues
        return [
            SweepRecord(band, peak, power_dbm, length, n, float("nan"), float("nan"),
                        0.0, 0.0, error=repr(exc))
            for n in config.orders
        ]
    oracle_dbm = 10.0 * np.log10(oracle.powers / 1e-3)
    for n in config.orders:
        try:
            t0 = time.perf_counter()
            params = derive_params(launch, fiber, n)
            closed = power_profile(launch, params, raman.slope, length)
            closed_s = time.perf_counter() - t0
            eps = total_power_error_ratio(closed, oracle)
            dev = float(np.abs(10.0 * np.log10(closed.powers / 1e-3) - oracle_dbm).max())
            records.append(
                SweepRecord(band, peak, power_dbm, length, n, eps, dev, oracle_s, closed_s)
            )
        except Exception as exc:
            records.append(
                SweepRecord(band, peak, power_dbm, length, n, float("nan"), float("nan"),
                            oracle_s, 0.0, error=repr(exc))
            )
    return records


def run_order_sweep(
    config: SweepConfig, workers: int = 1
) -> tuple[list[SweepRecord], list[SweepSummary]]:
    """Run every cell of the sweep; cell order is fixed by the config axes.

    ``workers > 1`` fans cells out to a process pool; results are collected
    in config order either way, so output is deterministic.
    """
    cells = [
        (config, band, float(peak), float(power), float(length))
        for band in config.band_plans
        for peak in config.axis(config.raman_peak_range, config.raman_peak_count)
        for power in config.axis(config.launch_power_dbm_range, config.launch_power_count)
        for length in config.axis(config.length_range_km, config.length_count)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_run_cell, cells, chunksize=4))
    else:
        per_cell = [_run_cell(c) for c in cells]
    records = [r for cell in per_cell for r in cell]
    return records, summarize(records)


def summarize(records: Sequence[SweepRecord]) -> list[SweepSummary]:
    """Box-plot statistics per (band, order), in first-seen band order."""
    bands = list(dict.fromkeys(r.band for r in records))
    orders = sorted({r.order for r in records})
    out = []
    for band in bands:
        for order in orders:
            eps = np.array(
                [r.eps_p for r in records if r.band == band and r.order == order and not r.error]
            )
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


_RECORD_COLUMNS = (
    "band", "raman_peak", "launch_power_dbm", "length_km", "order",
    "eps_p", "max_deviation_db", "oracle_seconds", "closedform_seconds", "error",
)

_SUMMARY_COLUMNS = (
    "band", "order", "count", "median", "q1", "q3",
    "whisker_low", "whisker_high", "outlier_count", "mean_abs_error",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_records_csv(records: Sequence[SweepRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_COLUMNS)
        for r in records:
            writer.writerow([_fmt(getattr(r, c)) for c in _RECORD_COLUMNS])


def write_summary_csv(summaries: Sequence[SweepSummary], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for s in summaries:
            writer.writerow([_fmt(getattr(s, c)) for c in _SUMMARY_COLUMNS])
