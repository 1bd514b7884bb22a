"""Accuracy benchmark: closed form vs the fixed-step oracle over a grid.

Sweeps peak Raman gain, per-channel launch power and span length for a set
of band plans, recording the total-power error ratio and the worst
per-channel deviation at every approximation order.  Summaries follow the
box-plot convention (median, quartiles, 1.5 IQR whiskers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .closedform import _link_constants, _profile, _shaping, _span_params
from .errors import ConfigurationError, NumericalInstabilityError
from .ode_oracle import SolverOptions, _integrate_batch, _span_operator
from .profiles import (
    AttenuationProfile,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    _same_grid,
    build_channel_grid,
    default_attenuation,
)


def total_power_error_ratio(closedform_out: PowerSpectrum, oracle_out: PowerSpectrum) -> float:
    """Closed-form total output power over the oracle's (unity when exact)."""
    if not _same_grid(closedform_out.grid, oracle_out.grid):
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
        for name in ("raman_peak_count", "launch_power_count", "length_count", "steps_per_span"):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or count < 1:
                raise ConfigurationError(f"sweep {name} must be >= 1 and an integer, got {count!r}")
        if not self.band_plans:
            raise ConfigurationError("sweep needs at least one band plan")
        if not self.orders:
            raise ConfigurationError("sweep needs at least one order")
        if any(order < 1 for order in self.orders):
            raise ConfigurationError(f"sweep orders must be >= 1, got {self.orders}")
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


def _run_group(args) -> list[SweepRecord]:
    """Records of every cell sharing one (band plan, Raman peak), in cell order.

    The cells share the grid and the fiber model, hence the oracle's span
    operator, so the oracle integrates them as one batch; only the launch
    power and the span length vary.  After the batch, outside its memory
    peak, the group builds its span constants once per order and span
    length and each cell its shaping values once.  A failure is recorded on
    every record it concerns: group, cell or order.
    """
    config, band, peak, cells = args
    grid = build_channel_grid(band, config.spacing)
    raman = RamanGainModel.triangular(
        peak=peak, peak_separation=config.raman_peak_separation, window=config.raman_window
    )
    fibers = [FiberSpec(attenuation=config.attenuation, raman=raman, length=length)
              for _, length in cells]
    launches = [PowerSpectrum.flat_dbm(grid, power_dbm) for power_dbm, _ in cells]
    options = SolverOptions(steps_per_span=config.steps_per_span)

    def failed(power_dbm, length, n, error) -> SweepRecord:
        nan = float("nan")
        return SweepRecord(band, peak, power_dbm, length, n, nan, nan, error=error)

    try:
        outputs, messages = _integrate_batch(
            np.array([launch.powers for launch in launches]),
            [length for _, length in cells],
            _span_operator(grid, fibers[0], options),  # the span length plays no part
            options.steps_per_span,
        )
        errors = [repr(NumericalInstabilityError(m)) if m else "" for m in messages]
        cell_constants = list(zip(*(_link_constants(grid, fibers, n) for n in config.orders)))
    except Exception as exc:  # failed cells are recorded, the sweep continues
        errors = [repr(exc)] * len(cells)
    records = []
    for b, ((power_dbm, length), launch) in enumerate(zip(cells, launches)):
        if errors[b]:
            records.extend(failed(power_dbm, length, n, errors[b]) for n in config.orders)
            continue
        oracle = PowerSpectrum(grid, outputs[b])
        oracle_dbm = 10.0 * np.log10(oracle.powers / 1e-3)
        p = launch.powers
        try:
            c = cell_constants[b][0]  # the shaping values do not depend on the order
            total = p.sum()
            shaping = _shaping(p, total, c.window, c.spacing, c.indices)
        except Exception as exc:  # an order-free failure fails every order alike
            records.extend(failed(power_dbm, length, n, repr(exc)) for n in config.orders)
            continue
        for n, c in zip(config.orders, cell_constants[b]):
            try:
                alpha0, ref, _, growth = _span_params(p, total, shaping, c)
                closed = PowerSpectrum(grid, _profile(p, c.alpha_length, shaping, ref,
                                                      float(total * growth), alpha0,
                                                      c.slope, length), z=length)
                eps = total_power_error_ratio(closed, oracle)
                dev = float(np.abs(10.0 * np.log10(closed.powers / 1e-3) - oracle_dbm).max())
                records.append(SweepRecord(band, peak, power_dbm, length, n, eps, dev))
            except Exception as exc:
                records.append(failed(power_dbm, length, n, repr(exc)))
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

