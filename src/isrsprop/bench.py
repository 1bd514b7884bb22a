"""Accuracy benchmark: closed form vs the fixed-step oracle over a grid.

Sweeps peak Raman gain, per-channel launch power and span length for a set
of band plans, recording the total-power error ratio and the worst
per-channel deviation at every approximation order.  Summaries follow the
box-plot convention (median, quartiles, 1.5 IQR whiskers).

The unit of work is a band batch: one band plan with S consecutive Raman
peaks, S = ``_BATCH_ENTRIES // (B n)`` (at least one) for the band's B
(power, length) cells of n channels.  The band plans run one after the
other in one process.  A band builds its grid, alpha(f_i), launches,
lengths and every closed-form term that depends on neither the peak nor
the oracle once (:func:`_band`).  Each batch then integrates its B launches
under its S slopes as one (S, B, n) stack, one peak being a stack of one,
which numpy's matmul runs as one GEMM per slice with a one-peak batch's
(B, n) shapes, and runs the slope-dependent rest of the closed form on the
stack with the slope as an (S, 1, 1) column.  Every other operation is
elementwise or along a row, so a row's bits depend only on its slice: each
record has the bits of its (band, peak) batch run alone.  A stack in which
any row fails the oracle's stability test is rerun one peak at a time, as
that peak's batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .closedform import _order_scalars, _profile, _reference_shaping, _SpanModel
from .errors import ConfigurationError, NumericalInstabilityError
from .ode_oracle import _integrate_batch, _integrate_stack, _triangular_coupling
from .profiles import (
    AttenuationProfile,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    _check_count,
    _check_real,
    _same_grid,
    build_channel_grid,
    convert_units,
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
            for x in bounds:
                _check_real(x, f"sweep {name}", 0 if name == "length_range_km" else None)
        _check_real(self.spacing, "sweep spacing", 0)
        plans = self.band_plans
        if (isinstance(plans, str) or not isinstance(plans, Sequence)
                or not all(isinstance(plan, str) for plan in plans)):
            raise ConfigurationError(
                f"sweep band_plans must be a sequence of plan names, got {plans!r}")
        if not plans:
            raise ConfigurationError("sweep needs at least one band plan")
        for plan in plans:
            # an unknown plan, or a band the spacing does not divide, would fail only
            # when its batches run, after every earlier band plan
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


# Entries (S peaks x B cells x n channels) of a band batch's oracle state: a band
# plan runs its peaks S = _BATCH_ENTRIES // (B n) at a time (at least one).  The
# fig3 sweep then stacks all five peaks on C, CL and CLU and three on SCLU; a
# larger S saves little more time and holds S times a batch's arrays at once.
_BATCH_ENTRIES = 42_000


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


class _Band(NamedTuple):
    """What every Raman peak of one band plan shares, for its B cells of n channels.

    The (power dBm, length km) cells, their launches, the launch totals and
    the span lengths; alpha_i L per cell; the
    shaping values, with ``errors`` naming each cell whose order-free terms
    failed (its shaping row is then NaN and never read); and per order
    alpha_i^n, a (B, 5) matrix of the columns
    :func:`isrsprop.closedform._order_scalars` gives (alpha0, growth, L_eff,
    alpha0^n P_T, L_eff again) and the cells that order fails.  None of it
    depends on the slope or on the oracle.
    """

    model: _SpanModel
    cells: list[tuple[float, float]]
    launches: np.ndarray
    totals: np.ndarray
    lengths: np.ndarray
    alpha_length: np.ndarray
    shaping: np.ndarray
    errors: dict[int, str]
    orders: dict[int, tuple[np.ndarray, np.ndarray, dict[int, str]]]


def _band(config: SweepConfig, band: str, peak: float, cells) -> _Band:
    """The band plan's :class:`_Band`; ``peak`` is any of its peaks (only the window is read)."""
    grid = build_channel_grid(band, config.spacing)
    raman = RamanGainModel.triangular(peak=peak, peak_separation=config.raman_peak_separation,
                                      window=config.raman_window)
    # the span length plays no part in the span model
    model = _SpanModel(grid, FiberSpec(config.attenuation, raman, length=cells[0][1]))
    # flat launches, each cell's watts from the scalar conversion PowerSpectrum.flat_dbm
    # makes (numpy's vector pow can differ from it in the last bit)
    watts = np.array([convert_units(power_dbm, "dBm", "W") for power_dbm, _ in cells])
    p = np.repeat(watts[:, None], grid.n_channels, axis=1)
    lengths = np.array([length for _, length in cells])
    totals = p.sum(axis=1, keepdims=True)
    count = len(cells)
    done, shaping, failed = _batch_or_rows(lambda r: model.shaping(p[r], totals[r]), count)
    if failed:
        shaping, rows = np.full(p.shape, np.nan), shaping
        shaping[done] = rows
    shaped = done if failed else slice(None)
    orders = {}
    launches, total, length = p[shaped], totals[shaped], lengths[shaped, None]
    for n in config.orders:
        alpha_n = model.alpha**n
        rows, scalars, order_failed = _batch_or_rows(lambda r: np.hstack(_order_scalars(
            alpha_n * launches[r], total[r], length[r], n, 0.0)), len(done))
        columns = np.full((count, 5), np.nan)
        if scalars is not None:
            columns[done[rows]] = scalars
        orders[n] = alpha_n, columns, {int(done[i]): error for i, error in order_failed.items()}
    return _Band(model, cells, p, totals, lengths, model.alpha * lengths[:, None], shaping, failed,
                 orders)


def _closed_form_values(band: _Band, slopes: np.ndarray, rows: np.ndarray, oracle: np.ndarray,
                        orders) -> dict[tuple[int, int, int], tuple[float, float] | str]:
    """``{(slice, cell, order): (eps_p, max_deviation_db) or error}`` of one oracle stack.

    ``oracle`` is the (S, R, n) output of the cells ``rows`` (ascending,
    every one of them shaped) under the (S, 1, 1) column of ``slopes``.  Per
    order only the slope-dependent part runs on the stack: the reference's
    tilt and log-sum-exp (:func:`isrsprop.closedform._reference_shaping`),
    the profile's tilt, eps_p and the dB deviation; the rest is the band's.
    Each slice and row keeps the bits of its spectrum's one-slope closed
    form.  A pass that raises runs again one (slice, cell) entry at a time.
    """
    oracle_dbm = oracle / 1e-3
    np.log10(oracle_dbm, out=oracle_dbm)
    oracle_dbm *= 10.0
    alpha, values = band.model.alpha, {}
    for n in orders:
        alpha_n, columns, failed = band.orders[n]
        live = ~np.isin(rows, list(failed)) if failed else slice(None)
        kept = rows[live]
        if not kept.size:
            continue
        # every cell of the band, in order: the band's arrays serve as they are
        at = slice(None) if len(kept) == len(band.launches) else kept
        p, total, shaping, att = (x[at] for x in (band.launches, band.totals, band.shaping,
                                                   band.alpha_length))
        alpha0, growth, leff, norm, leff_z = (columns[at, i:i + 1] for i in range(5))
        length = band.lengths[at, None]
        launch_total = total * growth
        out, out_dbm = oracle[:, live], oracle_dbm[:, live]
        width = len(kept)

        def evaluate(k: slice) -> np.ndarray:
            # k: the S x width (slice, cell) entries in row-major order, all or one
            s = r = slice(None)
            if k.start is not None:
                i, j = divmod(k.start, width)
                s, r = slice(i, i + 1), slice(j, j + 1)
            slope = slopes[s]
            # the weights and (alpha0 - alpha) z, slope-free, live only while the reference runs
            weights = alpha_n * p[r]
            weights /= norm[r]
            base = np.subtract(alpha0[r], alpha)
            base *= length[r]
            ref = _reference_shaping(total[r], shaping[r], weights, base, leff_z[r], slope)
            del weights, base
            closed = _profile(p[r], att[r], shaping[r], ref, launch_total[r], slope, leff[r])
            PowerSpectrum._check(closed)
            eps = _error_ratio(closed, out[s, r])
            closed /= 1e-3
            dev = np.log10(closed, out=closed)
            dev *= 10.0
            dev -= out_dbm[s, r]
            np.abs(dev, out=dev)
            return np.stack([eps, dev.max(axis=-1)], axis=-1).reshape(-1, 2)

        done, results, errors = _batch_or_rows(evaluate, len(slopes) * width)
        values.update(((k // width, kept[k % width], n), error) for k, error in errors.items())
        if results is not None:
            values.update(((k // width, kept[k % width], n), tuple(v))
                          for k, v in zip(done.tolist(), results.tolist()))
    return values


def _run_band(config: SweepConfig, band_plan: str, peaks: list[float],
              cells: list[tuple[float, float]]) -> list[SweepRecord]:
    """Records of every cell of one band plan, in (Raman peak, cell, order) order.

    The band builds its grid, span model (so alpha(f_i)), launches, lengths
    and every closed-form term that depends on neither the peak nor the
    oracle once (:func:`_band`).  Its peaks then run in band batches of
    S = ``_BATCH_ENTRIES // (B n)`` consecutive peaks (at least one) for B
    cells of n channels.  A batch integrates its cells as one (S, B, n)
    stack under its S slopes, which gives every slice the bits of its
    peak's own (B, n) batch (:func:`isrsprop.ode_oracle._integrate_stack`).
    When a row of the stack fails, each peak reruns alone through
    :func:`isrsprop.ode_oracle._integrate_batch`, which records the failed
    cells and integrates the others as that peak's batch always does.  The
    closed form then runs on each stack the oracle finished
    (:func:`_closed_form_values`).  A failure is recorded on every record
    it concerns: an oracle failure on every order of its (peak, cell), an
    order-free one on every peak and order of its cell, and one order's own
    on that order only.
    """
    slopes = [RamanGainModel.triangular(peak=peak, peak_separation=config.raman_peak_separation,
                                        window=config.raman_window).slope for peak in peaks]
    band = _band(config, band_plan, peaks[0], cells)
    f, window, alpha = band.model.grid.frequencies, config.raman_window, band.model.alpha
    steps, count = config.steps_per_span, len(cells)
    size = max(1, _BATCH_ENTRIES // band.launches.size)
    records = []
    for start in range(0, len(peaks), size):
        batch = slopes[start:start + size]
        try:
            outputs = _integrate_stack(band.launches, band.lengths,
                                       _triangular_coupling(f, batch, window, alpha), steps,
                                       len(batch))
        except Exception:  # each peak runs again alone below and records its error
            outputs = None
        if outputs is not None:
            records += _records(config, band_plan, peaks[start:start + len(batch)], band, batch,
                                np.arange(count), outputs, {})
            continue
        for j, slope in enumerate(batch, start):
            try:
                # the operator is passed on, so it is freed before the closed form runs
                outputs, messages = _integrate_batch(
                    band.launches, band.lengths, _triangular_coupling(f, slope, window, alpha),
                    steps)
                failed = {b: repr(NumericalInstabilityError(m))
                          for b, m in enumerate(messages) if m}
            except Exception as exc:  # failed cells are recorded, the sweep continues
                outputs, failed = None, dict.fromkeys(range(count), repr(exc))
            rows = np.array([b for b in range(count) if b not in failed], dtype=int)
            if outputs is not None:
                outputs = (outputs[rows] if failed else outputs)[None]
            records += _records(config, band_plan, peaks[j:j + 1], band, [slope], rows, outputs,
                                failed)
    return records


def _records(config: SweepConfig, band_plan: str, peaks, band: _Band, slopes, rows: np.ndarray,
             outputs: np.ndarray | None, failed: dict[int, str]) -> list[SweepRecord]:
    """Records of one oracle stack, in (peak, cell, order) order.

    ``peaks`` and ``slopes`` are the stack's S Raman peaks and their slopes.
    ``outputs`` holds the (S, R, n) oracle outputs of the cells ``rows``, or
    is None when the oracle failed every cell; ``failed`` names the cells
    the oracle failed, which no slice of the stack finished.
    """
    values = {}
    if outputs is not None and rows.size:
        shaped = np.array([b not in band.errors for b in rows], dtype=bool)
        values = _closed_form_values(band, np.array(slopes)[:, None, None], rows[shaped],
                                     outputs if shaped.all() else outputs[:, shaped],
                                     config.orders)
    records = []
    nan = float("nan")
    for s in range(len(slopes)):
        for b, (power_dbm, length) in enumerate(band.cells):
            for n in config.orders:
                value = (failed.get(b) or band.errors.get(b) or band.orders[n][2].get(b)
                         or values[s, b, n])
                if isinstance(value, str):
                    records.append(SweepRecord(band_plan, peaks[s], power_dbm, length, n,
                                               nan, nan, error=value))
                else:
                    records.append(SweepRecord(band_plan, peaks[s], power_dbm, length, n,
                                               *value))
    return records


def run_order_sweep(config: SweepConfig) -> tuple[list[SweepRecord], list[SweepSummary]]:
    """Run every cell of the sweep; cell order is fixed by the config axes.

    Cells run band plan by band plan (:func:`_run_band`), contiguous in cell
    order, so the output is the same to the last bit on every run.
    """
    powers = config.axis(config.launch_power_dbm_range, config.launch_power_count)
    lengths = config.axis(config.length_range_km, config.length_count)
    cells = [(float(power), float(length)) for power in powers for length in lengths]
    peaks = [float(peak) for peak in config.axis(config.raman_peak_range, config.raman_peak_count)]
    records = [r for band in config.band_plans for r in _run_band(config, band, peaks, cells)]
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

