"""ASE accumulation and iterative pre-emphasis targeting of an OSNR shape.

Amplifier noise is injected per channel at every in-line stage and then
rides the signal: within a span and across later amplifiers the accumulated
noise scales with the same per-channel transfer as the signal, so the
contribution of stage k at the link end is simply

    injected_k(f) * final(f) / span_input_{k+1}(f).

A receiver boost rescales signal and noise identically and injects nothing,
which makes the end-of-link OSNR independent of the boost gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .inverse import TargetSpectrum, preemphasis_multispan
from .multispan import LinkSpec, MultiSpanResult, propagate_multispan_closedform
from .profiles import PLANCK, ChannelGrid, PowerSpectrum, _freeze

@dataclass(frozen=True)
class NoiseSpectrum:
    """Per-channel ASE power (W) in a reference bandwidth, at position z."""

    grid: ChannelGrid
    ase_powers: np.ndarray
    z: float
    reference_bandwidth: float  # THz

    def __post_init__(self):
        p = _freeze(self.ase_powers)
        if p.shape != (self.grid.n_channels,):
            raise ConfigurationError("noise length must match the grid")
        if np.any(p < 0):
            raise ConfigurationError("ASE powers must be non-negative")
        object.__setattr__(self, "ase_powers", p)

    @property
    def total_power(self) -> float:
        return float(self.ase_powers.sum())


def _noise_figure_linear(grid: ChannelGrid, noise_figure_db) -> np.ndarray:
    if noise_figure_db is None:
        raise ConfigurationError("amplifier is missing noise figures for ASE tracking")
    # one conversion per band that holds channels, in grid order
    per_band = np.zeros(len(grid.bands))
    for i in dict.fromkeys(grid.band_index.tolist()):
        name = grid.bands[i].name
        if name not in noise_figure_db:
            raise ConfigurationError(f"no noise figure configured for band {name!r}")
        per_band[i] = 10.0 ** (noise_figure_db[name] / 10.0)
    return per_band[grid.band_index]


def ase_injection(
    grid: ChannelGrid,
    noise_figure_db,
    gain,
    reference_bandwidth: float,
) -> np.ndarray:
    """Per-channel ASE power (W) injected by one amplification stage.

    Single-stage convention h f NF (G - 1) B_ref.  ``gain`` may be a scalar
    or a per-channel array; ``reference_bandwidth`` is in THz.
    """
    nf = _noise_figure_linear(grid, noise_figure_db)
    g = np.broadcast_to(np.asarray(gain, dtype=float), (grid.n_channels,))
    f_hz = grid.frequencies * 1e12
    b_hz = reference_bandwidth * 1e12
    return PLANCK * f_hz * np.maximum(nf * (g - 1.0), 0.0) * b_hz


def ase_accumulate(
    link: LinkSpec,
    gains: Sequence,
    span_inputs: Sequence[PowerSpectrum],
    final: PowerSpectrum,
    reference_bandwidth: float | None = None,
) -> NoiseSpectrum:
    """Accumulated ASE at the link end for a given signal evolution.

    ``gains`` and ``span_inputs`` come from a forward propagation (one gain
    per boundary, one input spectrum per span); ``final`` is the link-end
    signal including any receiver boost, so boost scaling of the noise is
    inherited through the signal ratio.
    """
    grid = final.grid
    if len(span_inputs) != len(link.spans) or len(gains) != len(link.spans) - 1:
        raise ConfigurationError("gains/span_inputs inconsistent with the link")
    b_ref = grid.spacing if reference_bandwidth is None else reference_bandwidth
    noise = np.zeros(grid.n_channels)
    for k, gain in enumerate(gains):
        amp = link.amplifiers[k]
        injected = ase_injection(grid, amp.noise_figure_db, gain, b_ref)
        entry = span_inputs[k + 1].powers
        if np.any(entry <= 0):
            raise ConfigurationError("signal vanishes at a span input; ASE ratio undefined")
        noise += injected * (final.powers / entry)
    return NoiseSpectrum(grid, noise, z=final.z, reference_bandwidth=b_ref)


def ase_from_result(
    result: MultiSpanResult, reference_bandwidth: float | None = None
) -> NoiseSpectrum:
    """:func:`ase_accumulate` on a link run of either the closed form or the oracle."""
    return ase_accumulate(
        result.link, result.gains, result.span_inputs, result.final, reference_bandwidth
    )


def osnr_profile(signal: PowerSpectrum, noise: NoiseSpectrum) -> np.ndarray:
    """Per-channel linear OSNR in the noise's reference bandwidth."""
    if signal.grid is not noise.grid and signal.grid.n_channels != noise.grid.n_channels:
        raise ConfigurationError("signal and noise must share a grid")
    if np.any(noise.ase_powers <= 0):
        raise ConfigurationError("OSNR is undefined where the ASE power is zero")
    return signal.powers / noise.ase_powers


@dataclass(frozen=True)
class OsnrTargetRun:
    """Outcome of the iterative OSNR-shape targeting loop."""

    target: np.ndarray
    step: float
    tolerance: float
    max_iterations: int
    rmse_history: tuple[float, ...]
    launch: PowerSpectrum
    osnr: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.rmse_history)


def target_osnr(
    target: TargetSpectrum,
    link: LinkSpec,
    total_launch_power: float,
    step: float = 1.0,
    tolerance: float = 1e-5,
    max_iterations: int = 50,
    order: int = 3,
    reference_bandwidth: float | None = None,
    rmse_in_db: bool = False,
) -> OsnrTargetRun:
    """Launch pre-emphasis that realizes a normalized OSNR shape at link end.

    The received-power shape is seeded with the OSNR target, then updated as

        shape <- shape * (target / estimate)^step

    until the RMSE between the mean-normalized target and estimate drops
    below ``tolerance``.  Normalization and the RMSE are computed on linear
    OSNR by default (``rmse_in_db`` switches both to dB).  Raises
    :class:`ConvergenceError` carrying the RMSE history when the iteration
    cap is reached.
    """
    _check_iteration_settings(step, tolerance, max_iterations, reference_bandwidth)
    if not target.normalized:
        raise ConfigurationError("OSNR targets are shape-only; build the target with normalized=True")
    grid = target.grid
    goal = target.values

    shape = goal / goal.sum()
    history: list[float] = []
    for _ in range(max_iterations):
        span_target = TargetSpectrum(grid, shape, normalized=True)
        launch = preemphasis_multispan(span_target, link, total_launch_power, order)
        result = propagate_multispan_closedform(launch, link, order)
        noise = ase_from_result(result, reference_bandwidth)
        osnr = osnr_profile(result.final, noise)
        rmse = float(
            np.sqrt(np.mean((_normalize(osnr, rmse_in_db) - _normalize(goal, rmse_in_db)) ** 2))
        )
        history.append(rmse)
        if rmse < tolerance:
            return OsnrTargetRun(
                target=_freeze(goal), step=step, tolerance=tolerance,
                max_iterations=max_iterations, rmse_history=tuple(history),
                launch=launch, osnr=_freeze(osnr), converged=True,
            )
        shape = shape * (goal / osnr) ** step
        shape /= shape.sum()
    raise ConvergenceError(
        f"OSNR targeting did not reach RMSE {tolerance:g} in {max_iterations} "
        f"iterations (last {history[-1]:.3e})",
        history,
    )


def _check_iteration_settings(step: float, tolerance: float, max_iterations: int,
                              reference_bandwidth: float | None = None) -> None:
    if not (step > 0 and tolerance > 0):
        raise ConfigurationError("step and tolerance must be positive")
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be >= 1")
    if reference_bandwidth is not None and not reference_bandwidth > 0:
        raise ConfigurationError(
            f"the OSNR reference bandwidth must be positive, got {reference_bandwidth!r} THz"
        )


def _normalize(values: np.ndarray, in_db: bool) -> np.ndarray:
    if in_db:
        db = 10.0 * np.log10(values)
        return db - db.mean()
    return values / values.mean()
