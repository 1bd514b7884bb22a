"""ASE accumulation and iterative pre-emphasis targeting of an OSNR shape.

Amplifier noise is injected per channel at every in-line stage and then
rides the signal: within a span and across later amplifiers the accumulated
noise scales with the same per-channel transfer as the signal, so the
contribution of stage k at the link end is simply

    injected_k(f) * final(f) / span_input_{k+1}(f).

A receiver boost rescales signal and noise identically and injects nothing,
which makes the end-of-link OSNR independent of the boost gain.

Each iteration of :func:`target_osnr` is one backward recursion of
:func:`preemphasis_multispan` and one forward closed-form run.  The recursion
runs without the pre-emphasis check that every in-line amplifier restores
the span-input total: the forward run applies the link's own amplifier
policy, so the loop is open to every policy.  Once per :func:`target_osnr`
call come the closed form's per-span constants, from one span model per
fiber model (:func:`isrsprop.multispan._closed_form_constants`), the photon
energies, the reference bandwidth and the normalized goal, and at its first
ASE evaluation the noise figures, one array per amplifier; every check of
:func:`ase_accumulate` and :func:`osnr_profile` still runs on every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .inverse import TargetSpectrum, _preemphasis_multispan
from .multispan import LinkSpec, MultiSpanResult, _closed_form_constants, _propagate_closed_form
from .profiles import (PLANCK, ChannelGrid, PowerSpectrum, _check_count, _check_finite,
                       _check_flag, _check_real, _freeze, _same_grid)

@dataclass(frozen=True)
class NoiseSpectrum:
    """Per-channel ASE power (W) in a reference bandwidth, at position z."""

    grid: ChannelGrid
    ase_powers: np.ndarray
    z: float
    reference_bandwidth: float  # THz

    def __post_init__(self):
        _check_real(self.reference_bandwidth, "OSNR reference bandwidth", 0)
        p = _freeze(self.ase_powers)
        if p.shape != (self.grid.n_channels,):
            raise ConfigurationError("noise length must match the grid")
        if not (p.min() >= 0 and p.max() < math.inf):  # min propagates NaN
            bad = float(p[~(p >= 0) | (p == math.inf)][0])
            raise ConfigurationError(f"ASE powers must be finite and non-negative, got {bad!r} W")
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
        try:
            per_band[i] = 10.0 ** (noise_figure_db[name] / 10.0)
        except OverflowError:
            raise ConfigurationError(f"noise figure for band {name!r}: {noise_figure_db[name]!r} "
                                     "dB is too large to convert to linear") from None
    return per_band[grid.band_index]


def ase_injection(
    grid: ChannelGrid,
    noise_figure_db,
    gain,
    reference_bandwidth: float,
) -> np.ndarray:
    """Per-channel ASE power (W) injected by one amplification stage.

    Single-stage convention h f NF (G - 1) B_ref.  ``gain`` may be a scalar
    or a per-channel array, finite and >= 0; ``reference_bandwidth`` is in THz.
    """
    _check_real(reference_bandwidth, "OSNR reference bandwidth", 0)
    g = _gains(gain, grid.n_channels)
    return _injected(_photon_energy(grid), _noise_figure_linear(grid, noise_figure_db), g,
                     reference_bandwidth * 1e12)


def _gains(gain, n: int) -> np.ndarray:
    """``gain`` as n linear gains (a read-only view), checked finite and >= 0.

    A scalar goes through the one real-number rule; an array must hold real
    numbers, one or n of them, and names its first bad value.
    """
    try:
        g = np.asarray(gain)
    except ValueError:  # a ragged nest of sequences
        g = np.asarray(None)
    if not g.ndim and not isinstance(gain, np.ndarray):
        _check_real(gain, "amplifier gain", 0, strict=False)
    if g.dtype.kind not in "iuf":
        raise ConfigurationError(f"amplifier gains must be real numbers, got {gain!r}")
    g = g.astype(float, copy=False)
    _check_finite(g, "amplifier gain")
    if (g < 0).any():
        raise ConfigurationError(f"amplifier gain must be >= 0, got {float(g[g < 0][0])!r}")
    if g.size not in (1, n) or g.ndim > 1:
        raise ConfigurationError(f"expected 1 or {n} amplifier gains, got shape {g.shape}")
    return np.broadcast_to(g, (n,))


def _photon_energy(grid: ChannelGrid) -> np.ndarray:
    """h f of every channel, J."""
    return PLANCK * (grid.frequencies * 1e12)


def _injected(hf: np.ndarray, nf: np.ndarray, gain, b_hz: float) -> np.ndarray:
    """:func:`ase_injection` from the photon energies ``hf``, linear noise figures ``nf``
    and reference bandwidth ``b_hz`` in Hz."""
    return hf * np.maximum(nf * (gain - 1.0), 0.0) * b_hz


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
    _check_real(b_ref, "OSNR reference bandwidth", 0)
    nfs = [_noise_figure_linear(grid, amp.noise_figure_db) for amp in link.amplifiers]
    noise = _ase(_photon_energy(grid), nfs, b_ref * 1e12, gains, span_inputs, final.powers)
    return NoiseSpectrum(grid, noise, z=final.z, reference_bandwidth=b_ref)


def _ase(hf: np.ndarray, nfs: Sequence[np.ndarray], b_hz: float, gains: Sequence,
         span_inputs: Sequence[PowerSpectrum], final: np.ndarray) -> np.ndarray:
    """Link-end ASE powers: each stage's injection times the signal's ratio final / entry."""
    noise = np.zeros(final.size)
    for nf, gain, entry in zip(nfs, gains, span_inputs[1:]):
        injected = _injected(hf, nf, gain, b_hz)
        entry = entry.powers
        if (entry <= 0).any():
            raise ConfigurationError("signal vanishes at a span input; ASE ratio undefined")
        noise += injected * (final / entry)
    return noise


def ase_from_result(
    result: MultiSpanResult, reference_bandwidth: float | None = None
) -> NoiseSpectrum:
    """:func:`ase_accumulate` on a link run of either the closed form or the oracle."""
    return ase_accumulate(
        result.link, result.gains, result.span_inputs, result.final, reference_bandwidth
    )


def osnr_profile(signal: PowerSpectrum, noise: NoiseSpectrum) -> np.ndarray:
    """Per-channel linear OSNR in the noise's reference bandwidth."""
    if not _same_grid(signal.grid, noise.grid):
        raise ConfigurationError("signal and noise must share a grid")
    if np.any(noise.ase_powers <= 0):
        raise ConfigurationError("OSNR is undefined where the ASE power is zero")
    return signal.powers / noise.ase_powers


@dataclass(frozen=True)
class OsnrTargetRun:
    """Outcome of a converged OSNR-shape targeting loop; one that does not converge raises."""

    rmse_history: tuple[float, ...]
    launch: PowerSpectrum
    osnr: np.ndarray

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
    _check_flag(rmse_in_db, "rmse_in_db")
    if not target.normalized:
        raise ConfigurationError("OSNR targets are shape-only; build the target with normalized=True")
    grid = target.grid
    goal = target.values
    # what no iteration changes: the closed form's span constants, the ASE factors of
    # ase_accumulate and the normalized goal; the noise figures are checked where
    # ase_accumulate checks them, after the first run
    _check_real(total_launch_power, "total_launch_power", 0)
    constants = _closed_form_constants(grid, link, order)
    b_ref = grid.spacing if reference_bandwidth is None else reference_bandwidth
    hf, b_hz = _photon_energy(grid), b_ref * 1e12
    nfs = None
    goal_normalized = _normalize(goal, rmse_in_db)

    shape = goal / goal.sum()
    history: list[float] = []
    for _ in range(max_iterations):
        launch = _preemphasis_multispan(grid, shape, constants, total_launch_power)
        result = _propagate_closed_form(launch, link, constants)
        final = result.final
        if nfs is None:
            nfs = [_noise_figure_linear(grid, amp.noise_figure_db) for amp in link.amplifiers]
        noise = _ase(hf, nfs, b_hz, result.gains, result.span_inputs, final.powers)
        osnr = osnr_profile(final, NoiseSpectrum(grid, noise, z=final.z, reference_bandwidth=b_ref))
        rmse = float(np.sqrt(np.mean((_normalize(osnr, rmse_in_db) - goal_normalized) ** 2)))
        history.append(rmse)
        if rmse < tolerance:
            return OsnrTargetRun(rmse_history=tuple(history), launch=launch, osnr=_freeze(osnr))
        shape = shape * (goal / osnr) ** step
        shape /= shape.sum()
    raise ConvergenceError(
        f"OSNR targeting did not reach RMSE {tolerance:g} in {max_iterations} "
        f"iterations (last {history[-1]:.3e})",
        history,
    )


def _check_iteration_settings(step: float, tolerance: float, max_iterations: int,
                              reference_bandwidth: float | None = None) -> None:
    _check_real(step, "step", 0)
    _check_real(tolerance, "tolerance", 0)
    _check_count(max_iterations, "max_iterations")
    if reference_bandwidth is not None:
        _check_real(reference_bandwidth, "OSNR reference bandwidth", 0)


def _normalize(values: np.ndarray, in_db: bool) -> np.ndarray:
    if in_db:
        db = 10.0 * np.log10(values)
        return db - db.mean()
    return values / values.mean()
