"""Closed-form single-span power profile under Raman transfer and loss.

The per-channel output is

    P_i(z) = P_i(0) * exp(-alpha_i z + c_r (G_ref - G_i) P_T(0) (1 - e^{-a0 z}) / a0)

where G_i is a cumulative shaping value per channel (THz), G_ref the shaping
value of the tilt-free reference frequency chosen so the total output power
balances, and a0 an order-n power mean of the attenuation weighted by the
launch spectrum.  The total power is modeled as P_T(z) = P_T(0) e^{-a0 z}.

One private builder turns a spectrum and a fiber into these parameters: from
the launch spectrum here, and from the output spectrum for the inverse forms
in :mod:`isrsprop.inverse`.  A Raman-free span (slope 0) needs no special
case: its tilt term is zero and the profile is pure attenuation.

What depends only on the grid, the fiber and the order (Raman slope and
window, the shaping function's gather indices, alpha_i, alpha_i^n and
alpha_i L) is built once per public call and span by :func:`_span_constants`;
the builder (:func:`_shaping`, :func:`_span_params`, :func:`_profile`) then
works on plain arrays and sums each spectrum once.  Every check of
:class:`ClosedFormParams` and of the spectra still runs on those arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError
from .profiles import (
    AttenuationProfile,
    ChannelGrid,
    FiberSpec,
    PowerSpectrum,
    _channel_attenuation,
    _freeze,
    convert_units,
)


@dataclass(frozen=True)
class ClosedFormParams:
    """Per-span derived quantities for the closed-form profile.

    alpha0            total-power decay coefficient, 1/km
    order             power-mean order n used for alpha0
    shaping           per-channel shaping values, THz
    shaping_ref       shaping value at the tilt-free reference frequency, THz
                      (on a Raman-free span, the weighted-mean limit of the
                      balance; the slope makes it drop out of the profile)
    effective_length  (1 - e^{-alpha0 L}) / alpha0, km
    total_launch_power  P_T(0), W
    length            span length L, km
    channel_attenuation per-channel alpha(f_i), 1/km
    """

    alpha0: float
    order: int
    shaping: np.ndarray
    shaping_ref: float
    effective_length: float
    total_launch_power: float
    length: float
    channel_attenuation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shaping", _freeze(self.shaping))
        object.__setattr__(self, "channel_attenuation", _freeze(self.channel_attenuation))
        self._check(self.alpha0, self.effective_length, self.length)

    @staticmethod
    def _check(alpha0: float, effective_length: float, length: float) -> None:
        """Reject a non-positive alpha0 or an effective length outside (0, L]."""
        if alpha0 <= 0:
            raise ConfigurationError("alpha0 must be positive")
        # strictly below L in exact arithmetic; equality can survive rounding
        # when alpha0 * L underflows
        if not 0 < effective_length <= length:
            raise ConfigurationError("effective length must lie in (0, L]")

    def total_power_at(self, z: float) -> float:
        """Modeled total power P_T(0) e^{-alpha0 z} in W."""
        return self.total_launch_power * math.exp(-self.alpha0 * z)


class _SpanConstants(NamedTuple):
    """What the closed form of one span needs besides the spectrum, for one grid and order.

    ``indices`` are the :func:`_window_indices` of the Raman window on the
    grid; ``alpha`` is the read-only alpha_i of the grid, ``alpha_n`` is
    alpha_i^n and ``alpha_length`` is alpha_i L.
    """

    slope: float
    window: float
    spacing: float
    indices: tuple
    alpha: np.ndarray
    alpha_n: np.ndarray
    alpha_length: np.ndarray
    length: float
    order: int


def _span_constants(grid: ChannelGrid, fiber: FiberSpec, order: int) -> _SpanConstants:
    """The per-span constants of ``fiber`` on ``grid`` at ``order``.

    A tabulated Raman model is coerced to its triangular fit (the closed form
    is parameterized by a slope and window only).
    """
    tri = fiber.raman.as_triangular()
    bs = grid.spacing
    indices = _window_indices(grid.n_channels, math.floor(tri.window / bs),
                              math.ceil(tri.window / bs))
    alpha = _channel_attenuation(grid, fiber.attenuation)
    return _SpanConstants(tri.slope, tri.window, bs, indices, alpha, alpha**order,
                          alpha * fiber.length, fiber.length, order)


def _link_constants(grid: ChannelGrid, spans: Sequence[FiberSpec],
                    order: int) -> list[_SpanConstants]:
    """:func:`_span_constants` of every span, built once per distinct span.

    Spans sharing their attenuation and Raman model objects and their length
    share one bundle; each entry holds its first span, so the ids in the key
    stay those of live objects for the whole call.
    """
    built: dict[tuple, tuple[FiberSpec, _SpanConstants]] = {}
    out = []
    for fiber in spans:
        key = (id(fiber.attenuation), id(fiber.raman), fiber.length)
        if key not in built:
            built[key] = (fiber, _span_constants(grid, fiber, order))
        out.append(built[key][1])
    return out


def shaping_function(launch: PowerSpectrum, window: float) -> np.ndarray:
    """Cumulative shaping values (THz) for the launch spectrum.

    Discretizes the running integral of the windowed-power imbalance

        beta(f) = P_win(f) - window * (S(f + window) + S(f - window)),

    which is d/df of the first moment of the spectrum over a +-window
    neighborhood (the edge terms are the moment's boundary contributions, so
    they enter with a common minus sign).  Per channel j:

        beta_j = sum_{|f_k - f_j| < window} P_k
                 - (window / B_s) * (P_{j+m} + P_{j-m'})

    with m = floor(window/B_s), m' = ceil(window/B_s) and out-of-range
    channels contributing zero; the shaping value of channel i is the
    cumulative sum of beta_j * B_s / P_T over j <= i.

    The gather indices depend only on the channel count, m and m', so they
    come from a small cache keyed by those three ints (:func:`_window_indices`);
    each call only gathers from the running sum and the powers.
    """
    p = launch.powers
    bs = launch.grid.spacing
    indices = _window_indices(p.size, math.floor(window / bs), math.ceil(window / bs))
    return _shaping(p, p.sum(), window, bs, indices)


def _shaping(p: np.ndarray, total, window: float, bs: float, indices: tuple) -> np.ndarray:
    """:func:`shaping_function` of the powers ``p``, whose sum is ``total``."""
    if total <= 0:
        raise ConfigurationError("shaping function needs positive total power")
    win_high, win_low, upper, lower = indices
    csum = np.concatenate(([0.0], p.cumsum()))
    # index n of the zero-padded powers stands for an out-of-range channel
    padded = np.concatenate((p, [0.0]))
    beta = csum[win_high] - csum[win_low] - (window / bs) * (padded[upper] + padded[lower])
    return beta.cumsum() * bs / total


@functools.lru_cache(maxsize=64)
def _window_indices(n: int, m: int, m_up: int) -> tuple[np.ndarray, ...]:
    """Read-only gather indices of :func:`shaping_function` for n channels.

    ``(win_high, win_low, upper, lower)``: the running-sum indices bounding
    each channel's strict window |k - j| < window/B_s, then the channels
    j + m and j - m', with n marking one that lies outside the grid.
    """
    half_width = m_up - 1  # strict |k - j| < window/bs
    j = np.arange(n)
    indices = (
        np.minimum(j + half_width + 1, n),
        np.maximum(j - half_width, 0),
        np.where(j + m < n, j + m, n),
        np.where(j - m_up >= 0, j - m_up, n),
    )
    return tuple(_freeze(index, dtype=int) for index in indices)


def total_attenuation_coefficient(
    launch: PowerSpectrum, attenuation: AttenuationProfile, order: int
) -> float:
    """Order-n power mean of alpha(f_i) weighted by the launch powers (1/km)."""
    alpha = _channel_attenuation(launch.grid, attenuation)
    return _power_mean(alpha**order * launch.powers, launch.total_power, order)


def _power_mean(weighted: np.ndarray, total: float, order: int) -> float:
    """Order-n power mean of alpha from ``weighted`` = alpha^n times powers summing to ``total``."""
    if order < 1:
        raise ConfigurationError("approximation order must be a positive integer")
    if total <= 0:
        raise ConfigurationError("total launch power must be positive")
    return float((weighted.sum() / total) ** (1.0 / order))


def _shaping_ref(
    total,
    shaping: np.ndarray,
    weighted: np.ndarray,
    alpha: np.ndarray,
    alpha0: float,
    order: int,
    slope: float,
    z: float,
) -> float:
    """Reference shaping value (THz) that balances the modeled total power at z.

    ``weighted`` is alpha^n times the spectrum's powers, which sum to ``total``.
    Computed with max-subtracted log-sum-exp so large slope * P_T * L_eff
    products do not overflow.
    """
    weights = weighted / (alpha0**order * total)
    leff_z = -math.expm1(-alpha0 * z) / alpha0
    scale = slope * total * leff_z
    if scale == 0.0:
        # z -> 0 or slope -> 0 limit: the balance reduces to the weighted mean shaping value
        return float((weights * shaping).sum())
    exponent = (alpha0 - alpha) * z - slope * shaping * total * leff_z
    m = exponent.max()
    log_sum = m + math.log((weights * np.exp(exponent - m)).sum())
    return -log_sum / scale


def derive_params(launch: PowerSpectrum, fiber: FiberSpec, order: int = 3) -> ClosedFormParams:
    """All closed-form quantities for one span, from its launch spectrum.

    A tabulated Raman model is coerced to its triangular fit (the closed form
    is parameterized by a slope and window only).
    """
    p = launch.powers
    return _closed_form_params(p, p.sum(), _span_constants(launch.grid, fiber, order))


def _closed_form_params(powers: np.ndarray, total, constants: _SpanConstants,
                        at: float = 0.0) -> ClosedFormParams:
    """The :class:`ClosedFormParams` of :func:`_span_params` for powers summing to ``total``."""
    c = constants
    shaping = _shaping(powers, total, c.window, c.spacing, c.indices)
    alpha0, ref, leff, growth = _span_params(powers, total, shaping, c, at)
    return ClosedFormParams(
        alpha0=alpha0,
        order=c.order,
        shaping=shaping,
        shaping_ref=ref,
        effective_length=leff,
        total_launch_power=float(total * growth),
        length=c.length,
        channel_attenuation=c.alpha,
    )


def _span_params(powers: np.ndarray, total, shaping: np.ndarray, constants: _SpanConstants,
                 at: float = 0.0) -> tuple[float, float, float, float]:
    """``(alpha0, shaping_ref, effective_length, growth)`` of a spectrum known at z = ``at``.

    ``powers`` sum to ``total`` and have the shaping values ``shaping``.
    ``at`` is 0 for a launch spectrum and L for an output spectrum.  alpha0 is
    the spectrum-weighted power mean of alpha, the reference shaping value
    balances the modeled total power at z = L, a distance L - at from the
    spectrum (at the output itself it is the weighted mean shaping value),
    and the launch total is ``total * growth``, growth being e^{alpha0 at}; a
    span whose loss makes that factor overflow is a
    :class:`ConfigurationError`.  The checks of :class:`ClosedFormParams` run
    on the result.
    """
    c = constants
    weighted = c.alpha_n * powers
    alpha0 = _power_mean(weighted, total, c.order)
    try:
        growth = math.exp(alpha0 * at)
    except OverflowError:
        loss_db = convert_units(alpha0, "1/km", "dB/km") * at
        raise ConfigurationError(f"span loss of {loss_db:.6g} dB over {c.length:g} km is too "
                                 "large to invert: the launch total it implies overflows") from None
    ref = _shaping_ref(total, shaping, weighted, c.alpha, alpha0, c.order, c.slope,
                       c.length - at)
    leff = -math.expm1(-alpha0 * c.length) / alpha0
    ClosedFormParams._check(alpha0, leff, c.length)
    return alpha0, ref, leff, growth


def _profile(powers: np.ndarray, attenuation: np.ndarray, shaping: np.ndarray, ref: float,
             total_launch_power: float, alpha0: float, slope: float, z: float) -> np.ndarray:
    """Closed-form powers at z from the launch ``powers``; ``attenuation`` is alpha_i z.

    The exponent is the tilt term minus ``attenuation``, which equals
    -alpha_i z plus the tilt term bit for bit.
    """
    decay = -math.expm1(-alpha0 * z) / alpha0
    return powers * np.exp(slope * (ref - shaping) * total_launch_power * decay - attenuation)


def power_profile(
    launch: PowerSpectrum,
    params: ClosedFormParams,
    slope: float,
    z: float,
    refresh_reference: bool = False,
) -> PowerSpectrum:
    """Closed-form spectrum at position z in [0, L].

    ``refresh_reference`` re-balances the reference shaping value at the
    queried z instead of reusing the end-of-span value, for longitudinal
    profiles; the z = L spectrum is identical either way.
    """
    if not 0.0 <= z <= params.length:
        raise ConfigurationError(f"z = {z} km outside the span [0, {params.length}] km")
    alpha = params.channel_attenuation
    ref = params.shaping_ref
    if refresh_reference:
        p = launch.powers
        ref = _shaping_ref(p.sum(), params.shaping, alpha**params.order * p, alpha,
                           params.alpha0, params.order, slope, z)
    powers = _profile(launch.powers, alpha * z, params.shaping, ref, params.total_launch_power,
                      params.alpha0, slope, z)
    return PowerSpectrum(launch.grid, powers, z=z)
