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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .profiles import AttenuationProfile, FiberSpec, PowerSpectrum, _freeze, attenuation_at


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
        if self.alpha0 <= 0:
            raise ConfigurationError("alpha0 must be positive")
        # strictly below L in exact arithmetic; equality can survive rounding
        # when alpha0 * L underflows
        if not 0 < self.effective_length <= self.length:
            raise ConfigurationError("effective length must lie in (0, L]")

    def total_power_at(self, z: float) -> float:
        """Modeled total power P_T(0) e^{-alpha0 z} in W."""
        return self.total_launch_power * math.exp(-self.alpha0 * z)


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
    """
    p = launch.powers
    total = p.sum()
    if total <= 0:
        raise ConfigurationError("shaping function needs positive total power")
    bs = launch.grid.spacing
    n = p.size
    m = math.floor(window / bs)
    m_up = math.ceil(window / bs)
    half_width = m_up - 1  # strict |k - j| < window/bs
    csum = np.concatenate(([0.0], np.cumsum(p)))
    j = np.arange(n)
    win_power = csum[np.minimum(j + half_width + 1, n)] - csum[np.maximum(j - half_width, 0)]
    upper = np.where(j + m < n, p[np.minimum(j + m, n - 1)], 0.0)
    lower = np.where(j - m_up >= 0, p[np.maximum(j - m_up, 0)], 0.0)
    beta = win_power - (window / bs) * (upper + lower)
    return np.cumsum(beta) * bs / total


def total_attenuation_coefficient(
    launch: PowerSpectrum, attenuation: AttenuationProfile, order: int
) -> float:
    """Order-n power mean of alpha(f_i) weighted by the launch powers (1/km)."""
    alpha = attenuation_at(attenuation, launch.grid.frequencies)
    return _power_mean(alpha, launch.powers, launch.total_power, order)


def _power_mean(alpha: np.ndarray, powers: np.ndarray, total: float, order: int) -> float:
    """Order-n power mean of ``alpha`` weighted by ``powers``, whose sum is ``total``."""
    if order < 1:
        raise ConfigurationError("approximation order must be a positive integer")
    if total <= 0:
        raise ConfigurationError("total launch power must be positive")
    return float((np.sum(alpha**order * powers) / total) ** (1.0 / order))


def _shaping_ref_from_arrays(
    powers: np.ndarray,
    shaping: np.ndarray,
    alpha: np.ndarray,
    alpha0: float,
    order: int,
    slope: float,
    z: float,
) -> float:
    """Reference shaping value (THz) that balances the modeled total power at z.

    Computed with max-subtracted log-sum-exp so large slope * P_T * L_eff
    products do not overflow.
    """
    total = powers.sum()
    weights = alpha**order * powers / (alpha0**order * total)
    leff_z = -math.expm1(-alpha0 * z) / alpha0
    scale = slope * total * leff_z
    if scale == 0.0:
        # z -> 0 or slope -> 0 limit: the balance reduces to the weighted mean shaping value
        return float(np.sum(weights * shaping))
    exponent = (alpha0 - alpha) * z - slope * shaping * total * leff_z
    m = exponent.max()
    log_sum = m + math.log(np.sum(weights * np.exp(exponent - m)))
    return -log_sum / scale


def derive_params(launch: PowerSpectrum, fiber: FiberSpec, order: int = 3) -> ClosedFormParams:
    """All closed-form quantities for one span, from its launch spectrum.

    A tabulated Raman model is coerced to its triangular fit (the closed form
    is parameterized by a slope and window only).
    """
    return _span_params(_span_terms(launch, fiber), order)


def _span_terms(spectrum: PowerSpectrum, fiber: FiberSpec) -> tuple:
    """The order-free terms ``(powers, total, shaping, alpha, slope, length)`` of a span."""
    tri = fiber.raman.as_triangular()
    shaping = shaping_function(spectrum, tri.window)
    alpha = attenuation_at(fiber.attenuation, spectrum.grid.frequencies)
    return spectrum.powers, spectrum.total_power, shaping, alpha, tri.slope, fiber.length


def _span_params(terms: tuple, order: int, at: float = 0.0) -> ClosedFormParams:
    """One order's parameters from the :func:`_span_terms` of a spectrum known at z = ``at``.

    ``at`` is 0 for a launch spectrum and L for an output spectrum.  alpha0 is
    the spectrum-weighted power mean of alpha, the reference shaping value
    balances the modeled total power at z = L, a distance L - at from the
    spectrum (at the output itself it is the weighted mean shaping value),
    and the launch total is P_T(at) e^{alpha0 at}.
    """
    powers, total, shaping, alpha, slope, length = terms
    alpha0 = _power_mean(alpha, powers, total, order)
    ref = _shaping_ref_from_arrays(powers, shaping, alpha, alpha0, order, slope, length - at)
    leff = -math.expm1(-alpha0 * length) / alpha0
    return ClosedFormParams(
        alpha0=alpha0,
        order=order,
        shaping=shaping,
        shaping_ref=ref,
        effective_length=leff,
        total_launch_power=total * math.exp(alpha0 * at),
        length=length,
        channel_attenuation=alpha,
    )


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
        ref = _shaping_ref_from_arrays(
            launch.powers, params.shaping, alpha, params.alpha0,
            params.order, slope, z,
        )
    decay = -math.expm1(-params.alpha0 * z) / params.alpha0
    exponent = -alpha * z + slope * (ref - params.shaping) * params.total_launch_power * decay
    return PowerSpectrum(launch.grid, launch.powers * np.exp(exponent), z=z)
