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

What a span needs besides its spectrum is built once per public call:
alpha_i, the triangular Raman fit and the shaping function's gather indices
once per fiber model in a :class:`_SpanModel` (a link numbers its models,
:class:`isrsprop.multispan.LinkSpec`), alpha_i^n and alpha_i L once per span
by :func:`_span_constants`; no grid keeps them.  The builder (:func:`_shaping`,
:func:`_span_params`, :func:`_profile`) works on plain arrays, sums each spectrum
once and runs every check of :class:`ClosedFormParams` and of the spectra.
It works along the last axis: one (n,) spectrum with scalar totals, alpha0
and span length, or a (B, n) batch of spectra with a (B, 1) column of each,
in one pass over the batch.  The per-row scalars (the power mean, expm1, exp and log) are
evaluated with Python ``math`` row by row (:func:`_per_row`), so a row of a
batch gets its own spectrum's scalars and a single spectrum keeps its bits.
One function balances the reference (:func:`_reference_shaping`) from a
spectrum's weights and its slope-free exponent (alpha0 - alpha) z.  The fig3
sweep builds those once per batch and runs the rest of the balance and the
profile (:func:`_profile`) under S Raman slopes at once, on the (S, B, n)
stack, with the slopes as an (S, 1, 1) column; each slice keeps the bits of
its slope alone.
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
    _check_count,
    _check_flag,
    _check_real,
    _freeze,
    attenuation_at,
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
        """Modeled total power P_T(0) e^{-alpha0 z} in W, at z in [0, L] km."""
        _check_span_z(z, self.length)
        return self.total_launch_power * math.exp(-self.alpha0 * z)


def _check_span_z(z, length: float) -> None:
    """Reject a ``z`` that is not a finite real number in the span [0, ``length``] km."""
    _check_real(z, "z")
    if not 0.0 <= z <= length:
        raise ConfigurationError(f"z = {z} km outside the span [0, {length}] km")


@dataclass(frozen=True, eq=False)
class _SpanModel:
    """One fiber model on one grid, for every span of it; ``fiber``'s length plays no part.

    The read-only ``alpha`` (alpha(f_i)), the triangular ``fit`` of the Raman
    model (the closed form is parameterized by a slope and window only) and
    the fit window's :func:`_window_indices` are each built on first use and
    kept, so an oracle that keeps a tabulated model never fits it.
    """

    grid: ChannelGrid
    fiber: FiberSpec

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        return _freeze(attenuation_at(self.fiber.attenuation, self.grid.frequencies))

    @functools.cached_property
    def fit(self):
        return self.fiber.raman.as_triangular()

    @functools.cached_property
    def indices(self) -> tuple:
        bs, window = self.grid.spacing, self.fit.window
        return _window_indices(self.grid.n_channels, math.floor(window / bs), math.ceil(window / bs))

    def shaping(self, powers: np.ndarray, total) -> np.ndarray:
        """:func:`_shaping` of ``powers`` summing to ``total``, under the fit's window."""
        return _shaping(powers, total, self.fit.window, self.grid.spacing, self.indices)


class _SpanConstants(NamedTuple):
    """One span's closed-form constants: its ``model``, alpha_i^n and alpha_i L.

    For a (B, n) batch of spectra on spans of different lengths, ``length``
    is a (B, 1) column and ``alpha_length`` a (B, n) matrix.
    """

    model: _SpanModel
    alpha_n: np.ndarray
    alpha_length: np.ndarray
    length: float
    order: int


def _span_constants(model: _SpanModel, length, order: int) -> _SpanConstants:
    """The constants of a span ``length`` km long of ``model`` at ``order``, checked >= 1."""
    _check_count(order, "approximation order")
    return _SpanConstants(model, model.alpha**order, model.alpha * length, length, order)


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
    _check_real(window, "window", 0)
    p = launch.powers
    bs = launch.grid.spacing
    indices = _window_indices(p.size, math.floor(window / bs), math.ceil(window / bs))
    return _shaping(p, p.sum(), window, bs, indices)


def _shaping(p: np.ndarray, total, window: float, bs: float, indices: tuple) -> np.ndarray:
    """:func:`shaping_function` of the powers ``p`` along its last axis, whose sum is ``total``.

    ``total`` is a scalar for one spectrum and a (B, 1) column for a (B, n) batch.
    """
    if _any(total <= 0):
        raise ConfigurationError("shaping function needs positive total power")
    win_high, win_low, upper, lower = indices
    zero = np.zeros(p.shape[:-1] + (1,))
    csum = np.concatenate((zero, p.cumsum(axis=-1)), axis=-1)
    # index n of the zero-padded powers stands for an out-of-range channel
    padded = np.concatenate((p, zero), axis=-1)
    edges = _gather(padded, upper)
    edges += _gather(padded, lower)
    edges *= window / bs
    beta = _gather(csum, win_high)
    beta -= _gather(csum, win_low)
    beta -= edges
    shaping = beta.cumsum(axis=-1)
    shaping *= bs
    shaping /= total
    return shaping


def _gather(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``x[..., index]``, with every row of a batch contiguous in the result.

    A batch gathers with ``take``, whose rows stay contiguous (indexing would
    give them a stride of B), so every later sum along a row adds in the
    order of that spectrum alone; one spectrum indexes, which is faster.
    """
    return x[index] if x.ndim == 1 else x.take(index, axis=-1)


def _any(mask) -> bool:
    """Whether a per-row condition holds on any row: a scalar's own truth for one spectrum."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _all(mask) -> bool:
    """Whether a per-row condition holds on every row: a scalar's own truth for one spectrum."""
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _per_row(scalar, *values):
    """``scalar`` of each row's values, evaluated with Python ``math``.

    For one spectrum the ``values`` are scalars and this is ``scalar(*values)``.
    For a batch they are (B, 1) columns, or (S, B, 1) for a stack, the first
    one always (the others may be scalars shared by every row), and
    ``scalar`` runs once per row on Python floats; its result, a float or a
    tuple of floats, comes back as columns of the first value's shape.  Row
    by row, not as numpy's vectorized exp, expm1, log and power, which may
    round otherwise: a row of a batch then has the scalars, and raises the
    errors (a float division by zero included), of its spectrum alone.
    """
    first = values[0]
    if not isinstance(first, np.ndarray) or not first.ndim:
        return scalar(*values)
    count, shape = first.size, first.shape
    rows = list(map(scalar, *(v.ravel().tolist() if np.ndim(v) else [v] * count
                              for v in values)))
    if isinstance(rows[0], tuple):
        return tuple(np.array(column).reshape(shape) for column in zip(*rows))
    return np.array(rows).reshape(shape)


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
    _check_count(order, "approximation order")
    alpha = attenuation_at(attenuation, launch.grid.frequencies)
    return _power_mean((alpha**order * launch.powers).sum(), launch.total_power, order)


def _power_mean(weighted_sum, total, order: int) -> float:
    """Order-n power mean of alpha from the sum of alpha^n times powers summing to ``total``.

    A mean of 0 is a :class:`ConfigurationError` naming the order: alpha is
    positive, so the sum underflowed (alpha_i^n, or its products with the
    powers), and no decay or effective length follows from it.
    """
    if total <= 0:
        raise ConfigurationError("total launch power must be positive")
    mean = float((weighted_sum / total) ** (1.0 / order))
    if mean == 0.0:
        raise ConfigurationError(
            f"approximation order {order} is too high for this spectrum: alpha_i^{order} "
            "times the channel powers underflows, so the order's mean attenuation alpha0 is 0")
    return mean


def _decay(alpha0: float, z: float) -> float:
    """(1 - e^{-alpha0 z}) / alpha0 in km: the effective length of a span z km long."""
    return -math.expm1(-alpha0 * z) / alpha0


def _reference_shaping(total, shaping: np.ndarray, weights: np.ndarray, base: np.ndarray, leff_z,
                       slope):
    """Reference shaping value (THz) that balances the modeled total power at z.

    ``weights`` is alpha^n times the spectrum's powers, which sum to
    ``total``, over alpha0^n ``total``; ``base`` is (alpha0 - alpha) z and
    ``leff_z`` the effective length of z.  The balance is
    -log(sum_j weights_j e^{base_j - tilt_j}) / (slope P_T L_eff(z)), the
    tilt being slope G_j P_T L_eff(z), taken with a max-subtracted
    log-sum-exp so large slope * P_T * L_eff products do not overflow;
    channels without power take no part in it.  Where that scale is 0
    (z -> 0 or slope -> 0) the balance's limit, the weighted mean shaping
    value, takes its place.  Along the last axis: one (n,) spectrum with
    scalars gives a float; a (B, n) batch with (B, 1) columns of ``total``
    and ``leff_z``, or one spectrum at an (M, 1) column of z (``leff_z`` and
    ``base`` per z), gives a column.  An (S, 1, 1) column of slopes over a
    (B, n) batch gives an (S, B, 1) stack whose slice s has the bits of the
    batch under slope s alone: only the tilt and the log-sum-exp run on the
    stack.
    """
    scale = slope * total * leff_z
    flat = scale == 0.0
    if _all(flat):
        mean = (weights * shaping).sum(axis=-1, keepdims=shaping.ndim > 1)
        return mean if np.ndim(mean) == np.ndim(scale) else np.broadcast_to(mean, scale.shape)
    tilt = slope * shaping
    tilt *= total
    tilt *= leff_z
    log_sum = _log_sum_exp(weights, np.subtract(base, tilt, out=tilt))
    if _any(flat):  # rows of a batch on both sides of the limit
        mean = (weights * shaping).sum(axis=-1, keepdims=True)
        return np.where(flat, mean, -log_sum / np.where(flat, 1.0, scale))
    return -log_sum / scale


def _log_sum_exp(weights: np.ndarray, exponent: np.ndarray):
    """log(sum_j weights_j e^{exponent_j}) along the last axis, overwriting ``exponent``.

    Max-subtracted over the positive weights only: a channel without weight
    takes no part, not even as a zero term, so every row sums its terms as
    its spectrum alone does.  (n,) weights may serve (M, n) exponents and
    (B, n) weights an (S, B, n) stack of them, which gives (M, 1) or (S, B, 1).
    """
    positive = weights > 0
    batch = exponent.ndim > 1  # a (B, 1) column per row, not a scalar
    if positive.all():
        top = exponent.max(axis=-1, keepdims=batch)
        exponent -= top
        np.exp(exponent, out=exponent)
        exponent *= weights
        sums = exponent.sum(axis=-1, keepdims=batch)
    else:
        if not positive.any(axis=-1).all():
            raise ConfigurationError("closed form needs at least one channel that carries power")
        weights, positive = (np.broadcast_to(x, exponent.shape) for x in (weights, positive))
        shape = weights.shape[:-1] + (1,) * batch
        top, sums = np.empty(shape), np.empty(shape)
        for row in np.ndindex(weights.shape[:-1]):
            keep = positive[row]
            x = exponent[row][keep]
            top[row] = x.max()
            sums[row] = (weights[row][keep] * np.exp(x - top[row])).sum()
    return top + _per_row(math.log, sums)


def derive_params(launch: PowerSpectrum, fiber: FiberSpec, order: int = 3) -> ClosedFormParams:
    """All closed-form quantities for one span, from its launch spectrum.

    A tabulated Raman model is coerced to its triangular fit (the closed form
    is parameterized by a slope and window only).
    """
    p = launch.powers
    constants = _span_constants(_SpanModel(launch.grid, fiber), fiber.length, order)
    return _closed_form_params(p, p.sum(), constants)


def _closed_form_params(powers: np.ndarray, total, constants: _SpanConstants,
                        at: float = 0.0) -> ClosedFormParams:
    """The :class:`ClosedFormParams` of :func:`_span_params` for powers summing to ``total``."""
    c = constants
    shaping = c.model.shaping(powers, total)
    alpha0, ref, leff, growth = _span_params(powers, total, shaping, c, at)
    return ClosedFormParams(
        alpha0=alpha0,
        order=c.order,
        shaping=shaping,
        shaping_ref=ref,
        effective_length=leff,
        total_launch_power=float(total * growth),
        length=c.length,
        channel_attenuation=c.model.alpha,
    )


def _span_params(powers: np.ndarray, total, shaping: np.ndarray, constants: _SpanConstants,
                 at: float = 0.0) -> tuple:
    """``(alpha0, shaping_ref, effective_length, growth)`` of a spectrum known at z = ``at``.

    ``powers`` sum to ``total`` and have the shaping values ``shaping``.
    ``at`` is 0 for a launch spectrum and L for an output spectrum.  alpha0 is
    the spectrum-weighted power mean of alpha, the reference shaping value
    balances the modeled total power at z = L, a distance L - at from the
    spectrum (at the output itself it is the weighted mean shaping value),
    and the launch total is ``total * growth``, growth being e^{alpha0 at}; a
    span whose loss makes that factor overflow is a
    :class:`ConfigurationError`.  The checks of :class:`ClosedFormParams` run
    on the result.  Along the last axis: (n,) powers with a scalar total give
    floats; a (B, n) batch with a (B, 1) column of totals, and constants that
    may hold one span length per row, gives (B, 1) columns.
    """
    c = constants
    weights = c.alpha_n * powers
    alpha0, growth, leff, norm, leff_z = _order_scalars(weights, total, c.length, c.order, at)
    weights /= norm
    base = np.subtract(alpha0, c.model.alpha)
    base *= c.length - at
    ref = _reference_shaping(total, shaping, weights, base, leff_z, c.model.fit.slope)
    return alpha0, ref, leff, growth


def _order_scalars(weighted: np.ndarray, total, length, order: int, at: float) -> tuple:
    """:func:`_row_scalars` of the spectra whose powers times alpha_i^n are ``weighted``.

    Floats for one (n,) spectrum; (B, 1) columns for a (B, n) batch, whose
    ``total`` is a (B, 1) column and ``length`` a column or a scalar.
    """
    weighted_sum = weighted.sum(axis=-1, keepdims=weighted.ndim > 1)
    return _per_row(_row_scalars, weighted_sum, total, length, order, at)


def _row_scalars(weighted_sum: float, total: float, length: float, order: int,
                 at: float) -> tuple[float, ...]:
    """``(alpha0, e^{alpha0 at}, L_eff, alpha0^n P_T, L_eff(L - at))`` of one spectrum.

    The scalars of :func:`_span_params`, L_eff checked as :class:`ClosedFormParams` checks it.
    """
    alpha0 = _power_mean(weighted_sum, total, order)
    try:
        growth = math.exp(alpha0 * at)
    except OverflowError:
        loss_db = convert_units(alpha0, "1/km", "dB/km") * at
        raise ConfigurationError(f"span loss of {loss_db:.6g} dB over {length:g} km is too "
                                 "large to invert: the launch total it implies overflows") from None
    leff = _decay(alpha0, length)
    ClosedFormParams._check(alpha0, leff, length)
    return alpha0, growth, leff, alpha0**order * total, _decay(alpha0, length - at)


def _profile(powers: np.ndarray, attenuation: np.ndarray, shaping: np.ndarray, ref,
             total_launch_power, slope, leff_z) -> np.ndarray:
    """Closed-form powers at z from the launch ``powers``; ``attenuation`` is alpha_i z.

    ``leff_z`` is the effective length of z, :func:`_decay` of alpha0 and z.
    The exponent is the tilt term minus ``attenuation``, which equals
    -alpha_i z plus the tilt term bit for bit.  A channel without power stays
    at 0 W: the reference does not balance its exponent, which may overflow.
    Along the last axis: ``ref``, ``total_launch_power`` and ``leff_z`` are
    scalars for one spectrum and (B, 1) columns for a (B, n) batch; one (n,)
    spectrum at an (M, 1) column of z (``ref`` and ``leff_z`` columns too)
    gives its (M, n) profile.  An (S, 1, 1) column of slopes with an
    (S, B, 1) ``ref`` gives a (B, n) batch's (S, B, n) stack of profiles.
    """
    exponent = np.subtract(ref, shaping)
    exponent *= slope
    exponent *= total_launch_power
    exponent *= leff_z
    exponent -= attenuation
    if not powers.all():
        np.copyto(exponent, -np.inf, where=powers == 0)
    np.exp(exponent, out=exponent)
    exponent *= powers
    return exponent


def power_profile(
    launch: PowerSpectrum,
    params: ClosedFormParams,
    slope: float,
    z: float,
    refresh_reference: bool = False,
) -> PowerSpectrum:
    """Closed-form spectrum at position z in [0, L]: :func:`power_profiles` at one z.

    ``refresh_reference`` re-balances the reference shaping value at the
    queried z instead of reusing the end-of-span value, for longitudinal
    profiles; the z = L spectrum is identical either way.
    """
    powers = power_profiles(launch, params, slope, [z], refresh_reference)[0]
    return PowerSpectrum(launch.grid, powers, z=z)


def power_profiles(
    launch: PowerSpectrum,
    params: ClosedFormParams,
    slope: float,
    z: Sequence[float],
    refresh_reference: bool = False,
) -> np.ndarray:
    """Closed-form powers at each position of ``z`` in [0, L], one row per z: an (M, n) array.

    One pass over the (M, n) exponent, the per-z decay (and, with
    ``refresh_reference``, the per-z reference shaping value) evaluated row
    by row with Python ``math``, so a row's bits depend on its z alone: each
    row is :func:`power_profile`'s spectrum at that z.
    """
    _check_flag(refresh_reference, "refresh_reference")
    _check_real(slope, "slope", 0, strict=False)
    for at in z:
        _check_span_z(at, params.length)
    p, alpha = launch.powers, params.channel_attenuation
    z = np.array(z, dtype=float).reshape(-1, 1)
    alpha0 = np.full_like(z, params.alpha0)
    leff_z = _per_row(_decay, alpha0, z)
    if refresh_reference:
        total, order = p.sum(), params.order
        shaping = np.broadcast_to(params.shaping, (len(z), p.size))
        weights = alpha**order * p
        weights /= params.alpha0**order * total
        base = np.subtract(alpha0, alpha)
        base *= z
        ref = _reference_shaping(total, shaping, weights, base, leff_z, slope)
    else:
        ref = np.full_like(z, params.shaping_ref)
    return _profile(p, alpha * z, params.shaping, ref, params.total_launch_power, slope, leff_z)
