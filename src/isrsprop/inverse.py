"""Launch-power pre-emphasis: invert the closed form for a target output.

The span parameters (shaping values, effective attenuation, tilt-free
reference) come from the output spectrum instead of the launch, through the
forward closed form's builder; inserting them into the inverted profile

    P_i(0) = P_i(L) * exp(alpha_i L - c_r (G_ref - G_i) P_T(L) (e^{a0 L} - 1) / a0)

yields the launch that realizes an arbitrary output.  Absolute targets are
inverted directly; shape-only targets with a constrained launch total are
solved by a bracketed bisection for the implied output total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormParams, _span_params, _span_terms
from .errors import ConfigurationError, RootBracketError
from .multispan import LinkSpec
from .profiles import ChannelGrid, FiberSpec, PowerSpectrum, _freeze, convert_units


@dataclass(frozen=True)
class TargetSpectrum:
    """Desired output: absolute per-channel watts, or a shape-only profile.

    Shape-only targets (``normalized=True``) are rescaled to mean 1 on
    construction; only their shape is ever used.
    """

    grid: ChannelGrid
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_channels,):
            raise ConfigurationError(
                f"expected {self.grid.n_channels} target values, got shape {v.shape}"
            )
        if np.any(v <= 0):
            raise ConfigurationError("target values must be positive")
        object.__setattr__(self, "values", _freeze(v / v.mean() if self.normalized else v))

    @classmethod
    def flat_shape(cls, grid: ChannelGrid) -> "TargetSpectrum":
        return cls(grid, np.ones(grid.n_channels), normalized=True)

    @classmethod
    def absolute_dbm(cls, grid: ChannelGrid, dbm) -> "TargetSpectrum":
        watts = convert_units(np.asarray(dbm, dtype=float), "dBm", "W")
        return cls(grid, np.broadcast_to(watts, (grid.n_channels,)).copy(), normalized=False)

    def shape(self) -> np.ndarray:
        """Values rescaled to unit sum."""
        return self.values / self.values.sum()


def closedform_params_from_output(
    output: PowerSpectrum, fiber: FiberSpec, order: int = 3
) -> ClosedFormParams:
    """Span parameters estimated from the output spectrum.

    The forward builder applied to the output, which sits at z = L: the
    shaping values use the same discretization (they are modeled as
    position-independent), alpha0 becomes the output-weighted power mean, the
    reference shaping value is balanced at the output itself (its weighted
    mean over the shaping profile), and ``total_launch_power`` is the
    model-implied P_T(L) e^{alpha0 L}, so the forward profile formula inverts
    exactly with these parameters.
    """
    if output.total_power <= 0:
        raise ConfigurationError("total output power must be positive")
    return _span_params(_span_terms(output, fiber), order, at=fiber.length)


def _inversion_terms(params: ClosedFormParams, slope: float):
    """Shape-fixed exponent parts ``(alpha_i L, slope (G_ref - G_i))``."""
    return params.channel_attenuation * params.length, slope * (params.shaping_ref - params.shaping)


def _launch_from_output(output_powers: np.ndarray, terms, decay: float) -> np.ndarray:
    """Invert the closed form: launch powers realizing the given output.

    ``terms`` comes from :func:`_inversion_terms`; ``decay`` is
    P_T(L)(e^{a0 L} - 1)/a0, written as the implied launch total P_T(0)
    times L_eff for stability.
    """
    attenuation, tilt = terms
    return output_powers * np.exp(attenuation - tilt * decay)


def preemphasis_single_span(
    target: TargetSpectrum,
    fiber: FiberSpec,
    order: int = 3,
    total_launch_power: float | None = None,
) -> PowerSpectrum:
    """Launch spectrum whose span output matches the target.

    Absolute targets (``normalized=False``) are inverted directly and
    ``total_launch_power`` must be omitted.  Shape-only targets require
    ``total_launch_power``; the implied output total is then the root of a
    scalar fixed-point condition, solved by bisection on its logarithm over
    the attenuation-only bracket [P_T0 e^{-max(alpha) L}, P_T0 e^{-min(alpha) L}]
    to 1e-12 relative.
    """
    slope = fiber.raman.as_triangular().slope
    if not target.normalized:
        if total_launch_power is not None:
            raise ConfigurationError(
                "absolute targets fix the launch total; drop total_launch_power"
            )
        output = PowerSpectrum(target.grid, target.values, z=fiber.length)
        params = closedform_params_from_output(output, fiber, order)
        decay = params.total_launch_power * params.effective_length
        launch = _launch_from_output(output.powers, _inversion_terms(params, slope), decay)
        return PowerSpectrum(target.grid, launch, z=0.0)

    if total_launch_power is None or total_launch_power <= 0:
        raise ConfigurationError("shape-only targets need a positive total_launch_power")
    shape = target.shape()
    # Shaping values, alpha0 and the reference are scale-free: derive once.
    shape_spectrum = PowerSpectrum(target.grid, shape, z=fiber.length)
    params_unit = closedform_params_from_output(shape_spectrum, fiber, order)
    alpha = params_unit.channel_attenuation
    terms = _inversion_terms(params_unit, slope)
    growth = math.exp(params_unit.alpha0 * fiber.length)

    def launch_at(output_total: float) -> np.ndarray:
        # P_T(0) first, then times L_eff: the order ClosedFormParams gave, so the
        # bisection's sums and sign decisions do not move
        decay = output_total * growth * params_unit.effective_length
        return _launch_from_output(shape * output_total, terms, decay)

    def launch_total(output_total: float) -> float:
        return float(launch_at(output_total).sum())

    low = total_launch_power * math.exp(-float(alpha.max()) * fiber.length)
    high = total_launch_power * math.exp(-float(alpha.min()) * fiber.length)
    f_low = launch_total(low) - total_launch_power
    f_high = launch_total(high) - total_launch_power
    # The attenuation-only bracket can miss the root when the tilt-induced
    # convexity excess outweighs the attenuation spread; widen geometrically.
    expansions = 0
    while f_low > 0 and expansions < 60:
        low /= 4.0
        f_low = launch_total(low) - total_launch_power
        expansions += 1
    while f_high < 0 and expansions < 60:
        high *= 4.0
        f_high = launch_total(high) - total_launch_power
        expansions += 1
    if f_low == 0.0 or low == high:
        root = low
    elif f_high == 0.0:
        root = high
    elif (f_low < 0) == (f_high < 0):
        raise RootBracketError(
            "launch-total condition does not change sign over the "
            "scanned output-power bracket", low, high,
        )
    else:
        u_low, u_high = math.log(low), math.log(high)
        while u_high - u_low > 1e-12:
            u_mid = 0.5 * (u_low + u_high)
            f_mid = launch_total(math.exp(u_mid)) - total_launch_power
            if f_mid == 0.0:
                u_low = u_high = u_mid
                break
            if (f_mid < 0) == (f_low < 0):
                u_low, f_low = u_mid, f_mid
            else:
                u_high = u_mid
        root = math.exp(0.5 * (u_low + u_high))
    return PowerSpectrum(target.grid, launch_at(root), z=0.0)


def preemphasis_multispan(
    target: TargetSpectrum,
    link: LinkSpec,
    total_launch_power: float,
    order: int = 3,
) -> PowerSpectrum:
    """Backward recursion giving the link launch that realizes a target shape.

    Total-power-restoring amplification constrains every span input to the
    same total, so only normalized targets are meaningful here.  Each span is
    inverted with the single-span shape solver under that constraint; the
    span's input shape is the previous span's output shape (scalar gains do
    not reshape).  The returned launch is scaled to ``total_launch_power``
    exactly.
    """
    if not target.normalized:
        raise ConfigurationError(
            "multi-span pre-emphasis targets a shape; absolute output powers "
            "cannot be realized under per-span total-power restoration"
        )
    shape = target.shape()
    launch = None
    for fiber in reversed(link.spans):
        span_target = TargetSpectrum(target.grid, shape, normalized=True)
        launch = preemphasis_single_span(
            span_target, fiber, order, total_launch_power=total_launch_power
        )
        shape = launch.powers / launch.total_power
    return launch.scaled(total_launch_power / launch.total_power)
