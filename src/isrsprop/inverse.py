"""Launch-power pre-emphasis: invert the closed form for a target output.

The span parameters (shaping values, effective attenuation, tilt-free
reference) come from the output spectrum instead of the launch, through the
forward closed form's builder; inserting them into the inverted profile

    P_i(0) = P_i(L) * exp(alpha_i L - c_r (G_ref - G_i) P_T(L) (e^{a0 L} - 1) / a0)

yields the launch that realizes an arbitrary output.  Absolute targets are
inverted directly; shape-only targets with a constrained launch total are
solved for the implied output total by a Newton-guided bisection: a bracketed
bisection in log space whose midpoints are decided by comparison with a
Newton root wherever a monotonicity check and a floating-point guard band
prove the comparison gives the sign an evaluation would.

Each public call builds the per-span constants of
:func:`isrsprop.closedform._span_constants` once per distinct span, and the
inversion runs on plain arrays: the multi-span recursion makes no target,
spectrum or parameter object per span, while every check those objects made
still runs on the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (
    ClosedFormParams,
    _closed_form_params,
    _link_constants,
    _shaping,
    _span_constants,
    _span_params,
)
from .errors import ConfigurationError, RootBracketError
from .multispan import LinkSpec
from .profiles import ChannelGrid, FiberSpec, PowerSpectrum, _freeze, convert_units

# The shape-only root-find bisects u = log T (T the output total) down to a
# 1e-12 wide interval.  Its launch total S(u) is computed with a relative error
# eta of a few ulp per unit of the largest |exponent| (alpha_i L - tilt_i decay)
# plus log2(n) ulp for the pairwise sum; against extended precision, eta stays
# below 1e-15 for exponents under 10 (the 50-100 km spans of the shipped
# configs), 2e-14 under 100 and 9e-14 under 600.  Where d log S / du >= 1 (see
# preemphasis_single_span) the computed sign of S - P_T0 is exact at every u
# farther than eta from the root, and a Newton root whose |log(S / P_T0)| is at
# most _NEWTON_TOL lies within _NEWTON_TOL + eta of it.  A midpoint farther
# than _ROOT_GUARD from the Newton root is therefore more than 1.8e-13 - eta
# from the root, which exceeds every eta above, and its side is decided by
# comparison; only midpoints inside the band are evaluated.
_ROOT_GUARD = 2e-13
_NEWTON_TOL = 2e-14
_NEWTON_STEPS = 12
_LOG_MAX = math.log(np.finfo(float).max)


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
        self._check(v)
        object.__setattr__(self, "values", _freeze(v / v.mean() if self.normalized else v))

    @classmethod
    def flat_shape(cls, grid: ChannelGrid) -> "TargetSpectrum":
        return cls(grid, np.ones(grid.n_channels), normalized=True)

    @classmethod
    def absolute_dbm(cls, grid: ChannelGrid, dbm) -> "TargetSpectrum":
        watts = convert_units(np.asarray(dbm, dtype=float), "dBm", "W")
        return cls(grid, np.broadcast_to(watts, (grid.n_channels,)).copy(), normalized=False)

    @staticmethod
    def _check(values: np.ndarray) -> None:
        """Reject target values that are not finite and positive."""
        # min propagates NaN, so two reductions catch every bad value
        if not (values.min() > 0 and values.max() < math.inf):
            raise ConfigurationError("target values must be positive and finite")

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
    exactly with these parameters.  A span whose loss makes e^{alpha0 L}
    overflow raises :class:`ConfigurationError` naming that loss.
    """
    p = output.powers
    total = p.sum()
    _check_output_total(total)
    constants = _span_constants(output.grid, fiber, order)
    return _closed_form_params(p, total, constants, at=fiber.length)


def _check_output_total(total) -> None:
    if total <= 0:
        raise ConfigurationError("total output power must be positive")


def _inversion(output_powers: np.ndarray, constants) -> tuple:
    """``(total, growth, effective_length, terms)`` of the span that ends in ``output_powers``.

    The builder's parameters from the output: ``total`` is its sum, the
    implied launch total is ``total * growth`` and ``terms`` are the
    shape-fixed exponent parts ``(alpha_i L, slope (G_ref - G_i))`` that
    :func:`_launch_from_output` takes.
    """
    c = constants
    total = output_powers.sum()
    _check_output_total(total)
    shaping = _shaping(output_powers, total, c.window, c.spacing, c.indices)
    _, ref, leff, growth = _span_params(output_powers, total, shaping, c, at=c.length)
    return total, growth, leff, (c.alpha_length, c.slope * (ref - shaping))


def _launch_from_output(
    output_powers: np.ndarray, terms, decay: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Invert the closed form: launch powers realizing the given output.

    ``terms`` comes from :func:`_inversion`; ``decay`` is
    P_T(L)(e^{a0 L} - 1)/a0, written as the implied launch total P_T(0)
    times L_eff for stability.  The launch, ``output_powers * exp(attenuation
    - tilt * decay)``, is written into ``out`` (a new array by default), which
    must not be ``output_powers``, and returned.
    """
    attenuation, tilt = terms
    if out is None:
        out = np.empty_like(output_powers)
    np.multiply(tilt, decay, out)
    np.subtract(attenuation, out, out)
    np.exp(out, out)
    return np.multiply(output_powers, out, out)


def preemphasis_single_span(
    target: TargetSpectrum,
    fiber: FiberSpec,
    order: int = 3,
    total_launch_power: float | None = None,
) -> PowerSpectrum:
    """Launch spectrum whose span output matches the target.

    Absolute targets (``normalized=False``) are inverted directly and
    ``total_launch_power`` must be omitted.  Shape-only targets require a
    positive, finite ``total_launch_power``; the implied output total T is
    then the root of the launch-total condition S(T) = P_T0, found on
    u = log T over the attenuation-only bracket
    [P_T0 e^{-max(alpha) L}, P_T0 e^{-min(alpha) L}] (widened while it misses
    the root) by a Newton-guided bisection to 1e-12 in u.

    In u, d log S/du = 1 - decay(u) <tilt>, where <tilt> is the
    launch-weighted mean of the inversion tilt.  Its derivative with respect
    to the decay is -Var(tilt) <= 0 and the decay grows with u, so <tilt> <= 0
    at the final lower bracket end (the monotonicity check) makes log S
    increasing with slope >= 1 and convex over the whole bracket, with a
    single sign change.  Newton from the upper end then descends onto the
    root, and the bisection is replayed step by step: a midpoint farther than
    a guard band of 2e-13 from the Newton root (argued from the rounding of
    the launch total beside ``_ROOT_GUARD``) takes the side the comparison
    gives, and only midpoints inside the band are evaluated, so the root and
    the launch are bit for bit those of the plain bisection.  When the check
    fails, or Newton leaves the bracket, meets a non-positive slope or does
    not converge, every midpoint is evaluated.

    Every evaluation, Newton's included, writes the trial output and its
    launch into two buffers allocated once per call, through
    :func:`_launch_from_output` with ``out``, so the root-find allocates no
    arrays.
    """
    if not target.normalized:
        if total_launch_power is not None:
            raise ConfigurationError(
                "absolute targets fix the launch total; drop total_launch_power"
            )
        output = PowerSpectrum(target.grid, target.values, z=fiber.length)
        constants = _span_constants(target.grid, fiber, order)
        total, growth, leff, terms = _inversion(output.powers, constants)
        decay = total * growth * leff
        attenuation, tilt = terms
        # the log of each launch power: above _LOG_MAX its exp overflows
        if (np.log(output.powers) + (attenuation - tilt * decay)).max() > _LOG_MAX:
            raise ConfigurationError(
                f"the launch for the absolute target ({10.0 * math.log10(total / 1e-3):.6g} "
                f"dBm output total) over {fiber.length:g} km with a span loss of "
                f"{10.0 * math.log10(growth):.6g} dB overflows"
            )
        launch = _launch_from_output(output.powers, terms, decay)
        return PowerSpectrum(target.grid, launch, z=0.0)
    _check_launch_total(total_launch_power)
    constants = _span_constants(target.grid, fiber, order)
    return PowerSpectrum(target.grid, _invert_shape(target.shape(), constants,
                                                    total_launch_power), z=0.0)


def _check_launch_total(total_launch_power) -> None:
    if total_launch_power is None or not 0 < total_launch_power < math.inf:
        raise ConfigurationError(
            "shape-only targets need a positive, finite total_launch_power, "
            f"got {total_launch_power!r}"
        )


def _invert_shape(shape: np.ndarray, constants, total_launch_power: float) -> np.ndarray:
    """Launch powers (checked like a spectrum's) realizing the unit-sum output ``shape``.

    The shape-only root-find of :func:`preemphasis_single_span` for the span
    of ``constants``.  A launch with a channel at 0 W, its power underflowed,
    is a :class:`ConfigurationError`.
    """
    PowerSpectrum._check(shape)
    # Shaping values, alpha0 and the reference are scale-free: derive once.
    _, growth, leff, terms = _inversion(shape, constants)
    alpha = constants.alpha
    length = constants.length
    tilt = terms[1]
    output = np.empty_like(shape)
    launch = np.empty_like(shape)

    def decay_at(output_total: float) -> float:
        # P_T(0) first, then times L_eff: the order ClosedFormParams gave, so the
        # bisection's sums and sign decisions do not move
        return output_total * growth * leff

    def launch_at(output_total: float) -> np.ndarray:
        np.multiply(shape, output_total, output)
        return _launch_from_output(output, terms, decay_at(output_total), out=launch)

    def excess(output_total: float) -> tuple[float, float]:
        # S - P_T0, by the pairwise sum .sum() runs without its Python-level
        # wrapper, and the tilt-weighted launch total sum(tilt_i P_i(0))
        p = launch_at(output_total)
        return float(np.add.reduce(p)) - total_launch_power, float(np.dot(tilt, p))

    def newton_root(u_low: float, u_high: float, f: float, tilted: float) -> float | None:
        # Newton on log(S / P_T0) from u_high, where S - P_T0 = f > 0; None when
        # a step leaves (u_low, u_high), meets a slope <= 0 or does not converge
        u = u_high
        for _ in range(_NEWTON_STEPS):
            residual = math.log1p(f / total_launch_power)
            if abs(residual) <= _NEWTON_TOL:
                return u
            derivative = 1.0 - decay_at(math.exp(u)) * tilted / (f + total_launch_power)
            if not derivative > 0.0:
                return None
            u -= residual / derivative
            if not u_low < u < u_high:
                return None
            f, tilted = excess(math.exp(u))
        return None

    # a trial launch may overflow to inf at the upper bracket end: that only
    # tells the search which side it is on, so the root-find stays quiet
    with np.errstate(over="ignore"):
        low = total_launch_power * math.exp(-float(alpha.max()) * length)
        high = total_launch_power * math.exp(-float(alpha.min()) * length)
        f_low, tilted_low = excess(low)
        f_high, tilted_high = excess(high)
        # The attenuation-only bracket can miss the root when the tilt-induced
        # convexity excess outweighs the attenuation spread; widen geometrically.
        expansions = 0
        while f_low > 0 and expansions < 60:
            low /= 4.0
            f_low, tilted_low = excess(low)
            expansions += 1
        while f_high < 0 and expansions < 60:
            high *= 4.0
            f_high, tilted_high = excess(high)
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
            newton = None
            if f_low < 0 and tilted_low <= 0.0:
                newton = newton_root(u_low, u_high, f_high, tilted_high)
            while u_high - u_low > 1e-12:
                u_mid = 0.5 * (u_low + u_high)
                if newton is not None and abs(u_mid - newton) > _ROOT_GUARD:
                    f_mid = u_mid - newton  # the sign S - P_T0 has at u_mid
                else:
                    f_mid = excess(math.exp(u_mid))[0]
                if f_mid == 0.0:
                    u_low = u_high = u_mid
                    break
                if (f_mid < 0) == (f_low < 0):
                    u_low, f_low = u_mid, f_mid
                else:
                    u_high = u_mid
            root = math.exp(0.5 * (u_low + u_high))
    powers = launch_at(root)
    PowerSpectrum._check(powers)
    underflowed = int(np.count_nonzero(powers == 0.0))
    if underflowed:
        total_dbm = 10.0 * math.log10(total_launch_power / 1e-3)
        raise ConfigurationError(
            f"the launch for the shape-only target at {total_dbm:.6g} dBm total over "
            f"{length:g} km leaves {underflowed} of {powers.size} channels at 0 W "
            "(their powers underflow)"
        )
    return powers


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
    not reshape), renormalized and checked as a shape-only target would be.
    The returned launch is scaled to ``total_launch_power`` exactly.

    The recursion models no other amplifier, so a link with an in-line
    amplifier whose policy is not ``restore-total-power`` raises
    :class:`ConfigurationError` (the launch it would give misses the target
    shape by tens of dB).
    """
    _check_total_restoring(link)
    return _preemphasis_multispan(target, link, total_launch_power, order)


def _check_total_restoring(link: LinkSpec) -> None:
    """Reject a link whose in-line amplifiers do not all restore the span-input total."""
    for k, amp in enumerate(link.amplifiers, start=1):
        if amp.gain_policy != "restore-total-power":
            raise ConfigurationError(
                "multi-span pre-emphasis models restore-total-power amplifiers only; "
                f"the amplifier at boundary {k} (after span {k}) is {amp.gain_policy!r}"
            )


# perfbench counts OSNR iterations as calls of this name, its leading underscore dropped
def _preemphasis_multispan(
    target: TargetSpectrum, link: LinkSpec, total_launch_power: float, order: int
) -> PowerSpectrum:
    """:func:`preemphasis_multispan` on any link, its amplifier policies unchecked."""
    if not target.normalized:
        raise ConfigurationError(
            "multi-span pre-emphasis targets a shape; absolute output powers "
            "cannot be realized under per-span total-power restoration"
        )
    _check_launch_total(total_launch_power)
    shape = target.shape()
    for constants in reversed(_link_constants(target.grid, link.spans, order)):
        # the unit-sum shape of TargetSpectrum(grid, shape, normalized=True)
        TargetSpectrum._check(shape)
        values = shape / shape.mean()
        launch = _invert_shape(values / values.sum(), constants, total_launch_power)
        shape = launch / launch.sum()
    return PowerSpectrum(target.grid, launch * (total_launch_power / launch.sum()), z=0.0)
