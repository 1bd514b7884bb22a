"""Launch-power pre-emphasis: invert the closed form for a target output.

The span parameters (shaping values, effective attenuation, tilt-free
reference) come from the output spectrum instead of the launch, through the
forward closed form's builder; inserting them into the inverted profile

    P_i(0) = P_i(L) * exp(alpha_i L - c_r (G_ref - G_i) P_T(L) (e^{a0 L} - 1) / a0)

yields the launch that realizes an arbitrary output.  Absolute targets are
inverted directly; shape-only targets with a constrained launch total are
solved for the implied output total by safeguarded Newton on its logarithm:
Newton steps kept inside a sign bracket, with a bisection step wherever
Newton would leave it or stall.

Each public call takes its per-span quantities from one span model per fiber
model (:func:`isrsprop.multispan._closed_form_constants`), and the inversion
runs on plain arrays: the multi-span recursion makes no target, spectrum or
parameter object per span, while every check those objects made still runs
on the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (
    ClosedFormParams,
    _closed_form_params,
    _span_constants,
    _span_params,
    _SpanModel,
)
from .errors import ConfigurationError, RootBracketError
from .multispan import LinkSpec, _closed_form_constants
from .profiles import ChannelGrid, FiberSpec, PowerSpectrum, _freeze, convert_units

# The shape-only root-find stops where |log(S / P_T0)| is at most this
_NEWTON_TOL = 2e-14
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
    constants = _span_constants(_SpanModel(output.grid, fiber), fiber.length, order)
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
    shaping = c.model.shaping(output_powers, total)
    _, ref, leff, growth = _span_params(output_powers, total, shaping, c, at=c.length)
    return total, growth, leff, (c.alpha_length, c.model.fit.slope * (ref - shaping))


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
    the root).

    The root-find is safeguarded Newton on log S (rtsafe, Numerical Recipes
    9.4).  In u, d log S/du = 1 - decay(u) <tilt>, where <tilt> is the
    launch-weighted mean of the inversion tilt.  Newton starts at the upper
    bracket end, and each evaluation replaces the bracket end of its sign.  A
    Newton step that would leave the open bracket, meets a slope <= 0 or is
    longer than half the step before it becomes a bisection step, so the loop
    ends without a step cap: at |log(S / P_T0)| <= 2e-14 or at a bracket
    1e-12 wide in u.  The launch is that of the last evaluation.

    Every evaluation writes the trial output and its launch into two buffers
    allocated once per call, through :func:`_launch_from_output` with
    ``out``, so the root-find allocates no arrays.
    """
    model = _SpanModel(target.grid, fiber)
    if not target.normalized:
        if total_launch_power is not None:
            raise ConfigurationError(
                "absolute targets fix the launch total; drop total_launch_power"
            )
        output = PowerSpectrum(target.grid, target.values, z=fiber.length)
        constants = _span_constants(model, fiber.length, order)
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
    constants = _span_constants(model, fiber.length, order)
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
    length = constants.length
    tilt = terms[1]
    output = np.empty_like(shape)
    launch = np.empty_like(shape)

    def decay_at(output_total: float) -> float:
        # P_T(0) first, then times L_eff: the order ClosedFormParams gives
        return output_total * growth * leff

    def excess(output_total: float) -> tuple[float, float]:
        # S - P_T0, by the pairwise sum .sum() runs without its Python-level
        # wrapper, and the tilt-weighted launch total sum(tilt_i P_i(0)); the
        # trial launch is left in ``launch``
        np.multiply(shape, output_total, output)
        p = _launch_from_output(output, terms, decay_at(output_total), out=launch)
        return float(np.add.reduce(p)) - total_launch_power, float(np.dot(tilt, p))

    def log_ratio(f: float) -> float:
        # log(S / P_T0), the Newton residual; -inf where S - P_T0 rounds to -P_T0
        # (every channel of the trial launch underflowed, say): a point below the root
        return math.log1p(f / total_launch_power) if f > -total_launch_power else -math.inf

    # a trial launch may overflow to inf at the upper bracket end: that only
    # tells the search which side it is on, so the root-find stays quiet
    with np.errstate(over="ignore"):
        low = total_launch_power * math.exp(-float(constants.model.alpha.max()) * length)
        high = total_launch_power * math.exp(-float(constants.model.alpha.min()) * length)
        f_low = excess(low)[0]
        f_high, tilted_high = excess(high)
        # The attenuation-only bracket can miss the root when the tilt-induced
        # convexity excess outweighs the attenuation spread; widen geometrically.
        expansions = 0
        while f_low > 0 and expansions < 60:
            low /= 4.0
            f_low = excess(low)[0]
            expansions += 1
        while f_high < 0 and expansions < 60:
            high *= 4.0
            f_high, tilted_high = excess(high)
            expansions += 1
        if f_low == 0.0 or low == high:
            excess(low)  # the root: its launch is the result
        elif f_high == 0.0:
            excess(high)
        elif (f_low < 0) == (f_high < 0):
            raise RootBracketError(
                "launch-total condition does not change sign over the "
                "scanned output-power bracket", low, high,
            )
        else:
            u_low, u_high = math.log(low), math.log(high)
            # Newton from the upper end; the first step has no step before it to halve
            u, f, tilted, step = u_high, f_high, tilted_high, math.inf
            residual = log_ratio(f)
            while True:
                newton = math.inf
                if residual > -math.inf:
                    slope = 1.0 - decay_at(math.exp(u)) * tilted / (f + total_launch_power)
                    newton = residual / slope if slope > 0.0 else math.inf
                if abs(newton) <= 0.5 * abs(step) and u_low < u - newton < u_high:
                    u_next = u - newton
                else:
                    u_next = 0.5 * (u_low + u_high)
                step, u = u - u_next, u_next
                f, tilted = excess(math.exp(u))
                if (f < 0) == (f_low < 0):
                    u_low = u
                else:
                    u_high = u
                residual = log_ratio(f)
                if abs(residual) <= _NEWTON_TOL or u_high - u_low <= 1e-12:
                    break
    # the buffer holds the launch of the last evaluation, at the root
    PowerSpectrum._check(launch)
    underflowed = int(np.count_nonzero(launch == 0.0))
    if underflowed:
        total_dbm = 10.0 * math.log10(total_launch_power / 1e-3)
        raise ConfigurationError(
            f"the launch for the shape-only target at {total_dbm:.6g} dBm total over "
            f"{length:g} km leaves {underflowed} of {launch.size} channels at 0 W "
            "(their powers underflow)"
        )
    return launch


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
    not reshape), scaled to unit sum and checked as a shape-only target's
    values are.
    The returned launch is scaled to ``total_launch_power`` exactly.

    The recursion models no other amplifier, so a link with an in-line
    amplifier whose policy is not ``restore-total-power`` raises
    :class:`ConfigurationError` (the launch it would give misses the target
    shape by tens of dB).
    """
    _check_total_restoring(link)
    if not target.normalized:
        raise ConfigurationError(
            "multi-span pre-emphasis targets a shape; absolute output powers "
            "cannot be realized under per-span total-power restoration"
        )
    _check_launch_total(total_launch_power)
    constants = _closed_form_constants(target.grid, link, order)
    return _preemphasis_multispan(target.grid, target.shape(), constants, total_launch_power)


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
    grid: ChannelGrid, shape: np.ndarray, constants: list, total_launch_power: float
) -> PowerSpectrum:
    """:func:`preemphasis_multispan` of the unit-sum output ``shape`` on any link.

    ``constants`` are the link's :func:`isrsprop.multispan._closed_form_constants`.  Neither
    the launch total nor the amplifiers are checked; each span's shape is, as a target's.
    """
    for span in reversed(constants):
        TargetSpectrum._check(shape)
        launch = _invert_shape(shape, span, total_launch_power)
        shape = launch / launch.sum()
    return PowerSpectrum(grid, launch * (total_launch_power / launch.sum()), z=0.0)
