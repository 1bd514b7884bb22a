"""Multi-span links with in-line amplifiers, for the closed form and the oracle.

The worst-case amplification model: each in-line amplifier applies one scalar
gain restoring the total power to its span-input value, so spectral tilt is
never equalized and accumulates span over span.  A per-band restoring policy
and a fixed-gain policy are available as variants.

A :class:`LinkSpec` numbers its fiber models at construction; each public call
of the closed form or the oracle takes every per-span quantity from one span
model per number (:func:`_link_models`), evaluating alpha(f_i) once per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .closedform import _closed_form_params, _profile, _span_constants, _SpanModel
from .errors import ConfigurationError
from .profiles import FiberSpec, PowerSpectrum

GAIN_POLICIES = ("restore-total-power", "restore-band-power", "fixed-gain")


@dataclass(frozen=True)
class AmplifierSpec:
    """One amplification stage between spans (or the receiver boost).

    ``noise_figure_db`` maps band names to noise figures; it is only needed
    when ASE is being tracked.
    """

    gain_policy: str = "restore-total-power"
    gain: float | None = None
    noise_figure_db: Mapping[str, float] | None = None

    def __post_init__(self):
        if self.gain_policy not in GAIN_POLICIES:
            raise ConfigurationError(
                f"unknown gain policy {self.gain_policy!r}; expected one of {GAIN_POLICIES}"
            )
        if self.gain_policy == "fixed-gain" and (
            self.gain is None or not 0 < self.gain < math.inf
        ):
            raise ConfigurationError("fixed-gain amplifier needs a finite, positive linear gain")
        if self.noise_figure_db is not None:
            for band, nf in self.noise_figure_db.items():
                if not 0 < nf < math.inf:
                    raise ConfigurationError(
                        f"noise figure for band {band!r} must be finite and > 0 dB"
                    )


@dataclass(frozen=True)
class LinkSpec:
    """Ordered spans plus the in-line amplifier at each span boundary.

    ``amplifiers`` has one entry per boundary (span count - 1).  When
    ``receiver_boost`` is set, a total-power-restoring stage is applied at
    the link end; it scales signal and accumulated noise identically and
    injects nothing.  ``models[k]``, derived at construction, numbers span
    k's fiber model: spans whose attenuation and Raman objects are the same
    share a number, and the numbers run 0, 1, ... in order of first use.
    """

    spans: tuple[FiberSpec, ...]
    amplifiers: tuple[AmplifierSpec, ...] = ()
    receiver_boost: bool = False
    models: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))
        object.__setattr__(self, "amplifiers", tuple(self.amplifiers))
        if not self.spans:
            raise ConfigurationError("link needs at least one span")
        if len(self.amplifiers) != len(self.spans) - 1:
            raise ConfigurationError(
                f"expected {len(self.spans) - 1} in-line amplifiers for "
                f"{len(self.spans)} spans, got {len(self.amplifiers)}"
            )
        # the first span of each span's model, then the rank of that span among the firsts
        first = [next(j for j, f in enumerate(self.spans)
                      if f.attenuation is s.attenuation and f.raman is s.raman) for s in self.spans]
        object.__setattr__(self, "models", tuple(sorted(set(first)).index(j) for j in first))

    @classmethod
    def uniform(
        cls,
        fiber: FiberSpec,
        n_spans: int,
        amplifier: AmplifierSpec | None = None,
        receiver_boost: bool = False,
    ) -> "LinkSpec":
        """Homogeneous link: the same fiber and amplifier repeated."""
        amp = amplifier if amplifier is not None else AmplifierSpec()
        return cls((fiber,) * n_spans, (amp,) * (n_spans - 1), receiver_boost)

    def span_starts(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum([s.length for s in self.spans])))


def span_gain(span_output: PowerSpectrum, total_launch_power: float) -> float:
    """Scalar gain restoring the span-input total power (the span's total loss)."""
    out = span_output.total_power
    if out <= 0:
        raise ConfigurationError("span output power must be positive")
    return total_launch_power / out


def boundary_gain(
    amplifier: AmplifierSpec,
    span_output: PowerSpectrum,
    restoring_gain: float,
    band_targets: np.ndarray | None,
):
    """Per-channel linear gain applied at a span boundary (scalar broadcast).

    ``restoring_gain`` is the output's :func:`span_gain`; ``band_targets``
    the launch's band totals, needed only by a restore-band-power amplifier.
    """
    if amplifier.gain_policy == "restore-total-power":
        return restoring_gain
    if amplifier.gain_policy == "fixed-gain":
        return amplifier.gain
    band_out = _band_totals(span_output)
    if np.any(band_out <= 0):
        raise ConfigurationError("band output power must be positive")
    return (band_targets / band_out)[span_output.grid.band_index]


def _band_totals(spectrum: PowerSpectrum) -> np.ndarray:
    """Total power (W) of each band of the spectrum's grid, in band order."""
    idx = spectrum.grid.band_index
    return np.array([spectrum.powers[idx == i].sum() for i in range(len(spectrum.grid.bands))])


@dataclass(frozen=True)
class MultiSpanResult:
    """Per-span model results, boundary gains and spectra for one link run.

    ``span_results[k]`` is span k's :class:`ClosedFormParams` (closed form)
    or ``PropagationResult`` (oracle: span-local ``z`` and one ``powers``
    row per z).  ``gains[k]`` is the gain applied after span k (scalar or
    per-channel array); ``final`` includes the receiver boost when the link
    has one, while ``span_outputs[-1]`` never does.
    """

    link: LinkSpec
    span_results: tuple
    gains: tuple
    span_inputs: tuple[PowerSpectrum, ...]
    span_outputs: tuple[PowerSpectrum, ...]
    final: PowerSpectrum
    boost_gain: float | None = None


def _propagate_link(
    launch: PowerSpectrum,
    link: LinkSpec,
    run_span: Callable[[PowerSpectrum, int], tuple],
) -> MultiSpanResult:
    """The span-and-amplifier loop shared by the closed form and the oracle.

    ``run_span(span_input, k)`` returns ``(span_result, span_output)`` for
    span k, whose input sits at z = 0.  A span output without power is a
    :class:`ConfigurationError` on every link, since neither its gain nor
    its dB values exist.
    """
    total_launch = launch.total_power
    band_targets = None
    if any(amp.gain_policy == "restore-band-power" for amp in link.amplifiers):
        band_targets = _band_totals(launch)
    span_results, gains, span_inputs, span_outputs = [], [], [], []
    current = PowerSpectrum(launch.grid, launch.powers, z=0.0)
    last = len(link.spans) - 1
    for k in range(last + 1):
        span_inputs.append(current)
        span_result, out = run_span(current, k)
        span_results.append(span_result)
        span_outputs.append(out)
        restoring = span_gain(out, total_launch)
        if k < last:
            gain = boundary_gain(link.amplifiers[k], out, restoring, band_targets)
            gains.append(gain)
            current = out.scaled(gain, z=0.0)
    final = span_outputs[-1]
    boost = None
    if link.receiver_boost:
        boost = restoring
        final = final.scaled(boost)
    return MultiSpanResult(
        link=link,
        span_results=tuple(span_results),
        gains=tuple(gains),
        span_inputs=tuple(span_inputs),
        span_outputs=tuple(span_outputs),
        final=final,
        boost_gain=boost,
    )


def _link_models(grid, link: LinkSpec) -> list[_SpanModel]:
    """One span model per fiber model of ``link`` on ``grid``, indexed by ``link.models``."""
    return [_SpanModel(grid, link.spans[k]) for k, m in enumerate(link.models)
            if m not in link.models[:k]]


def _closed_form_constants(grid, link: LinkSpec, order: int) -> list:
    """The closed form's constants of every span of ``link``, from :func:`_link_models`."""
    models = _link_models(grid, link)
    return [_span_constants(models[m], fiber.length, order)
            for fiber, m in zip(link.spans, link.models)]


def propagate_multispan_closedform(
    launch: PowerSpectrum, link: LinkSpec, order: int = 3
) -> MultiSpanResult:
    """Forward closed-form recursion over all spans of a link.

    Every span's shaping values, alpha0 and reference shaping value are
    re-derived from that span's own input spectrum, so heterogeneous spans
    and accumulated tilt are handled naturally.
    """
    return _propagate_closed_form(launch, link, _closed_form_constants(launch.grid, link, order))


def _propagate_closed_form(launch: PowerSpectrum, link: LinkSpec, constants) -> MultiSpanResult:
    """:func:`propagate_multispan_closedform` with the :func:`_closed_form_constants` given."""
    grid = launch.grid

    def closed_form_span(span_input: PowerSpectrum, k: int):
        c = constants[k]
        p = span_input.powers
        params = _closed_form_params(p, p.sum(), c)
        out = _profile(p, c.alpha_length, params.shaping, params.shaping_ref,
                       params.total_launch_power, params.alpha0, c.model.fit.slope, c.length)
        return params, PowerSpectrum(grid, out, z=c.length)

    return _propagate_link(launch, link, closed_form_span)
