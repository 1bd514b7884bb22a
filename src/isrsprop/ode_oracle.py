"""Numerical integration of the coupled Raman power-transfer equations.

For channel i the power P_i(z) in W obeys

    dP_i/dz = -alpha(f_i) P_i
              + P_i * sum_{f_j > f_i} g(f_j - f_i) P_j
              - P_i * sum_{f_j < f_i} (f_i/f_j)^c g(f_i - f_j) P_j

with c = 1 when the photon-conversion correction is enabled and c = 0
otherwise.  The integrator is classic fixed-step fourth-order Runge-Kutta so
results are reproducible for a given step count; this module is the ground
truth the closed-form solution is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalInstabilityError
from .multispan import LinkSpec, MultiSpanResult, _propagate_link
from .profiles import (
    ChannelGrid,
    FiberSpec,
    PowerSpectrum,
    _freeze,
    attenuation_at,
    raman_gain_at,
)

_NEGATIVE_FLOOR = -1e-15  # W; anything below this is treated as instability


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-step solver knobs.

    ``raman_model`` selects which gain shape the integrator uses when the
    fiber carries a tabulated model: ``"triangular"`` coerces it to its
    triangular fit (the default, so oracle/closed-form discrepancies isolate
    the closed form's approximations), ``"tabulated"`` uses the table as-is.
    """

    steps_per_span: int = 50
    photon_correction: bool = False
    raman_model: str = "triangular"

    def __post_init__(self):
        if self.steps_per_span < 1:
            raise ConfigurationError("steps_per_span must be >= 1")
        if self.raman_model not in ("triangular", "tabulated"):
            raise ConfigurationError("raman_model must be 'triangular' or 'tabulated'")


@dataclass(frozen=True)
class PropagationResult:
    """Spectra sampled along z, plus the total power at each sample."""

    z_samples: np.ndarray
    spectra: tuple[PowerSpectrum, ...]
    total_power: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z_samples", _freeze(self.z_samples))
        object.__setattr__(self, "total_power", _freeze(self.total_power))

    @classmethod
    def from_spectra(cls, spectra: Sequence[PowerSpectrum]) -> "PropagationResult":
        spectra = tuple(spectra)
        z = np.array([s.z for s in spectra])
        tot = np.array([s.total_power for s in spectra])
        return cls(z_samples=z, spectra=spectra, total_power=tot)

    @property
    def final(self) -> PowerSpectrum:
        return self.spectra[-1]


def _effective_raman(fiber: FiberSpec, options: SolverOptions):
    if options.raman_model == "triangular":
        return fiber.raman.as_triangular()
    return fiber.raman


def _coupling_matrix(grid: ChannelGrid, fiber: FiberSpec, options: SolverOptions) -> np.ndarray:
    """Signed kernel K with dP = P * (K @ P) - alpha * P.

    K[i, j] = +g(f_j - f_i) for f_j above f_i, -(f_i/f_j)^c g(f_i - f_j) below.
    Without the photon correction K is antisymmetric, so lossless propagation
    conserves total power exactly.
    """
    f = grid.frequencies
    model = _effective_raman(fiber, options)
    df = f[None, :] - f[:, None]
    g = raman_gain_at(model, np.abs(df))
    k = np.where(df > 0, g, -g)
    np.fill_diagonal(k, 0.0)
    if options.photon_correction:
        ratio = np.where(df < 0, f[:, None] / f[None, :], 1.0)
        k = k * ratio
    return k


def isrs_derivative(
    spectrum: PowerSpectrum, fiber: FiberSpec, options: SolverOptions = SolverOptions()
) -> np.ndarray:
    """Per-channel dP/dz in W/km at the spectrum's position."""
    alpha = attenuation_at(fiber.attenuation, spectrum.grid.frequencies)
    k = _coupling_matrix(spectrum.grid, fiber, options)
    p = spectrum.powers
    return p * (k @ p) - alpha * p


def _rk4(p0: np.ndarray, deriv: Callable[[np.ndarray], np.ndarray], length: float, steps: int):
    """Classic RK4 with fixed step length/steps; yields the state after each step."""
    h = length / steps
    p = p0.copy()
    for _ in range(steps):
        k1 = deriv(p)
        k2 = deriv(p + 0.5 * h * k1)
        k3 = deriv(p + 0.5 * h * k2)
        k4 = deriv(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield p


def integrate_span(
    launch: PowerSpectrum, fiber: FiberSpec, options: SolverOptions = SolverOptions()
) -> PropagationResult:
    """Integrate one span, returning all intermediate spectra including z=0 and z=L."""
    if launch.z != 0.0:
        raise ConfigurationError("span integration expects a launch spectrum at z = 0")
    alpha = attenuation_at(fiber.attenuation, launch.grid.frequencies)
    k = _coupling_matrix(launch.grid, fiber, options)

    def deriv(p):
        return p * (k @ p) - alpha * p

    steps = options.steps_per_span
    h = fiber.length / steps
    spectra = [launch]
    for i, p in enumerate(_rk4(launch.powers, deriv, fiber.length, steps)):
        if p.min() < _NEGATIVE_FLOOR:
            raise NumericalInstabilityError(
                f"negative channel power at z = {(i + 1) * h:.3f} km; "
                f"increase steps_per_span (currently {steps})"
            )
        p = np.maximum(p, 0.0)  # forgive sub-floor rounding only
        spectra.append(PowerSpectrum(launch.grid, p, z=(i + 1) * h))
    return PropagationResult.from_spectra(spectra)


def propagate_link_numerical(
    launch: PowerSpectrum, link: LinkSpec, options: SolverOptions = SolverOptions()
) -> MultiSpanResult:
    """Per-span integration with the link's amplifier policy.

    ``span_results[k]`` is span k's :class:`PropagationResult` in span-local
    z; ``result.longitudinal([r.spectra for r in result.span_results])``
    lays the samples out along the link.
    """

    def oracle_span(span_input: PowerSpectrum, fiber: FiberSpec):
        span = integrate_span(span_input, fiber, options)
        return span, span.final

    return _propagate_link(launch, link, oracle_span)
