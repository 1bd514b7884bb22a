"""Numerical integration of the coupled Raman power-transfer equations.

For channel i the power P_i(z) in W obeys

    dP_i/dz = -alpha(f_i) P_i
              + P_i * sum_{f_j > f_i} g(f_j - f_i) P_j
              - P_i * sum_{f_j < f_i} (f_i/f_j)^c g(f_i - f_j) P_j

with c = 1 when the photon-conversion correction is enabled and c = 0
otherwise.  The integrator is classic fixed-step fourth-order Runge-Kutta so
results are reproducible for a given step count; this module is the ground
truth the closed-form solution is validated against.  It steps a (B, n)
matrix of launches that share a grid and fiber model, one span length per
row; :func:`integrate_span` is the one-row case that keeps every step.  Each
RK4 stage applies the coupling kernel K to the whole batch at once.  For a
triangular gain without the photon correction K is never formed: inside the
window K[i, j] = slope (f_j - f_i), so K p is a rank-2 sum minus the pairs
beyond the window, which sit in two mirrored corner blocks
(:func:`_triangular_coupling`).  Every other model applies the dense K of
:func:`_coupling_matrix`.  A row's last bits depend on which rows share its
batch; the same batch always gives the same bits.
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
    RamanGainModel,
    _freeze,
    _raman_gain_in_place,
    attenuation_at,
)

_NEGATIVE_FLOOR = -1e-15  # W; anything below this is treated as instability

_Coupling = Callable[[np.ndarray], np.ndarray]  # K applied to the rows of a power matrix


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
        if not isinstance(self.steps_per_span, (int, np.integer)) or self.steps_per_span < 1:
            raise ConfigurationError(
                f"steps_per_span must be an integer >= 1, got {self.steps_per_span!r}")
        if self.raman_model not in ("triangular", "tabulated"):
            raise ConfigurationError("raman_model must be 'triangular' or 'tabulated'")


@dataclass(frozen=True)
class PropagationResult:
    """Spectra sampled along z, each carrying its own z and total power."""

    spectra: tuple[PowerSpectrum, ...]

    @property
    def final(self) -> PowerSpectrum:
        return self.spectra[-1]


def _effective_raman(fiber: FiberSpec, options: SolverOptions):
    if options.raman_model == "triangular":
        return fiber.raman.as_triangular()
    return fiber.raman


def _coupling_matrix(grid: ChannelGrid, fiber: FiberSpec, options: SolverOptions) -> np.ndarray:
    """Signed kernel K with dP = P * (K @ P) - alpha * P, as a dense n x n matrix.

    K[i, j] = +g(f_j - f_i) for f_j above f_i, -(f_i/f_j)^c g(f_i - f_j) below.
    Without the photon correction K is antisymmetric, so lossless propagation
    conserves total power exactly.  The oracle applies this K for a tabulated
    model or with the photon correction; a triangular model without it goes
    through :func:`_triangular_coupling`, which couples the same pairs.

    K is built in place in one n x n buffer: the differences f_j - f_i, their
    magnitudes, the gain written over them by the function behind
    :func:`raman_gain_at`, then a sign flip where f_j < f_i.  The triangular
    build holds two n x n boolean masks besides K (f_j < f_i and the
    window's), 1.25 times K's bytes in all; the photon ratio and a tabulated
    model each add one float temporary.  Every entry and signed zero is the
    elementwise formula's: a pair outside the window is +0.0 above the
    diagonal and -0.0 below it.

    Window membership is still decided on the float differences,
    ``|f_j - f_i| <= window``, so rounding leaves out some pairs exactly one
    window apart on SCL and SCLU (29 of 218 on SCLU at 50 GHz).  Deciding it
    by channel distance would couple them, which changes those entries of K
    and the last bits of every oracle output on those grids.
    """
    f = grid.frequencies
    k = np.subtract(f[None, :], f[:, None])  # f_j - f_i
    below = k < 0
    _raman_gain_in_place(_effective_raman(fiber, options), np.abs(k, out=k))
    np.negative(k, out=k, where=below)
    np.fill_diagonal(k, 0.0)
    if options.photon_correction:
        np.multiply(k, f[:, None] / f[None, :], out=k, where=below)
    return k


def _triangular_coupling(f: np.ndarray, raman: RamanGainModel) -> _Coupling:
    """``p -> K p`` on the rows of ``p`` for a triangular gain without the photon correction.

    Inside the window K[i, j] = slope (f_j - f_i), so with g = f - mean(f),
    (K p)_i = slope (sum_j g_j p_j - g_i sum_j p_j): one product with the
    (n, 2) matrix slope [g, 1].  The pairs beyond the window, where K is 0,
    are then taken out again.  Since f ascends they all sit in the corner c
    of rows with f[-1] - f_i > window and columns with f_j - f[0] > window,
    and in its mirror -c.T (the two counts can differ by one).  c holds
    slope (f_j - f_i) where f_j - f_i > window and 0 elsewhere, decided by
    :func:`_coupling_matrix`'s own float test on ``f[None, :] - f[:, None]``,
    so K's pairs are coupled and no others.  A
    stage costs about 6 B n + 4 B e e' flops for a (B, n) batch and e x e'
    corner, against 2 B n^2 for the dense K, and nothing n x n is held.
    """
    slope, window = raman.slope, raman.window
    g = f - f.mean()
    weights = slope * np.stack([g, np.ones_like(g)], axis=1)
    rows = int(np.count_nonzero(f[-1] - f > window))
    cols = int(np.count_nonzero(f - f[0] > window))
    corner = np.subtract(f[None, f.size - cols:], f[:rows, None])  # f_j - f_i
    inside = corner <= window
    corner *= slope
    np.copyto(corner, 0.0, where=inside)

    def coupling(p: np.ndarray) -> np.ndarray:
        s = p @ weights
        kp = s[..., :1] - s[..., 1:] * g
        if rows:
            kp[..., :rows] -= p[..., -cols:] @ corner.T
            kp[..., -cols:] += p[..., :rows] @ corner
        return kp

    return coupling


def _span_operator(grid: ChannelGrid, fiber: FiberSpec, options: SolverOptions):
    """(K's action on the rows of a power matrix, read-only alpha) of a grid and fiber model.

    A triangular gain without the photon correction gets
    :func:`_triangular_coupling`; every other model the dense
    :func:`_coupling_matrix`.  The span length plays no part in either.
    """
    raman = _effective_raman(fiber, options)
    if raman.kind == "triangular" and not options.photon_correction:
        coupling = _triangular_coupling(grid.frequencies, raman)
    else:
        kt = _coupling_matrix(grid, fiber, options).T

        def coupling(p: np.ndarray) -> np.ndarray:
            return p @ kt

    return coupling, _freeze(attenuation_at(fiber.attenuation, grid.frequencies))


def isrs_derivative(
    spectrum: PowerSpectrum, fiber: FiberSpec, options: SolverOptions = SolverOptions()
) -> np.ndarray:
    """Per-channel dP/dz in W/km at the spectrum's position."""
    coupling, alpha = _span_operator(spectrum.grid, fiber, options)
    p = spectrum.powers
    return p * coupling(p) - alpha * p


def _rk4(p0: np.ndarray, coupling: _Coupling, alpha: np.ndarray, h: np.ndarray, steps: int):
    """Classic fixed-step RK4 on the rows of a (B, n) power matrix.

    Row b advances by ``h[b, 0]`` km per step, so ``h`` is a (B, 1) column.
    Each stage applies K to every row at once through ``coupling`` (see
    :func:`_span_operator`).  A row's last bits depend on the other rows of
    its batch; the same batch always gives the same bits.
    Yields ``(rows, p, unstable)`` after each step: the batch indices of the
    rows still integrating, their state, and the mask of those with a power
    below ``_NEGATIVE_FLOOR`` or not finite (an overflowing launch).
    Unstable rows leave the batch before the next step; the others carry on.
    """

    def deriv(p):
        return p * coupling(p) - alpha * p

    rows = np.arange(p0.shape[0])
    p = p0.copy()
    for _ in range(steps):
        k1 = deriv(p)
        k2 = deriv(p + 0.5 * h * k1)
        k3 = deriv(p + 0.5 * h * k2)
        k4 = deriv(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        unstable = ~((p.min(axis=1) >= _NEGATIVE_FLOOR) & (p.max(axis=1) < np.inf))
        yield rows, p, unstable
        if unstable.any():
            rows, p, h = rows[~unstable], p[~unstable], h[~unstable]


def _instability_message(p: np.ndarray, z: float, steps: int) -> str:
    kind = "negative" if p.min() < _NEGATIVE_FLOOR else "non-finite"
    return f"{kind} channel power at z = {z:.3f} km; increase steps_per_span (currently {steps})"


def _integrate_span(
    launch: PowerSpectrum, length: float, operator: tuple[_Coupling, np.ndarray], steps: int
) -> PropagationResult:
    """:func:`integrate_span` with the grid and fiber model's ``(coupling, alpha)`` given."""
    if launch.z != 0.0:
        raise ConfigurationError("span integration expects a launch spectrum at z = 0")
    coupling, alpha = operator
    h = length / steps
    spectra = [launch]
    for i, (_, p, unstable) in enumerate(
        _rk4(launch.powers[None, :], coupling, alpha, np.array([[h]]), steps)
    ):
        if unstable[0]:
            raise NumericalInstabilityError(_instability_message(p[0], (i + 1) * h, steps))
        # forgive sub-floor rounding only
        spectra.append(PowerSpectrum(launch.grid, np.maximum(p[0], 0.0), z=(i + 1) * h))
    return PropagationResult(tuple(spectra))


def integrate_span(
    launch: PowerSpectrum, fiber: FiberSpec, options: SolverOptions = SolverOptions()
) -> PropagationResult:
    """Integrate one span, returning all intermediate spectra including z=0 and z=L.

    The batched integrator with one row.
    """
    operator = _span_operator(launch.grid, fiber, options)
    return _integrate_span(launch, fiber.length, operator, options.steps_per_span)


def _integrate_batch(
    launch_powers: np.ndarray,
    lengths: Sequence[float],
    operator: tuple[_Coupling, np.ndarray],
    steps: int,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Output powers of B launches through spans that share one ``(coupling, alpha)`` pair.

    Row b of the (B, n) ``launch_powers`` (W) goes through a span
    ``lengths[b]`` km long.  Returns the (B, n) output powers and one error
    string per row: empty, or the message :func:`integrate_span` raises for
    that launch, in which case the row's powers are NaN.  A row agrees with
    :func:`integrate_span`'s final powers to a few ulps; its last bits
    depend on which rows share its batch (see :func:`_rk4`).
    """
    coupling, alpha = operator
    h = np.asarray(lengths, dtype=float)[:, None] / steps
    out = np.full(launch_powers.shape, np.nan)
    errors = [""] * len(h)
    for i, (rows, p, unstable) in enumerate(_rk4(launch_powers, coupling, alpha, h, steps)):
        for row, b in zip(p[unstable], rows[unstable]):
            errors[b] = _instability_message(row, (i + 1) * h[b, 0], steps)
    out[rows[~unstable]] = np.maximum(p[~unstable], 0.0)  # the rows that finished
    return out, tuple(errors)


def propagate_link_numerical(
    launch: PowerSpectrum, link: LinkSpec, options: SolverOptions = SolverOptions()
) -> MultiSpanResult:
    """Per-span integration with the link's amplifier policy.

    ``span_results[k]`` is span k's :class:`PropagationResult` in span-local
    z; ``result.longitudinal([r.spectra for r in result.span_results])``
    lays the samples out along the link.  The span operator (coupling and
    alpha) is built once per distinct (Raman model, attenuation) pair of the
    link's spans.
    """
    operators = {}

    def oracle_span(span_input: PowerSpectrum, k: int):
        fiber = link.spans[k]
        # identity keys: the link holds every model alive for the whole run
        key = (id(fiber.raman), id(fiber.attenuation))
        if key not in operators:
            operators[key] = _span_operator(span_input.grid, fiber, options)
        span = _integrate_span(span_input, fiber.length, operators[key], options.steps_per_span)
        return span, span.final

    return _propagate_link(launch, link, oracle_span)
