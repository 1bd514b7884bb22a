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
row; :func:`integrate_span` is the one-row case that keeps every step as a
row of one (steps + 1, n) power matrix.  Each RK4 stage applies one
operator, ``net(P) = K P - alpha`` on the rows of P, to the whole batch at
once, and multiplies by P in place.  For a triangular gain without the
photon correction K is never formed: inside the window K[i, j] = slope
(f_j - f_i), so K p - alpha is a rank-2 sum and the loss, taken as one
(B, 3) @ (3, n) product, minus the pairs beyond the window, which sit in
two mirrored corner blocks (:func:`_triangular_coupling`).  A corner of
fewer than 128 rows is applied whole, which costs a stage about
12 B n + 4 B e e' flops for an e x e' corner.  A taller one (SCLU at
50 GHz and every finer SCL or SCLU grid) is cut into row panels of about
64 rows.  The columns beyond the window for every row of a panel are a
rank-2 block, and so is their mirror; both ride the rank-2 product as
four more vectors.  Only a staircase tile along the window's edge stays a
dense product, so a stage costs about 4 B n m + 4 B t flops for m = 3 + 4 k
vectors over k panels and t staircase entries: per launch 93 000 flops
against 195 000 with the corner whole on SCLU at 50 GHz, 0.69 M against
3.1 M at 12.5 GHz.  The panels' small products cost time of their own, so
a batch of under ``_PANEL_MIN_ENTRIES`` corner entries (B <= 4 on SCLU at
50 GHz) still takes the corner whole.  Every other model applies the dense
K of :func:`_coupling_matrix`.  Each operator takes alpha(f_i) from a span
model, built once per fiber model of a link.  A row's last bits depend on
which rows share its batch; the same batch always gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closedform import _SpanModel
from .errors import ConfigurationError, NumericalInstabilityError
from .multispan import LinkSpec, MultiSpanResult, _link_models, _propagate_link
from .profiles import (
    ChannelGrid,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    _check_count,
    _check_flag,
    _freeze,
    _raman_gain_in_place,
)

_NEGATIVE_FLOOR = -1e-15  # W; anything below this is treated as instability

_Net = Callable[[np.ndarray], np.ndarray]  # K P - alpha on the rows of a power matrix P

# Corner rows per panel of the triangular operator: a corner under two panels
# is applied whole.  A panelled corner is still applied whole to a batch whose
# corner entries (rows x corner size) number under _PANEL_MIN_ENTRIES, where
# the panels' extra small products cost more than they save (B <= 4 on SCLU
# at 50 GHz, B = 1 at 25 GHz).  scripts/op_timing.py times the operator.
_PANEL_ROWS = 64
_PANEL_MIN_ENTRIES = 200_000


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
        _check_count(self.steps_per_span, "steps_per_span")
        _check_flag(self.photon_correction, "photon_correction")
        if self.raman_model not in ("triangular", "tabulated"):
            raise ConfigurationError("raman_model must be 'triangular' or 'tabulated'")


@dataclass(frozen=True)
class PropagationResult:
    """A span's RK4 samples: read-only (steps + 1, n) ``powers`` (W), row i at ``z[i]`` km."""

    grid: ChannelGrid
    z: np.ndarray
    powers: np.ndarray

    @property
    def final(self) -> PowerSpectrum:
        return PowerSpectrum(self.grid, self.powers[-1], z=float(self.z[-1]))


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


def _triangular_coupling(f: np.ndarray, raman: RamanGainModel, alpha: np.ndarray) -> _Net:
    """``p -> K p - alpha`` on the rows of ``p``: a triangular gain without the photon correction.

    Inside the window K[i, j] = slope (f_j - f_i), so with g = f - mean(f),
    (K p)_i - alpha_i = s0 - g_i s1 - alpha_i, where (s0, s1) = p slope [g, 1]
    is one product with that (n, 2) matrix (padded to (n, 3) with zeros, so
    the third entry can be set to 1) and the result one (B, 3) @ (3, n)
    product of [s0, s1, 1] with the rows [1; -g; -alpha].  The pairs beyond
    the window, where K is 0, are then taken out again.  Since f ascends they
    all sit in the corner c of rows with f[-1] - f_i > window and columns with
    f_j - f[0] > window, and in its mirror -c.T (the two counts can differ by
    one).  c is slope (f_j - f_i) less the gain K takes on those float
    differences, so it keeps slope (f_j - f_i) where the model leaves a pair
    out and is +0.0 elsewhere: K's pairs are coupled and no others.

    Applied whole as two products with c and c.T, a stage costs about
    12 B n + 4 B e e' flops for a (B, n) batch and an e x e' corner, against
    2 B n^2 for the dense K.  A corner of ``2 * _PANEL_ROWS`` rows or more is
    also cut into row panels (:func:`_corner_panels`).  In panel
    (a, b, lo, hi) the corner's columns from hi on are beyond the window for
    every row, a rank-2 block (:func:`_rank_2_vectors`), and so is their
    mirror; both ride the rank-2 product, as ``p @ vectors.T``, a fixed swap
    and signed slope per inner product, then one product with ``vectors``.
    Only the staircase tiles ``c[a:b, lo:hi]``, views of c, stay dense
    products in both directions, so a stage costs about 4 B n m + 4 B t flops
    for m vectors and t staircase entries.  The panels' small products cost
    time of their own, so a batch of fewer than ``_PANEL_MIN_ENTRIES /
    c.size`` rows (a 1-D ``p`` is one row) still takes c whole.  Nothing
    n x n is held, and every array the operator keeps is read-only.
    """
    slope, window = raman.slope, raman.window
    g = f - f.mean()
    rows = int(np.count_nonzero(f[-1] - f > window))
    cols = int(np.count_nonzero(f - f[0] > window))
    d = np.subtract(f[None, f.size - cols:], f[:rows, None])  # f_j - f_i
    corner = slope * d - _raman_gain_in_place(raman, d)
    corner.flags.writeable = False
    off = f.size - cols  # the corner's first column in K
    panels = _corner_panels(corner) if rows >= 2 * _PANEL_ROWS else []
    vectors, swap, coef = _rank_2_vectors(g, slope, alpha, off, panels)
    weights = _freeze(slope * np.stack([g, np.ones_like(g), np.zeros_like(g)], axis=1))
    basis = vectors[:3]

    def whole(p: np.ndarray) -> np.ndarray:
        s = p @ weights
        s[..., 2] = 1.0
        kp = s @ basis
        if rows:
            kp[..., :rows] -= p[..., -cols:] @ corner.T
            kp[..., -cols:] += p[..., :rows] @ corner
        return kp

    if not panels:
        return whole
    whole_below = _PANEL_MIN_ENTRIES / corner.size * f.size  # in entries of p

    def net(p: np.ndarray) -> np.ndarray:
        if p.size < whole_below:
            return whole(p)
        s = (p @ vectors.T)[..., swap]
        s *= coef
        s[..., 2] = 1.0
        kp = s @ vectors
        for a, b, lo, hi in panels:
            tile = corner[a:b, lo:hi]
            kp[..., a:b] -= p[..., off + lo:off + hi] @ tile.T
            kp[..., off + lo:off + hi] += p[..., a:b] @ tile
        return kp

    return net


def _corner_panels(corner: np.ndarray) -> list[tuple[int, int, int, int]]:
    """``(a, b, lo, hi)`` per row panel [a, b) of about ``_PANEL_ROWS`` rows of the corner.

    ``rows // _PANEL_ROWS`` panels, two or more.  A row's pairs beyond the
    window are a suffix of the corner's columns, from ``first[i]`` on, and
    ``first`` does not fall down the rows: the float differences f_j - f_i
    grow along a row and shrink down a column.  So in panel [a, b) the
    columns below ``lo = first[a]`` are 0 for every row, those from
    ``hi = first[b - 1]`` on are beyond the window for every row, and only
    the staircase tile ``corner[a:b, lo:hi]`` mixes the two.
    """
    rows, cols = corner.shape
    count = rows // _PANEL_ROWS
    first = cols - np.count_nonzero(corner, axis=1)
    bounds = [rows * k // count for k in range(count + 1)]
    return [(a, b, int(first[a]), int(first[b - 1])) for a, b in zip(bounds, bounds[1:])]


def _rank_2_vectors(
    g: np.ndarray,
    slope: float,
    alpha: np.ndarray,
    off: int,
    panels: list[tuple[int, int, int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vectors, swap, coef)``: K p - alpha's rank-2 terms as inner products with held vectors.

    K's rank-2 part takes slope (sum g p - g_i sum p) onto row i, and the
    loss -alpha_i.  In panel (a, b, lo, hi) every pair in K's columns J from
    ``off + hi`` on is beyond the window for the panel's rows R = [a, b), so
    the corner there is slope (f_j - f_i) = slope (g_j - g_i): with the
    n-vectors 1 and g restricted to J and to R, the block takes
    slope (sum_J g p - g_i sum_J p) off row i in R, and its mirror adds
    slope (g_j sum_R p - sum_R g p) to row j in J.  So every term is an
    inner product of p with one held vector, times a signed slope, times
    another held vector.  ``vectors`` holds 1, -g and -alpha (the first
    three, :func:`_triangular_coupling`'s basis), then four per panel: 1 and
    g on J, then on R.  ``(p @ vectors.T)[..., swap] * coef`` moves each
    inner product onto the vector it scales; the loss row's entry is then
    set to 1.  m = 3 + 4 k vectors over k panels hold m n floats.
    """
    vectors = np.zeros((3 + 4 * len(panels), g.size))
    vectors[:3] = np.ones_like(g), -g, -alpha
    swap, coef = [1, 0, 2], [-slope, slope, 0.0]
    for k, (a, b, _, hi) in enumerate(panels):
        row = 3 + 4 * k
        vectors[row, off + hi:] = 1.0
        vectors[row + 1, off + hi:] = g[off + hi:]
        vectors[row + 2, a:b] = 1.0
        vectors[row + 3, a:b] = g[a:b]
        swap += [row + 3, row + 2, row + 1, row]
        coef += [-slope, slope, -slope, slope]
    vectors.flags.writeable = False
    return vectors, _freeze(swap, int), _freeze(coef)


def _span_operator(model: _SpanModel, options: SolverOptions) -> _Net:
    """``net(P) = K P - alpha`` on the rows of a power matrix P, for one span model.

    dP/dz is then ``net(P) * P``.  A triangular gain without the photon
    correction gets :func:`_triangular_coupling`, which folds the loss into
    its rank-2 product; every other model the dense :func:`_coupling_matrix`,
    applied as ``P @ K.T`` with alpha subtracted in place.  alpha(f_i) is the
    model's, and every array the operator keeps is read-only.  The span
    length plays no part.
    """
    alpha = model.alpha
    raman = _effective_raman(model.fiber, options)
    if raman.kind == "triangular" and not options.photon_correction:
        return _triangular_coupling(model.grid.frequencies, raman, alpha)
    k = _coupling_matrix(model.grid, model.fiber, options)
    k.flags.writeable = False
    kt = k.T

    def net(p: np.ndarray) -> np.ndarray:
        kp = p @ kt
        kp -= alpha
        return kp

    return net


def isrs_derivative(
    spectrum: PowerSpectrum, fiber: FiberSpec, options: SolverOptions = SolverOptions()
) -> np.ndarray:
    """Per-channel dP/dz in W/km at the spectrum's position."""
    p = spectrum.powers
    d = _span_operator(_SpanModel(spectrum.grid, fiber), options)(p)
    d *= p
    return d


def _rk4(p0: np.ndarray, net: _Net, h: np.ndarray, steps: int):
    """Classic fixed-step RK4 on the rows of a (B, n) power matrix.

    Row b advances by ``h[b, 0]`` km per step, so ``h`` is a (B, 1) column.
    Each stage is ``k = net(y); k *= y`` for every row at once (see
    :func:`_span_operator`).  A step sums k1 + 2 k2 + 2 k3 + k4 into k1's
    array and forms each stage's input in one reused buffer.  A row's last
    bits depend on the other rows of its batch; the same batch always gives
    the same bits.
    Yields ``(rows, p, unstable)`` after each step: the batch indices of the
    rows still integrating, their state, and the mask of those with a power
    below ``_NEGATIVE_FLOOR`` or not finite (an overflowing launch).
    Unstable rows leave the batch before the next step; the others carry on.
    """
    rows = np.arange(p0.shape[0])
    p = p0  # never written: every step makes a new state
    y = np.empty_like(p)
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(steps):
        total = net(p)
        total *= p  # k1
        np.multiply(half, total, out=y)
        y += p
        k = net(y)
        k *= y  # k2
        np.multiply(half, k, out=y)
        y += p
        k *= 2.0
        total += k
        k = net(y)
        k *= y  # k3
        np.multiply(h, k, out=y)
        y += p
        k *= 2.0
        total += k
        k = net(y)
        k *= y  # k4
        total += k
        total *= sixth
        total += p
        p = total
        unstable = ~((p.min(axis=1) >= _NEGATIVE_FLOOR) & (p.max(axis=1) < np.inf))
        yield rows, p, unstable
        if unstable.any():
            rows, p, h = rows[~unstable], p[~unstable], h[~unstable]
            y = np.empty_like(p)
            half, sixth = 0.5 * h, h / 6.0


def _instability_message(p: np.ndarray, z: float, steps: int) -> str:
    kind = "negative" if p.min() < _NEGATIVE_FLOOR else "non-finite"
    return f"{kind} channel power at z = {z:.3f} km; increase steps_per_span (currently {steps})"


def _integrate_span(
    launch: PowerSpectrum, length: float, net: _Net, steps: int
) -> PropagationResult:
    """:func:`integrate_span` with the grid and fiber model's :func:`_span_operator` given."""
    if launch.z != 0.0:
        raise ConfigurationError("span integration expects a launch spectrum at z = 0")
    h = length / steps
    z = np.arange(steps + 1) * h
    powers = np.empty((steps + 1, launch.grid.n_channels))
    powers[0] = launch.powers
    rk4 = _rk4(launch.powers[None, :], net, np.array([[h]]), steps)
    for i, (_, p, unstable) in enumerate(rk4, start=1):
        if unstable[0]:
            raise NumericalInstabilityError(_instability_message(p[0], z[i], steps))
        np.maximum(p[0], 0.0, out=powers[i])  # forgive sub-floor rounding only
    z.flags.writeable = powers.flags.writeable = False
    return PropagationResult(launch.grid, z, powers)


def integrate_span(
    launch: PowerSpectrum, fiber: FiberSpec, options: SolverOptions = SolverOptions()
) -> PropagationResult:
    """Integrate one span: the launch, then the powers after each of the ``steps`` RK4 steps.

    The batched integrator with one row; ``z = np.arange(steps + 1) * (L / steps)``.
    """
    net = _span_operator(_SpanModel(launch.grid, fiber), options)
    return _integrate_span(launch, fiber.length, net, options.steps_per_span)


def _integrate_batch(
    launch_powers: np.ndarray,
    lengths: Sequence[float],
    net: _Net,
    steps: int,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Output powers of B launches through spans that share one :func:`_span_operator`.

    Row b of the (B, n) ``launch_powers`` (W) goes through a span
    ``lengths[b]`` km long.  Returns the (B, n) output powers and one error
    string per row: empty, or the message :func:`integrate_span` raises for
    that launch, in which case the row's powers are NaN.  A row agrees with
    :func:`integrate_span`'s final powers to a few ulps; its last bits
    depend on which rows share its batch (see :func:`_rk4`).
    """
    h = np.asarray(lengths, dtype=float)[:, None] / steps
    out = np.full(launch_powers.shape, np.nan)
    errors = [""] * len(h)
    for i, (rows, p, unstable) in enumerate(_rk4(launch_powers, net, h, steps)):
        for row, b in zip(p[unstable], rows[unstable]):
            errors[b] = _instability_message(row, (i + 1) * h[b, 0], steps)
    out[rows[~unstable]] = np.maximum(p[~unstable], 0.0)  # the rows that finished
    return out, tuple(errors)


def propagate_link_numerical(
    launch: PowerSpectrum, link: LinkSpec, options: SolverOptions = SolverOptions()
) -> MultiSpanResult:
    """Per-span integration with the link's amplifier policy.

    ``span_results[k]`` is span k's :class:`PropagationResult`, its ``z`` in
    span-local km; span k starts at ``result.link.span_starts()[k]`` on the
    link.  The span operator ``K P - alpha`` is built once per fiber model of
    the link (``link.models``), before the first span runs.
    """
    operators = [_span_operator(model, options) for model in _link_models(launch.grid, link)]

    def oracle_span(span_input: PowerSpectrum, k: int):
        net = operators[link.models[k]]
        span = _integrate_span(span_input, link.spans[k].length, net, options.steps_per_span)
        return span, span.final

    return _propagate_link(launch, link, oracle_span)
