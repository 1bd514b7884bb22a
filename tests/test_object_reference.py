"""The array kernels repeat the object-based closed-form code bit for bit.

The reference below is the closed form, its inverse and the OSNR loop
written spectrum by spectrum and parameter object by object: every span
builds its launch or output spectrum, derives a :class:`ClosedFormParams`
from it with freshly computed alpha, shaping gathers and alpha^n, and the
shape-only inverse runs its safeguarded Newton loop with a fresh array at
every evaluation.  The
library must give the same launches, gains, span inputs, OSNR and RMSE
history, compared with ``np.array_equal``.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from isrsprop import (
    AmplifierSpec,
    AttenuationProfile,
    ClosedFormParams,
    ConvergenceError,
    FiberSpec,
    LinkSpec,
    PowerSpectrum,
    RamanGainModel,
    TargetSpectrum,
    attenuation_at,
    build_channel_grid,
    preemphasis_multispan,
    propagate_multispan_closedform,
    target_osnr,
)
from isrsprop.profiles import PLANCK

NOISE_FIGURE_DB = {"S": 6.5, "C": 5.5, "L": 6.0, "U": 5.0}


def ref_shaping(powers, spacing, window):
    total = powers.sum()
    n = powers.size
    m, m_up = math.floor(window / spacing), math.ceil(window / spacing)
    j = np.arange(n)
    csum = np.concatenate(([0.0], np.cumsum(powers)))
    win_power = csum[np.minimum(j + m_up, n)] - csum[np.maximum(j - m_up + 1, 0)]
    upper = np.where(j + m < n, powers[np.minimum(j + m, n - 1)], 0.0)
    lower = np.where(j - m_up >= 0, powers[np.maximum(j - m_up, 0)], 0.0)
    beta = win_power - (window / spacing) * (upper + lower)
    return np.cumsum(beta) * spacing / total


def ref_shaping_ref(powers, shaping, alpha, alpha0, order, slope, z):
    total = powers.sum()
    weights = alpha**order * powers / (alpha0**order * total)
    leff_z = -math.expm1(-alpha0 * z) / alpha0
    scale = slope * total * leff_z
    if scale == 0.0:
        return float(np.sum(weights * shaping))
    exponent = (alpha0 - alpha) * z - slope * shaping * total * leff_z
    m = exponent.max()
    return -(m + math.log(np.sum(weights * np.exp(exponent - m)))) / scale


def ref_params(spectrum, fiber, order, at=0.0):
    """The span's parameters from a spectrum known at z = ``at``."""
    tri = fiber.raman.as_triangular()
    p = spectrum.powers
    total = spectrum.total_power
    shaping = ref_shaping(p, spectrum.grid.spacing, tri.window)
    alpha = attenuation_at(fiber.attenuation, spectrum.grid.frequencies)
    alpha0 = float((np.sum(alpha**order * p) / total) ** (1.0 / order))
    growth = math.exp(alpha0 * at)
    ref = ref_shaping_ref(p, shaping, alpha, alpha0, order, tri.slope, fiber.length - at)
    leff = -math.expm1(-alpha0 * fiber.length) / alpha0
    return ClosedFormParams(alpha0, order, shaping, ref, leff, total * growth, fiber.length, alpha)


def ref_forward(launch, link, order):
    """``(span_inputs, gains, final)`` of a restore-total-power link."""
    total_launch = launch.total_power
    current, inputs, gains = launch, [], []
    for k, fiber in enumerate(link.spans):
        current = PowerSpectrum(current.grid, current.powers, z=0.0)
        inputs.append(current)
        params = ref_params(current, fiber, order)
        slope = fiber.raman.as_triangular().slope
        decay = -math.expm1(-params.alpha0 * fiber.length) / params.alpha0
        exponent = (-params.channel_attenuation * fiber.length
                    + slope * (params.shaping_ref - params.shaping)
                    * params.total_launch_power * decay)
        out = PowerSpectrum(current.grid, current.powers * np.exp(exponent), z=fiber.length)
        if k < len(link.spans) - 1:
            gains.append(total_launch / out.total_power)
            current = out.scaled(gains[-1])
    if link.receiver_boost:
        out = out.scaled(total_launch / out.total_power)
    return inputs, gains, out


def ref_invert_shape(grid, shape, fiber, order, total_launch_power):
    """The shape-only inverse of one span by safeguarded Newton on log S, for a unit-sum shape."""
    slope = fiber.raman.as_triangular().slope
    params = ref_params(PowerSpectrum(grid, shape, z=fiber.length), fiber, order,
                        at=fiber.length)
    alpha = params.channel_attenuation
    attenuation = alpha * params.length
    tilt = slope * (params.shaping_ref - params.shaping)
    growth = math.exp(params.alpha0 * fiber.length)
    total = total_launch_power

    def decay_at(output_total):
        return output_total * growth * params.effective_length

    def launch_at(output_total):
        return shape * output_total * np.exp(attenuation - tilt * decay_at(output_total))

    def f(output_total):
        launch = launch_at(output_total)
        return float(launch.sum()) - total, float(np.dot(tilt, launch)), launch

    with np.errstate(over="ignore"):
        low = total * math.exp(-float(alpha.max()) * fiber.length)
        high = total * math.exp(-float(alpha.min()) * fiber.length)
        f_low, f_high = f(low)[0], f(high)
        while f_low > 0:
            low /= 4.0
            f_low = f(low)[0]
        while f_high[0] < 0:
            high *= 4.0
            f_high = f(high)
        u_low, u_high = math.log(low), math.log(high)
        u, (f_u, tilted, _), step = u_high, f_high, math.inf
        while True:
            residual = math.log1p(f_u / total)
            derivative = 1.0 - decay_at(math.exp(u)) * tilted / (f_u + total)
            newton = residual / derivative if derivative > 0.0 else math.inf
            if abs(newton) <= 0.5 * abs(step) and u_low < u - newton < u_high:
                u_next = u - newton
            else:
                u_next = 0.5 * (u_low + u_high)
            step, u = u - u_next, u_next
            f_u, tilted, launch = f(math.exp(u))
            if (f_u < 0) == (f_low < 0):
                u_low = u
            else:
                u_high = u
            if abs(math.log1p(f_u / total)) <= 2e-14 or u_high - u_low <= 1e-12:
                break
    return PowerSpectrum(grid, launch, z=0.0)


def ref_preemphasis(grid, shape, link, total_launch_power, order):
    """The link launch for a unit-sum target shape, inverted span by span from the last."""
    for fiber in reversed(link.spans):
        launch = ref_invert_shape(grid, shape, fiber, order, total_launch_power)
        shape = launch.powers / launch.total_power
    return launch.scaled(total_launch_power / launch.total_power)


def ref_target_osnr(target, link, total_launch_power, order, tolerance, max_iterations):
    """``(rmse_history, launch, osnr)`` of the OSNR loop; launch and osnr of the last iteration."""
    grid = target.grid
    goal = target.values
    shape = goal / goal.sum()
    history = []
    for _ in range(max_iterations):
        launch = ref_preemphasis(grid, shape, link, total_launch_power, order)
        inputs, gains, final = ref_forward(launch, link, order)
        noise = np.zeros(grid.n_channels)
        for k, gain in enumerate(gains):
            nf = np.array([10.0 ** (NOISE_FIGURE_DB[b] / 10.0) for b in grid.band_names()])
            g = np.broadcast_to(np.asarray(gain, dtype=float), (grid.n_channels,))
            injected = (PLANCK * (grid.frequencies * 1e12) * np.maximum(nf * (g - 1.0), 0.0)
                        * (grid.spacing * 1e12))
            noise += injected * (final.powers / inputs[k + 1].powers)
        osnr = final.powers / noise
        rmse = float(np.sqrt(np.mean((osnr / osnr.mean() - goal / goal.mean()) ** 2)))
        history.append(rmse)
        if rmse < tolerance:
            break
        shape = shape * (goal / osnr) ** 1.0
        shape /= shape.sum()
    return history, launch, osnr


def build_link(plan, lengths, receiver_boost):
    fiber = dict(attenuation=AttenuationProfile.parabolic_db(0.19, 193.5, 1e-4),
                 raman=RamanGainModel.triangular(peak=0.4))
    amp = AmplifierSpec(noise_figure_db=NOISE_FIGURE_DB)
    link = LinkSpec(tuple(FiberSpec(length=km, **fiber) for km in lengths),
                    (amp,) * (len(lengths) - 1), receiver_boost=receiver_boost)
    return build_channel_grid(plan), link


def rippled_target(grid, depth_db, phase):
    x = np.linspace(0.0, 1.0, grid.n_channels)
    ripple_db = depth_db * np.sin(2.0 * np.pi * 2.0 * x + phase)
    return TargetSpectrum(grid, 10.0 ** (ripple_db / 10.0), normalized=True)


# plain values, so a failing example shrinks fast and prints short; no explain phase,
# whose line tracing of these long runs costs minutes and hundreds of MB on a failure
PHASES = (Phase.explicit, Phase.generate, Phase.shrink)
EXAMPLE = dict(plan=st.sampled_from(["CLU", "SCLU"]),
               lengths=st.lists(st.floats(40.0, 120.0), min_size=2, max_size=5),
               receiver_boost=st.booleans(), order=st.integers(1, 6),
               depth_db=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=12, derandomize=True, deadline=None, phases=PHASES)
@given(**EXAMPLE)
def test_preemphasis_and_forward_match_the_object_code(plan, lengths, receiver_boost, order,
                                                       depth_db, phase):
    grid, link = build_link(plan, lengths, receiver_boost)
    target = rippled_target(grid, depth_db, phase)
    total = grid.n_channels * 10.0 ** (-0.1) * 1e-3  # -1 dBm per channel
    launch = preemphasis_multispan(target, link, total, order)
    expected = ref_preemphasis(grid, target.shape(), link, total, order)
    assert np.array_equal(launch.powers, expected.powers)
    result = propagate_multispan_closedform(launch, link, order)
    inputs, gains, final = ref_forward(launch, link, order)
    assert all(np.array_equal(a.powers, b.powers) for a, b in zip(result.span_inputs, inputs))
    assert all(np.array_equal(a, b) for a, b in zip(result.gains, gains))
    assert np.array_equal(result.final.powers, final.powers)


@settings(max_examples=10, derandomize=True, deadline=None, phases=PHASES)
@given(**EXAMPLE)
def test_osnr_targeting_matches_the_object_code(plan, lengths, receiver_boost, order,
                                                depth_db, phase):
    grid, link = build_link(plan, lengths, receiver_boost)
    target = rippled_target(grid, depth_db, phase)
    total = grid.n_channels * 10.0 ** (-0.1) * 1e-3
    # a loose tolerance: most examples converge within the cap, some oscillate and raise
    loop = dict(tolerance=3e-3, max_iterations=8)
    history, launch, osnr = ref_target_osnr(target, link, total, order, **loop)
    try:
        run = target_osnr(target, link, total, order=order, **loop)
    except ConvergenceError as exc:
        assert list(exc.history) == history
        return
    assert list(run.rmse_history) == history
    assert np.array_equal(run.launch.powers, launch.powers)
    assert np.array_equal(run.osnr, osnr)


@pytest.mark.parametrize("order", [1, 6])
def test_a_converged_run_matches_the_object_code(order):
    grid = build_channel_grid("CLU")
    fiber = FiberSpec(AttenuationProfile.parabolic_db(0.19, 193.5, 1e-4),
                      RamanGainModel.triangular(peak=0.4), 50.0)
    link = LinkSpec.uniform(fiber, 3, AmplifierSpec(noise_figure_db=NOISE_FIGURE_DB), True)
    target = rippled_target(grid, 0.5, 1.0)
    total = grid.n_channels * 10.0 ** (-0.1) * 1e-3
    run = target_osnr(target, link, total, order=order)
    history, launch, osnr = ref_target_osnr(target, link, total, order, 1e-5, 50)
    assert list(run.rmse_history) == history
    assert np.array_equal(run.launch.powers, launch.powers)
    assert np.array_equal(run.osnr, osnr)
