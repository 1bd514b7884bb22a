import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isrsprop import (
    AmplifierSpec,
    AttenuationProfile,
    Band,
    ConfigurationError,
    FiberSpec,
    LinkSpec,
    PowerSpectrum,
    RamanGainModel,
    TargetSpectrum,
    build_channel_grid,
    closedform_params_from_output,
    derive_params,
    integrate_span,
    power_profile,
    preemphasis_multispan,
    preemphasis_single_span,
    propagate_link_numerical,
    target_osnr,
    total_attenuation_coefficient,
)
from isrsprop.inverse import _launch_from_output
from isrsprop.profiles import attenuation_at

from conftest import constant_alpha_fiber, raman_free_fiber, to_db


def inversion_terms(params, slope):
    """The shape-fixed exponent parts ``(alpha_i L, slope (G_ref - G_i))`` of ``params``."""
    return params.channel_attenuation * params.length, slope * (params.shaping_ref - params.shaping)


class TestParamsFromOutput:
    def test_constant_alpha_recovered_exactly(self, clu_grid):
        fiber = constant_alpha_fiber(0.2, 100.0)
        rng = np.random.default_rng(5)
        output = PowerSpectrum(clu_grid, rng.uniform(1e-6, 1e-4, clu_grid.n_channels), z=100.0)
        params = closedform_params_from_output(output, fiber, 3)
        assert params.alpha0 == pytest.approx(0.2 * np.log(10.0) / 10.0, rel=1e-12)

    def test_flat_output_narrow_band_reference_is_mean_shaping(self, c_grid):
        fiber = constant_alpha_fiber(0.2, 100.0)
        output = PowerSpectrum(c_grid, np.full(c_grid.n_channels, 1e-5), z=100.0)
        params = closedform_params_from_output(output, fiber, 3)
        assert params.shaping_ref == pytest.approx(params.shaping.mean(), rel=1e-12)

    def test_output_side_alpha0_consistent_with_input_side(self, clu_launch, default_fiber_100):
        # propagate numerically, re-estimate alpha0 from the received spectrum
        oracle_out = integrate_span(clu_launch, default_fiber_100).final
        input_side = total_attenuation_coefficient(
            clu_launch, default_fiber_100.attenuation, 3
        )
        output_side = closedform_params_from_output(oracle_out, default_fiber_100, 3).alpha0
        assert output_side == pytest.approx(input_side, rel=0.02)

    def test_zero_output_rejected(self, c_grid, default_fiber_100):
        output = PowerSpectrum(c_grid, np.zeros(c_grid.n_channels), z=100.0)
        with pytest.raises(ConfigurationError, match="positive"):
            closedform_params_from_output(output, fiber=default_fiber_100, order=3)


class TestSingleSpanAbsolute:
    def test_raman_free_inversion_is_exact(self, clu_grid):
        fiber = raman_free_fiber(100.0)
        target = TargetSpectrum.absolute_dbm(clu_grid, np.full(clu_grid.n_channels, -10.0))
        launch = preemphasis_single_span(target, fiber, 3)
        alpha = attenuation_at(fiber.attenuation, clu_grid.frequencies)
        assert np.allclose(launch.powers, target.values * np.exp(alpha * 100.0), rtol=1e-14)

    def test_flat_c_band_target_matches_direct_formula(self, c_grid):
        # narrow band + constant attenuation: every parameter has a simple
        # closed expression, so build the expected launch from scratch
        alpha_db, length, peak = 0.2, 100.0, 0.4
        fiber = constant_alpha_fiber(alpha_db, length, peak)
        alpha = 0.2 * np.log(10.0) / 10.0
        slope = peak / 14.0
        n = c_grid.n_channels
        target_w = np.full(n, 10.0 ** (-0.1) * 1e-3)
        total_out = target_w.sum()
        gamma = (np.arange(n) + 1) * c_grid.spacing        # narrow-band shaping
        gamma_ref = gamma.mean()                           # uniform weights
        decay = total_out * (np.exp(alpha * length) - 1.0) / alpha
        expected = target_w * np.exp(alpha * length - slope * (gamma_ref - gamma) * decay)

        target = TargetSpectrum.absolute_dbm(c_grid, np.full(n, -1.0))
        launch = preemphasis_single_span(target, fiber, 3)
        assert np.max(np.abs(launch.powers / expected - 1.0)) < 1e-9

    def test_inversion_algebra_is_exact(self, clu_grid, default_fiber_100):
        # propagate the launch with the same output-derived parameters used
        # by the inverse: that closes the loop to machine precision
        target = TargetSpectrum.absolute_dbm(clu_grid, np.full(clu_grid.n_channels, -12.0))
        launch = preemphasis_single_span(target, default_fiber_100, 3)
        output = PowerSpectrum(clu_grid, target.values, z=100.0)
        params = closedform_params_from_output(output, default_fiber_100, 3)
        back = _launch_from_output(
            target.values,
            inversion_terms(params, default_fiber_100.raman.slope),
            params.total_launch_power * params.effective_length,
        )
        assert np.allclose(back, launch.powers, rtol=1e-14)
        forward = launch.powers * np.exp(
            -params.channel_attenuation * 100.0
            + default_fiber_100.raman.slope
            * (params.shaping_ref - params.shaping)
            * params.total_launch_power
            * params.effective_length
        )
        assert np.max(np.abs(forward / target.values - 1.0)) < 1e-12

    def test_absolute_mode_rejects_total_power(self, c_grid, default_fiber_100):
        target = TargetSpectrum.absolute_dbm(c_grid, np.full(c_grid.n_channels, -10.0))
        with pytest.raises(ConfigurationError, match="drop total_launch_power"):
            preemphasis_single_span(target, default_fiber_100, 3, total_launch_power=1e-2)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-20.0, max_value=0.0), min_size=2, max_size=40))
    def test_positivity(self, dbm):
        grid = build_channel_grid([Band("X", 190.0, 190.0 + 0.05 * len(dbm))], 0.05)
        fiber = constant_alpha_fiber(0.2, 80.0)
        target = TargetSpectrum.absolute_dbm(grid, np.asarray(dbm))
        launch = preemphasis_single_span(target, fiber, 3)
        assert np.all(launch.powers > 0)


class TestSingleSpanShapeMode:
    def test_launch_total_hits_constraint(self, clu_grid, default_fiber_100):
        total = 0.25
        target = TargetSpectrum.flat_shape(clu_grid)
        launch = preemphasis_single_span(target, default_fiber_100, 3, total_launch_power=total)
        assert launch.total_power == pytest.approx(total, rel=1e-9)

    def test_solved_output_total_monotone_in_input_total(self, clu_grid, default_fiber_100):
        target = TargetSpectrum.flat_shape(clu_grid)
        outs = []
        for total in (0.1, 0.2, 0.4):
            launch = preemphasis_single_span(
                target, default_fiber_100, 3, total_launch_power=total
            )
            params = derive_params(launch, default_fiber_100, 3)
            out = power_profile(launch, params, default_fiber_100.raman.slope, 100.0)
            outs.append(out.total_power)
        assert outs[0] < outs[1] < outs[2]

    def test_raman_free_shape_mode(self, clu_grid):
        fiber = raman_free_fiber(100.0)
        target = TargetSpectrum.flat_shape(clu_grid)
        launch = preemphasis_single_span(target, fiber, 3, total_launch_power=0.2)
        alpha = attenuation_at(fiber.attenuation, clu_grid.frequencies)
        # launch shape must be exp(alpha L) (flat target), scaled to the constraint
        expected = np.exp(alpha * 100.0)
        expected *= 0.2 / expected.sum()
        assert np.max(np.abs(launch.powers / expected - 1.0)) < 1e-9

    def test_shape_mode_needs_total(self, clu_grid, default_fiber_100):
        target = TargetSpectrum.flat_shape(clu_grid)
        with pytest.raises(ConfigurationError, match="total_launch_power"):
            preemphasis_single_span(target, default_fiber_100, 3)

    @pytest.mark.parametrize("total", [math.nan, math.inf, 0.0, -0.1])
    def test_shape_mode_rejects_a_non_finite_or_non_positive_total(
        self, clu_grid, default_fiber_50, total
    ):
        target = TargetSpectrum.flat_shape(clu_grid)
        link = LinkSpec.uniform(default_fiber_50, 2)
        with pytest.raises(ConfigurationError, match="positive, finite total_launch_power"):
            preemphasis_single_span(target, default_fiber_50, 3, total_launch_power=total)
        for solve in (preemphasis_multispan, target_osnr):
            with pytest.raises(ConfigurationError, match="positive, finite total_launch_power"):
                solve(target, link, total)

    def test_overflowing_bracket_end_stays_quiet(self, clu_grid):
        # at +6 dBm/ch behind a 1.0 dB/km loss edge the trial launch at the
        # bracket's upper end overflows to inf; that only orders the bracket,
        # so no overflow warning may reach the caller and the root is the same
        edge = AttenuationProfile.from_table([179.0, 184.0, 196.0], [1.0, 0.2, 0.2])
        fiber = FiberSpec(edge, RamanGainModel.triangular(peak=0.4), 100.0)
        target = TargetSpectrum.flat_shape(clu_grid)
        total = PowerSpectrum.flat_dbm(clu_grid, 6.0).total_power
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            allowed = preemphasis_single_span(target, fiber, 3, total_launch_power=total)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = preemphasis_single_span(target, fiber, 3, total_launch_power=total)
        assert np.array_equal(strict.powers, allowed.powers)
        assert np.all(np.isfinite(strict.powers))

    def test_round_trip_self_consistency_narrowband(self, c_grid, default_fiber_100):
        # within the coupling window the shaping values are shape-independent,
        # so the input/output parameter mismatch nearly vanishes
        target = TargetSpectrum.flat_shape(c_grid)
        total = PowerSpectrum.flat_dbm(c_grid, -1.0).total_power
        launch = preemphasis_single_span(target, default_fiber_100, 3, total_launch_power=total)
        params = derive_params(launch, default_fiber_100, 3)
        out = power_profile(launch, params, default_fiber_100.raman.slope, 100.0)
        dev = np.abs(to_db(out.powers / out.total_power * c_grid.n_channels))
        assert dev.max() < 0.01

    def test_round_trip_self_consistency_cl(self, cl_grid, default_fiber_100):
        target = TargetSpectrum.flat_shape(cl_grid)
        total = PowerSpectrum.flat_dbm(cl_grid, -1.0).total_power
        launch = preemphasis_single_span(target, default_fiber_100, 3, total_launch_power=total)
        params = derive_params(launch, default_fiber_100, 3)
        out = power_profile(launch, params, default_fiber_100.raman.slope, 100.0)
        dev = np.abs(to_db(out.powers / out.total_power * cl_grid.n_channels))
        assert dev.max() < 0.2  # measured 0.155: alpha0/reference weight mismatch

    def test_round_trip_self_consistency_clu(self, clu_grid, default_fiber_100):
        # beyond the coupling window the shaping values depend on the spectrum
        # shape, so inverting from the (flat) output and propagating with
        # launch-derived parameters leaves a measurable residual: 1.40 dB here
        target = TargetSpectrum.flat_shape(clu_grid)
        total = PowerSpectrum.flat_dbm(clu_grid, -1.0).total_power
        launch = preemphasis_single_span(target, default_fiber_100, 3, total_launch_power=total)
        params = derive_params(launch, default_fiber_100, 3)
        out = power_profile(launch, params, default_fiber_100.raman.slope, 100.0)
        dev = np.abs(to_db(out.powers / out.total_power * clu_grid.n_channels))
        assert dev.max() < 1.5


class TestMultiSpan:
    def test_single_span_reduction(self, clu_grid, default_fiber_100):
        target = TargetSpectrum.flat_shape(clu_grid)
        total = 0.26
        link = LinkSpec(spans=(default_fiber_100,), amplifiers=())
        a = preemphasis_multispan(target, link, total, 3)
        b = preemphasis_single_span(target, default_fiber_100, 3, total_launch_power=total)
        assert np.max(np.abs(a.powers / b.powers - 1.0)) < 1e-9

    def test_raman_free_constant_alpha_preserves_shape(self, c_grid):
        fiber = FiberSpec(
            AttenuationProfile.constant_db(0.2), RamanGainModel.triangular(slope=0.0), 50.0
        )
        link = LinkSpec.uniform(fiber, 4)
        rng = np.random.default_rng(9)
        shape = rng.uniform(0.5, 2.0, c_grid.n_channels)
        target = TargetSpectrum(c_grid, shape, normalized=True)
        launch = preemphasis_multispan(target, link, 0.05, 3)
        assert np.max(np.abs(launch.powers / launch.total_power - shape / shape.sum())) < 1e-12

    def test_absolute_target_rejected(self, clu_grid, default_fiber_50):
        link = LinkSpec.uniform(default_fiber_50, 3)
        target = TargetSpectrum.absolute_dbm(clu_grid, np.full(clu_grid.n_channels, -10.0))
        with pytest.raises(ConfigurationError, match="shape"):
            preemphasis_multispan(target, link, 0.26, 3)

    @pytest.mark.parametrize(
        "amplifier",
        [AmplifierSpec(gain_policy="restore-band-power"),
         AmplifierSpec(gain_policy="fixed-gain", gain=10 ** 1.1)],
        ids=["restore-band-power", "fixed-gain"],
    )
    def test_amplifiers_that_do_not_restore_the_total_are_rejected(
        self, clu_grid, default_fiber_50, amplifier
    ):
        # the recursion assumes every span input has the launch total; on 5 x 50 km
        # its launch missed the target shape by 25.3 dB (band power) and 40.4 dB (fixed gain)
        link = LinkSpec(spans=(default_fiber_50,) * 3, amplifiers=(AmplifierSpec(), amplifier))
        policy = amplifier.gain_policy
        with pytest.raises(ConfigurationError,
                           match=rf"boundary 2 \(after span 2\) is '{policy}'$"):
            preemphasis_multispan(TargetSpectrum.flat_shape(clu_grid), link, 0.26, 3)

    def test_five_span_oracle_round_trip(self, clu_grid, default_fiber_50):
        # per-span output-derived parameters accumulate mismatch against the
        # launch-derived forward direction; measured 3.1 dB peak at the band
        # edges after five spans, confined to ~2.7 dB over the interior
        target = TargetSpectrum.flat_shape(clu_grid)
        total = PowerSpectrum.flat_dbm(clu_grid, -1.0).total_power
        link = LinkSpec.uniform(default_fiber_50, 5)
        launch = preemphasis_multispan(target, link, total, 3)
        assert launch.total_power == pytest.approx(total, rel=1e-12)
        out = propagate_link_numerical(launch, link).final
        dev = np.abs(to_db(out.powers / out.total_power * clu_grid.n_channels))
        assert dev.max() < 3.5

    def test_five_span_oracle_round_trip_narrowband(self, c_grid, default_fiber_50):
        # same link, bandwidth inside the coupling window: tight agreement
        target = TargetSpectrum.flat_shape(c_grid)
        total = PowerSpectrum.flat_dbm(c_grid, -1.0).total_power
        link = LinkSpec.uniform(default_fiber_50, 5)
        launch = preemphasis_multispan(target, link, total, 3)
        out = propagate_link_numerical(launch, link).final
        dev = np.abs(to_db(out.powers / out.total_power * c_grid.n_channels))
        assert dev.max() < 0.05


class TestHoistedInversion:
    """The bisection's hoisted exponent terms reproduce the full-parameter formula bit for bit."""

    @staticmethod
    def full_params_launch(output, params, slope, output_total):
        # the inverted exponent with P_T(0) rebuilt for this output total
        total_launch = output_total * math.exp(params.alpha0 * params.length)
        decay = total_launch * params.effective_length
        exponent = (
            params.channel_attenuation * params.length
            - slope * (params.shaping_ref - params.shaping) * decay
        )
        return output * np.exp(exponent)

    def test_matches_full_params_formula(self, clu_grid, default_fiber_100, monkeypatch):
        ripple = 1.0 + 0.3 * np.sin(np.linspace(0.0, 5.0 * np.pi, clu_grid.n_channels))
        target = TargetSpectrum(clu_grid, ripple, normalized=True)
        shape = target.shape()
        fiber, total = default_fiber_100, 0.25
        params = closedform_params_from_output(
            PowerSpectrum(clu_grid, shape, z=fiber.length), fiber, 3
        )
        slope = fiber.raman.as_triangular().slope
        terms = inversion_terms(params, slope)
        growth = math.exp(params.alpha0 * fiber.length)

        # record the output total of the last evaluation, which is at the root;
        # the root-find reuses its buffers, so keep a copy
        outputs = []

        def spy(output_powers, terms, decay, out=None):
            outputs.append(output_powers.copy())
            return _launch_from_output(output_powers, terms, decay, out=out)

        monkeypatch.setattr("isrsprop.inverse._launch_from_output", spy)
        preemphasis_single_span(target, fiber, 3, total_launch_power=total)
        root = float(outputs[-1][0] / shape[0])

        alpha = params.channel_attenuation
        low = total * math.exp(-float(alpha.max()) * fiber.length)
        high = total * math.exp(-float(alpha.min()) * fiber.length)
        assert low < root < high
        for output_total in (low, high, root):
            output = shape * output_total
            decay = output_total * growth * params.effective_length
            assert np.array_equal(
                _launch_from_output(output, terms, decay),
                self.full_params_launch(output, params, slope, output_total),
            )

    def test_every_bisection_step_matches_full_params_formula(self, default_fiber_100, monkeypatch):
        # 64 channels and a flat shape: shape = 2**-6 exactly, so each step's
        # output total T is recovered exactly from the output it was called with
        grid = build_channel_grid([Band("X", 190.0, 193.2)], 0.05)
        assert grid.n_channels == 64
        target, fiber = TargetSpectrum.flat_shape(grid), default_fiber_100
        params = closedform_params_from_output(
            PowerSpectrum(grid, target.shape(), z=fiber.length), fiber, 3
        )
        slope = fiber.raman.as_triangular().slope
        steps = []

        def spy(output_powers, terms, decay, out=None):
            launch = _launch_from_output(output_powers, terms, decay, out=out)
            steps.append((output_powers.copy(), launch.copy()))
            return launch

        monkeypatch.setattr("isrsprop.inverse._launch_from_output", spy)
        preemphasis_single_span(target, fiber, 3, total_launch_power=0.05)
        # the two bracket ends and at least one Newton step
        assert len(steps) >= 3
        for output, launch in steps:
            output_total = output[0] * 64
            assert np.array_equal(output, target.shape() * output_total)
            assert np.array_equal(
                launch, self.full_params_launch(output, params, slope, output_total)
            )

    def test_raman_free_fiber_is_attenuation_only(self, clu_grid):
        fiber = raman_free_fiber(100.0)
        output = PowerSpectrum.flat_dbm(clu_grid, -10.0)
        params = closedform_params_from_output(output, fiber, 3)
        decay = params.total_launch_power * params.effective_length
        launch = _launch_from_output(output.powers, inversion_terms(params, 0.0), decay)
        alpha = attenuation_at(fiber.attenuation, clu_grid.frequencies)
        assert np.array_equal(launch, output.powers * np.exp(alpha * 100.0))


def bisection_reference(target, fiber, order, total_launch_power):
    """The shape-only root-find with fresh arrays at every evaluation.

    Returns the launch powers, the number of evaluations and the number of
    bracket expansions.
    """
    slope = fiber.raman.as_triangular().slope
    shape = target.shape()
    params = closedform_params_from_output(
        PowerSpectrum(target.grid, shape, z=fiber.length), fiber, order
    )
    alpha = params.channel_attenuation
    attenuation = alpha * params.length
    tilt = slope * (params.shaping_ref - params.shaping)
    growth = math.exp(params.alpha0 * fiber.length)
    evaluations = 0

    def launch_at(output_total):
        nonlocal evaluations
        evaluations += 1
        decay = output_total * growth * params.effective_length
        return shape * output_total * np.exp(attenuation - tilt * decay)

    def f(output_total):
        return float(launch_at(output_total).sum()) - total_launch_power

    low = total_launch_power * math.exp(-float(alpha.max()) * fiber.length)
    high = total_launch_power * math.exp(-float(alpha.min()) * fiber.length)
    f_low, f_high = f(low), f(high)
    expansions = 0
    while f_low > 0 and expansions < 60:
        low /= 4.0
        f_low = f(low)
        expansions += 1
    while f_high < 0 and expansions < 60:
        high *= 4.0
        f_high = f(high)
        expansions += 1
    if f_low == 0.0 or low == high:
        root = low
    elif f_high == 0.0:
        root = high
    else:
        assert (f_low < 0) != (f_high < 0)
        u_low, u_high = math.log(low), math.log(high)
        while u_high - u_low > 1e-12:
            u_mid = 0.5 * (u_low + u_high)
            f_mid = f(math.exp(u_mid))
            if f_mid == 0.0:
                u_low = u_high = u_mid
                break
            if (f_mid < 0) == (f_low < 0):
                u_low, f_low = u_mid, f_mid
            else:
                u_high = u_mid
        root = math.exp(0.5 * (u_low + u_high))
    return launch_at(root), evaluations, expansions


class TestRootFindBuffers:
    """The root-find in reused buffers repeats the allocating bisection bit for bit."""

    @staticmethod
    def solve_counting(monkeypatch, target, fiber, order, total):
        calls = []

        def spy(output_powers, terms, decay, out=None):
            calls.append(out is not None)
            return _launch_from_output(output_powers, terms, decay, out=out)

        monkeypatch.setattr("isrsprop.inverse._launch_from_output", spy)
        launch = preemphasis_single_span(target, fiber, order, total_launch_power=total)
        return launch, calls

    @pytest.mark.parametrize("plan", ["CLU", "SCLU"])
    @pytest.mark.parametrize("length", [50.0, 100.0])
    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_matches_allocating_bisection(self, monkeypatch, plan, length, order):
        grid = build_channel_grid(plan)
        x = np.linspace(0.0, 1.0, grid.n_channels)
        ripple = 1.0 + 0.25 * np.sin(2.0 * np.pi * 3.0 * x + 0.4) + 0.1 * np.cos(7.0 * x)
        target = TargetSpectrum(grid, ripple, normalized=True)
        fiber = FiberSpec(AttenuationProfile.parabolic_db(0.19, 193.5, 1e-4),
                          RamanGainModel.triangular(peak=0.4), length)
        total = grid.n_channels * 10.0 ** (-0.1) * 1e-3  # -1 dBm per channel
        launch, calls = self.solve_counting(monkeypatch, target, fiber, order, total)
        expected, evaluations, _ = bisection_reference(target, fiber, order, total)
        assert np.array_equal(launch.powers, expected)
        assert len(calls) < evaluations and all(calls)

    def test_matches_allocating_bisection_after_bracket_expansion(self, monkeypatch, clu_grid):
        # flat loss leaves a one-point bracket that the tilt's convexity excess
        # pushes off the root, so the low end is widened
        fiber = constant_alpha_fiber(0.2, 100.0)
        target = TargetSpectrum(clu_grid, np.linspace(0.5, 2.0, clu_grid.n_channels),
                                normalized=True)
        launch, calls = self.solve_counting(monkeypatch, target, fiber, 3, 1.0)
        expected, evaluations, expansions = bisection_reference(target, fiber, 3, 1.0)
        assert expansions > 0
        assert np.array_equal(launch.powers, expected)
        assert len(calls) < evaluations

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        plan=st.sampled_from(["CLU", "SCLU"]),
        length=st.floats(50.0, 150.0),
        order=st.integers(1, 6),
        tilted=st.booleans(),
        depth_db=st.floats(0.0, 3.0),
        dbm=st.floats(-5.0, 6.0),
    )
    def test_newton_guided_root_matches_bisection(self, plan, length, order, tilted, depth_db,
                                                  dbm):
        grid = build_channel_grid(plan)
        x = np.linspace(-1.0, 1.0, grid.n_channels)
        profile_db = depth_db * (x if tilted else np.sin(2.0 * np.pi * 2.5 * x + 0.3))
        target = TargetSpectrum(grid, 10.0 ** (0.1 * profile_db), normalized=True)
        fiber = FiberSpec(AttenuationProfile.parabolic_db(0.19, 193.5, 1e-4),
                          RamanGainModel.triangular(peak=0.4), length)
        total = grid.n_channels * 10.0 ** (0.1 * dbm) * 1e-3
        with pytest.MonkeyPatch.context() as monkeypatch:
            launch, calls = self.solve_counting(monkeypatch, target, fiber, order, total)
        expected, evaluations, _ = bisection_reference(target, fiber, order, total)
        assert np.array_equal(launch.powers, expected)
        assert len(calls) < evaluations

    def test_unproven_monotonicity_evaluates_every_midpoint(self, monkeypatch, clu_grid):
        # a steep low-frequency loss edge puts the launch weight on the
        # positive-tilt channels, so the monotonicity check fails at the lower
        # bracket end; the check reuses the bracket's evaluations, so the plain
        # bisection's count is kept exactly
        edge = AttenuationProfile.from_table([179.0, 184.0, 196.0], [0.6, 0.2, 0.2])
        fiber = FiberSpec(edge, RamanGainModel.triangular(peak=0.4), 100.0)
        target = TargetSpectrum.flat_shape(clu_grid)
        total = clu_grid.n_channels * 1e-3
        launch, calls = self.solve_counting(monkeypatch, target, fiber, 3, total)
        expected, evaluations, _ = bisection_reference(target, fiber, 3, total)
        assert np.array_equal(launch.powers, expected)
        assert len(calls) == evaluations
