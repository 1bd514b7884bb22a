import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isrsprop import (
    AttenuationProfile,
    Band,
    ConfigurationError,
    FiberSpec,
    LinkSpec,
    PowerSpectrum,
    RamanGainModel,
    SolverOptions,
    TargetSpectrum,
    build_channel_grid,
    closedform_params_from_output,
    derive_params,
    integrate_span,
    power_profile,
    preemphasis_multispan,
    preemphasis_single_span,
    propagate_multispan_closedform,
    shaping_function,
    total_attenuation_coefficient,
)
from isrsprop.closedform import (
    _profile,
    _shaping_ref,
    _span_constants,
    _span_params,
    _SpanModel,
    power_profiles,
)
from isrsprop.profiles import attenuation_at, default_attenuation

from conftest import constant_alpha_fiber, to_db

WINDOW = 15.5


def shaping_quadrature_oracle(grid, powers, window, refine=10):
    """Trapezoidal integration of the continuum shaping integrand on a finer grid.

    Treats the channel powers as a staircase PSD S(f) = P_j / B_s.  The
    windowed power uses the staircase's exact running integral; the edge
    terms sample S pointwise.  Completely independent of the channel-sum
    implementation under test.
    """
    bs = grid.spacing
    f_min, f_max = grid.f_min, grid.f_max
    total = powers.sum()
    cum = np.concatenate(([0.0], np.cumsum(powers)))  # integral of S up to bin edges

    def integral_to(x):
        x = np.clip(x, f_min, f_max)
        pos = (x - f_min) / bs
        j = np.minimum(np.floor(pos).astype(int), grid.n_channels - 1)
        return cum[j] + powers[j] * (pos - j)

    def psd_at(x):
        out = np.zeros_like(x)
        inside = (x >= f_min) & (x < f_max)
        j = np.floor((x[inside] - f_min) / bs).astype(int)
        out[inside] = powers[np.clip(j, 0, grid.n_channels - 1)] / bs
        return out

    nodes = f_min + np.arange(grid.n_channels * refine + 1) * (bs / refine)
    win_power = integral_to(nodes + window) - integral_to(nodes - window)
    integrand = win_power - window * (psd_at(nodes + window) + psd_at(nodes - window))
    # cumulative trapezoid up to each node, then pick the channel nodes
    steps = 0.5 * (integrand[1:] + integrand[:-1]) * (bs / refine)
    cum_gamma = np.concatenate(([0.0], np.cumsum(steps))) / total
    channel_nodes = refine // 2 + refine * np.arange(grid.n_channels)
    return cum_gamma[channel_nodes]


class TestShapingFunction:
    def test_narrow_band_reduces_to_frequency_offset(self, c_grid):
        # bandwidth below the window: shaping is the offset from the band edge
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        gamma = shaping_function(launch, WINDOW)
        offset = c_grid.frequencies - c_grid.f_min
        assert np.max(np.abs(gamma - offset)) <= c_grid.spacing

    def test_narrow_band_shape_independent(self, c_grid):
        rng = np.random.default_rng(3)
        launch = PowerSpectrum(c_grid, rng.uniform(1e-4, 2e-3, c_grid.n_channels))
        gamma = shaping_function(launch, WINDOW)
        flat = shaping_function(PowerSpectrum.flat_dbm(c_grid, -1.0), WINDOW)
        assert np.allclose(gamma, flat, atol=1e-12)

    def test_single_channel(self):
        grid = build_channel_grid([Band("X", 193.0, 193.05)], 0.05)
        launch = PowerSpectrum(grid, np.array([5e-4]))
        assert shaping_function(launch, WINDOW)[0] == pytest.approx(0.05)

    def test_matches_fine_grid_quadrature_on_flat_clu(self, clu_grid):
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        gamma = shaping_function(launch, WINDOW)
        oracle = shaping_quadrature_oracle(clu_grid, launch.powers, WINDOW)
        span = np.abs(oracle).max()
        assert np.max(np.abs(gamma - oracle)) / span < 0.01

    def test_matches_fine_grid_quadrature_on_tilted_clu(self, clu_grid):
        tilt = np.linspace(-1.5, 1.5, clu_grid.n_channels)  # +-1.5 dB ramp
        powers = 10.0 ** ((-1.0 + tilt) / 10.0) * 1e-3
        launch = PowerSpectrum(clu_grid, powers)
        gamma = shaping_function(launch, WINDOW)
        oracle = shaping_quadrature_oracle(clu_grid, launch.powers, WINDOW)
        span = np.abs(oracle).max()
        assert np.max(np.abs(gamma - oracle)) / span < 0.01

    def test_translation_covariance(self, c_grid):
        rng = np.random.default_rng(11)
        powers = rng.uniform(1e-4, 2e-3, c_grid.n_channels)
        shifted_grid = build_channel_grid(
            [Band("C", 191.70 + 3.0, 195.75 + 3.0)], c_grid.spacing
        )
        g1 = shaping_function(PowerSpectrum(c_grid, powers), WINDOW)
        g2 = shaping_function(PowerSpectrum(shifted_grid, powers), WINDOW)
        assert np.allclose(g1 - g1[0], g2 - g2[0], atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1e-2), min_size=2, max_size=60))
    def test_non_decreasing_within_window(self, powers):
        # any positive spectrum narrower than the window
        powers = np.asarray(powers)
        grid = build_channel_grid([Band("X", 190.0, 190.0 + 0.05 * len(powers))], 0.05)
        gamma = shaping_function(PowerSpectrum(grid, powers), WINDOW)
        assert np.all(np.diff(gamma) > 0)

    def test_non_decreasing_flat_wideband(self, clu_grid):
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        assert np.all(np.diff(shaping_function(launch, WINDOW)) >= 0)

    def test_zero_total_power_rejected(self, c_grid):
        launch = PowerSpectrum(c_grid, np.zeros(c_grid.n_channels))
        with pytest.raises(ConfigurationError, match="positive total power"):
            shaping_function(launch, WINDOW)


class TestTotalAttenuationCoefficient:
    def test_constant_profile_any_order(self, clu_launch):
        profile = AttenuationProfile.constant(0.05)
        for n in (1, 3, 6):
            assert total_attenuation_coefficient(clu_launch, profile, n) == pytest.approx(0.05)

    @staticmethod
    def _two_channel_case():
        grid = build_channel_grid([Band("X", 190.0, 190.1)], 0.05)
        # table nodes on the channel centers so alpha is exactly {0.04, 0.06}
        profile = AttenuationProfile.from_table(
            grid.frequencies, [0.04 * 10 / math.log(10), 0.06 * 10 / math.log(10)]
        )
        launch = PowerSpectrum(grid, np.array([1e-3, 1e-3]))
        return grid, profile, launch

    def test_two_channel_arithmetic_mean(self):
        grid, profile, launch = self._two_channel_case()
        alpha = attenuation_at(profile, grid.frequencies)
        assert alpha[0] == pytest.approx(0.04, rel=1e-9)
        assert total_attenuation_coefficient(launch, profile, 1) == pytest.approx(0.05, rel=1e-9)

    def test_two_channel_cubic_mean(self):
        _, profile, launch = self._two_channel_case()
        expected = ((0.04**3 + 0.06**3) / 2.0) ** (1.0 / 3.0)
        assert total_attenuation_coefficient(launch, profile, 3) == pytest.approx(expected, rel=1e-9)

    def test_order_zero_rejected(self, clu_launch):
        with pytest.raises(ConfigurationError, match="positive integer"):
            total_attenuation_coefficient(clu_launch, AttenuationProfile.constant(0.05), 0)

    def test_an_order_whose_mean_underflows_is_rejected(self, clu_launch, default_fiber_50):
        # alpha_i^250 underflows (alpha is about 0.045 1/km), so alpha0 would be 0
        # and the effective length a division by it
        link = LinkSpec.uniform(default_fiber_50, 2)
        paths = [
            lambda order: total_attenuation_coefficient(clu_launch, default_fiber_50.attenuation,
                                                        order),
            lambda order: derive_params(clu_launch, default_fiber_50, order),
            lambda order: closedform_params_from_output(clu_launch, default_fiber_50, order),
            lambda order: propagate_multispan_closedform(clu_launch, link, order),
        ]
        for path in paths:
            assert path(200) is not None
            with pytest.raises(ConfigurationError, match="^approximation order 250 is too high"):
                path(250)

    @pytest.mark.parametrize("order", [2.5, 3.0, math.nan, 0, -1, True, "3"])
    def test_every_closed_form_path_rejects_an_order_that_is_not_an_integer_from_1(
            self, clu_launch, default_fiber_50, order):
        # 2.5 used to pass silently, and NaN failed with "closed form needs at
        # least one channel that carries power"
        grid = clu_launch.grid
        shape = TargetSpectrum.flat_shape(grid)
        link = LinkSpec.uniform(default_fiber_50, 2)
        paths = [
            lambda: total_attenuation_coefficient(clu_launch, default_fiber_50.attenuation,
                                                  order),
            lambda: derive_params(clu_launch, default_fiber_50, order),
            lambda: closedform_params_from_output(clu_launch, default_fiber_50, order),
            lambda: propagate_multispan_closedform(clu_launch, link, order),
            lambda: preemphasis_single_span(shape, default_fiber_50, order, 0.05),
            lambda: preemphasis_multispan(shape, link, 0.05, order),
        ]
        for path in paths:
            with pytest.raises(ConfigurationError, match=(
                    rf"^approximation order must be a positive integer, got {order!r}$")):
                path()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-5, max_value=1e-2), min_size=3, max_size=40),
        st.floats(min_value=1e-5, max_value=8e-4),
    )
    def test_power_mean_monotone_in_order(self, powers, curvature):
        powers = np.asarray(powers)
        grid = build_channel_grid([Band("X", 185.0, 185.0 + 0.05 * len(powers))], 0.05)
        profile = AttenuationProfile.parabolic(0.04, 185.0, curvature)
        launch = PowerSpectrum(grid, powers)
        values = [total_attenuation_coefficient(launch, profile, n) for n in range(1, 7)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_bracketed_by_profile_extremes(self, clu_launch, default_fiber_100):
        alpha = attenuation_at(default_fiber_100.attenuation, clu_launch.grid.frequencies)
        a0 = total_attenuation_coefficient(clu_launch, default_fiber_100.attenuation, 3)
        assert alpha.min() <= a0 <= alpha.max()


class TestGammaRef:
    def test_small_power_limit_is_band_center(self, c_grid):
        fiber = constant_alpha_fiber(0.2, 100.0)
        launch = PowerSpectrum(c_grid, np.full(c_grid.n_channels, 1e-12))
        ref = derive_params(launch, fiber, 3).shaping_ref
        band_center_offset = c_grid.frequencies.mean() - c_grid.f_min
        assert ref == pytest.approx(band_center_offset, abs=c_grid.spacing)

    def test_small_slope_series_expansion(self, cl_grid, default_fiber_100):
        # Gamma_ref -> -ln(A)/eps + B with A, B from the weighted exponentials
        launch = PowerSpectrum.flat_dbm(cl_grid, -1.0)
        gamma = shaping_function(launch, WINDOW)
        order, length = 3, default_fiber_100.length
        alpha = attenuation_at(default_fiber_100.attenuation, cl_grid.frequencies)
        a0 = total_attenuation_coefficient(launch, default_fiber_100.attenuation, order)
        total = launch.total_power
        weights = alpha**order * launch.powers / (a0**order * total)
        boosted = weights * np.exp((a0 - alpha) * length)
        a_const = boosted.sum()
        b_const = float((boosted * gamma).sum() / a_const)

        def deviation(slope):
            leff = (1 - math.exp(-a0 * length)) / a0
            eps = slope * total * leff
            raman = RamanGainModel.triangular(slope=slope)
            fiber = FiberSpec(default_fiber_100.attenuation, raman, length)
            ref = derive_params(launch, fiber, order).shaping_ref
            return abs(ref - (-math.log(a_const) / eps + b_const))

        d1 = deviation(1e-3)
        d2 = deviation(5e-4)
        d3 = deviation(2.5e-4)
        # remainder beyond the two-term expansion shrinks linearly in slope
        assert d2 < 0.6 * d1
        assert d3 < 0.6 * d2
        assert d3 < 1e-2

    def test_zero_slope_is_the_weighted_mean_shaping_value(self, clu_grid, default_fiber_100):
        ripple = np.random.default_rng(7).uniform(-1.0, 1.0, clu_grid.n_channels)
        launch = PowerSpectrum(clu_grid, 1e-3 * 10.0 ** ((-1.0 + ripple) / 10.0))
        fiber = FiberSpec(default_fiber_100.attenuation, RamanGainModel.triangular(slope=0.0),
                          default_fiber_100.length)
        alpha = attenuation_at(fiber.attenuation, clu_grid.frequencies)
        gamma = shaping_function(launch, WINDOW)
        for order in (1, 3, 6):
            a0 = total_attenuation_coefficient(launch, fiber.attenuation, order)
            weights = alpha**order * launch.powers / (a0**order * launch.total_power)
            ref = derive_params(launch, fiber, order).shaping_ref
            assert ref == pytest.approx(float(np.sum(weights * gamma)), rel=1e-14)

    def test_balances_total_power_for_constant_alpha(self, clu_grid):
        # with constant attenuation the reference makes the closed-form total exact
        fiber = constant_alpha_fiber(0.2, 100.0)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        params = derive_params(launch, fiber, 3)
        out = power_profile(launch, params, fiber.raman.slope, fiber.length)
        assert out.total_power == pytest.approx(
            launch.total_power * math.exp(-params.alpha0 * fiber.length), rel=1e-12
        )


    def test_channels_without_power_take_no_part_in_the_balance(self):
        # channel 0 has the largest exponent (900) but no power; the others' terms
        # are e^-900 and e^-945 of it, so a maximum taken over it ends in log(0)
        shaping, weighted = np.array([-20.0, 0.0, 1.0]), np.array([0.0, 2.0, 1.0])
        ref = _shaping_ref(3.0, shaping, weighted, np.ones(3), 1.0, 3.0, -math.expm1(-50.0),
                           15.0, 50.0)
        scale = 15.0 * 3.0 * -math.expm1(-50.0)
        expected = -math.log(2.0 / 3.0 + math.exp(-scale) / 3.0) / scale
        assert ref == pytest.approx(expected, rel=1e-14)

    def test_no_channel_with_power_is_config_error(self):
        with pytest.raises(ConfigurationError, match="at least one channel that carries power"):
            _shaping_ref(3.0, np.array([-20.0, 0.0]), np.zeros(2), np.ones(2), 1.0, 3.0,
                         -math.expm1(-50.0), 15.0, 50.0)


class TestPowerProfile:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_channel_without_power_stays_at_zero_watts(self):
        # channel 0's exponent, about 900, overflows: 0 W times inf would be NaN
        powers = np.array([0.0, 1e-3])
        out = _profile(powers, np.array([5.0, 5.0]), np.array([-20.0, 0.0]), 0.0, 3.0, 1.0,
                       15.0, 50.0)
        assert out[0] == 0.0 and not np.signbit(out[0])
        assert out[1] == 1e-3 * np.exp(-5.0)

    def test_identity_at_input(self, clu_launch, default_fiber_100):
        params = derive_params(clu_launch, default_fiber_100, 3)
        out = power_profile(clu_launch, params, default_fiber_100.raman.slope, 0.0)
        assert np.array_equal(out.powers, clu_launch.powers)

    def test_raman_free_path_is_pure_attenuation(self, clu_launch, default_fiber_100):
        # the tilt term is exactly zero, so the general exponent is -alpha z bit for bit
        fiber = FiberSpec(
            default_fiber_100.attenuation, RamanGainModel.triangular(slope=0.0), 100.0
        )
        alpha = attenuation_at(fiber.attenuation, clu_launch.grid.frequencies)
        for order in (1, 3, 6):
            params = derive_params(clu_launch, fiber, order)
            for z, refresh in itertools.product((0.0, 13.7, 70.0, 100.0), (False, True)):
                out = power_profile(clu_launch, params, 0.0, z, refresh_reference=refresh)
                assert np.array_equal(out.powers, clu_launch.powers * np.exp(-alpha * z))

    def test_outside_span_rejected(self, clu_launch, default_fiber_100):
        params = derive_params(clu_launch, default_fiber_100, 3)
        with pytest.raises(ConfigurationError, match="outside the span"):
            power_profile(clu_launch, params, 0.028, 101.0)
        with pytest.raises(ConfigurationError, match=r"^z = -1.0 km outside the span"):
            power_profiles(clu_launch, params, 0.028, [0.0, 50.0, -1.0])

    @pytest.mark.parametrize("plan", ["C", "CLU", "SCLU"])
    @pytest.mark.parametrize("order", [1, 3])
    def test_z_vector_profile_is_the_per_z_profile(self, plan, order):
        # one row per z, each the scalar profile at its z: bit for bit with the
        # end-of-span reference, to 1e-13 with the reference re-balanced per z;
        # a channel at 0 W stays at 0 W in every row
        grid = build_channel_grid(plan)
        rng = np.random.default_rng(order)
        powers = 10.0 ** rng.uniform(-5.0, -2.5, grid.n_channels)
        powers[7] = 0.0
        launch = PowerSpectrum(grid, powers)
        fiber = FiberSpec(default_attenuation(), RamanGainModel.triangular(peak=0.4), 80.0)
        params = derive_params(launch, fiber, order)
        slope = fiber.raman.as_triangular().slope
        z = np.linspace(0.0, 80.0, 51)
        for refresh in (False, True):
            rows = power_profiles(launch, params, slope, z, refresh)
            assert rows.shape == (51, grid.n_channels)
            expected = np.array([power_profile(launch, params, slope, float(at), refresh).powers
                                 for at in z])
            if refresh:
                np.testing.assert_allclose(rows, expected, rtol=1e-13, atol=0.0)
            else:
                assert np.array_equal(rows, expected)
            assert not rows[:, 7].any()

    def test_vanishing_power_converges_to_attenuation_shape(self, clu_grid, default_fiber_100):
        # the tilt vanishes with launch power; what survives is a common
        # total-balance factor, so compare sum-normalized shapes
        tiny = PowerSpectrum(clu_grid, np.full(clu_grid.n_channels, 1e-12))
        params = derive_params(tiny, default_fiber_100, 3)
        out = power_profile(tiny, params, default_fiber_100.raman.slope, 100.0)
        alpha = attenuation_at(default_fiber_100.attenuation, clu_grid.frequencies)
        expected = tiny.powers * np.exp(-alpha * 100.0)
        shape_out = out.powers / out.total_power
        shape_exp = expected / expected.sum()
        assert np.max(np.abs(shape_out / shape_exp - 1.0)) < 1e-8

    def test_vanishing_power_exact_for_constant_alpha(self, clu_grid):
        fiber = constant_alpha_fiber(0.2, 100.0)
        tiny = PowerSpectrum(clu_grid, np.full(clu_grid.n_channels, 1e-12))
        params = derive_params(tiny, fiber, 3)
        out = power_profile(tiny, params, fiber.raman.slope, 100.0)
        expected = tiny.powers * math.exp(-0.2 * math.log(10) / 10.0 * 100.0)
        assert np.max(np.abs(out.powers / expected - 1.0)) < 1e-8

    def test_zirngibl_regime_matches_fine_oracle(self, c_grid):
        # constant attenuation, bandwidth below the window: the closed form is
        # essentially exact; compare against a 10x-step numerical solve
        fiber = constant_alpha_fiber(0.2, 100.0)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        params = derive_params(launch, fiber, 3)
        closed = power_profile(launch, params, fiber.raman.slope, 100.0)
        oracle = integrate_span(launch, fiber, SolverOptions(steps_per_span=500)).final
        dev = np.abs(to_db(closed.powers / oracle.powers))
        assert dev.max() < 0.01

    def test_clu_total_power_within_two_percent(self, clu_launch, default_fiber_100):
        params = derive_params(clu_launch, default_fiber_100, 3)
        closed = power_profile(clu_launch, params, default_fiber_100.raman.slope, 100.0)
        oracle = integrate_span(clu_launch, default_fiber_100).final
        assert abs(closed.total_power / oracle.total_power - 1.0) < 0.02

    def test_refresh_reference_matches_at_span_end(self, clu_launch, default_fiber_100):
        params = derive_params(clu_launch, default_fiber_100, 3)
        slope = default_fiber_100.raman.slope
        a = power_profile(clu_launch, params, slope, 100.0)
        b = power_profile(clu_launch, params, slope, 100.0, refresh_reference=True)
        assert np.allclose(a.powers, b.powers, rtol=1e-12)

    def test_refresh_reference_identity_at_input(self, clu_launch, default_fiber_100):
        params = derive_params(clu_launch, default_fiber_100, 3)
        out = power_profile(clu_launch, params, default_fiber_100.raman.slope, 0.0, refresh_reference=True)
        assert np.allclose(out.powers, clu_launch.powers, rtol=1e-12)

    def test_modeled_total_power_decay(self, clu_launch, default_fiber_100):
        params = derive_params(clu_launch, default_fiber_100, 3)
        assert params.total_power_at(0.0) == pytest.approx(clu_launch.total_power)
        assert params.total_power_at(100.0) == pytest.approx(
            clu_launch.total_power * math.exp(-params.alpha0 * 100.0)
        )


class TestParamsByOrder:
    """One set of shaping values serves every order, bit for bit as derived alone."""

    @pytest.mark.parametrize(
        "raman",
        [
            RamanGainModel.triangular(peak=0.4),
            RamanGainModel.triangular(slope=0.0),
            RamanGainModel.from_table([0.0, 7.0, 13.0, 14.5, 16.0], [0.0, 0.15, 0.42, 0.3, 0.0]),
        ],
        ids=["triangular", "raman-free", "tabulated"],
    )
    def test_equals_derive_params_at_each_order(self, clu_grid, raman):
        ripple = np.random.default_rng(5).uniform(-1.0, 1.0, clu_grid.n_channels)
        launch = PowerSpectrum(clu_grid, 1e-3 * 10.0 ** ((-1.0 + ripple) / 10.0))
        fiber = FiberSpec(default_attenuation(), raman, 80.0)
        p = launch.powers
        total = p.sum()
        model = _SpanModel(clu_grid, fiber)
        shaping = model.shaping(p, total)
        for n in (1, 2, 3, 4, 5, 6):
            alpha0, ref, leff, growth = _span_params(p, total, shaping,
                                                     _span_constants(model, fiber.length, n))
            alone = derive_params(launch, fiber, n)
            assert np.array_equal(shaping, alone.shaping)
            assert (alpha0, ref, leff, total * growth) == (
                alone.alpha0, alone.shaping_ref, alone.effective_length, alone.total_launch_power
            )


def shaping_reference(launch, window):
    """shaping_function with its gather indices rebuilt on every call."""
    p = launch.powers
    total = p.sum()
    bs = launch.grid.spacing
    n = p.size
    m = math.floor(window / bs)
    m_up = math.ceil(window / bs)
    half_width = m_up - 1
    csum = np.concatenate(([0.0], np.cumsum(p)))
    j = np.arange(n)
    win_power = csum[np.minimum(j + half_width + 1, n)] - csum[np.maximum(j - half_width, 0)]
    upper = np.where(j + m < n, p[np.minimum(j + m, n - 1)], 0.0)
    lower = np.where(j - m_up >= 0, p[np.maximum(j - m_up, 0)], 0.0)
    beta = win_power - (window / bs) * (upper + lower)
    return np.cumsum(beta) * bs / total


def rippled(grid, seed):
    ripple = np.random.default_rng(seed).uniform(-1.5, 1.5, grid.n_channels)
    return PowerSpectrum(grid, 1e-3 * 10.0 ** ((-1.0 + ripple) / 10.0))


class TestCachedWindowIndices:
    """Gather indices cached per (n, m, m') reproduce the per-call formula bit for bit."""

    @pytest.mark.parametrize(
        "grid,window",
        [
            (build_channel_grid("C"), WINDOW),
            (build_channel_grid("CLU"), WINDOW),
            (build_channel_grid("SCLU"), WINDOW),
            (build_channel_grid("CLU"), 0.03),  # window below the spacing: m = 0, m' = 1
            (build_channel_grid("CLU"), 1.0),  # an exact multiple: m = m' = 20
            (build_channel_grid("C"), 0.05),  # one spacing: m = m' = 1
            (build_channel_grid([Band("X", 190.0, 190.5)], 0.05), WINDOW),  # m >= n
            (build_channel_grid([Band("X", 193.0, 193.05)], 0.05), WINDOW),  # one channel
            (build_channel_grid([Band("X", 193.0, 193.05)], 0.05), 0.03),
        ],
        ids=["C", "CLU", "SCLU", "below-spacing", "exact-multiple", "one-spacing",
             "m-beyond-n", "one-channel", "one-channel-narrow"],
    )
    def test_matches_per_call_indices(self, grid, window):
        for seed in (0, 1):  # the second call takes the cached indices
            launch = rippled(grid, seed)
            assert np.array_equal(shaping_function(launch, window),
                                  shaping_reference(launch, window))

    def test_grids_sharing_a_key_share_nothing_else(self):
        # a shifted C grid has the same (n, m, m') but other powers
        c = build_channel_grid("C")
        shifted = build_channel_grid([Band("C", 194.70, 198.75)], c.spacing)
        for grid, seed in ((c, 2), (shifted, 3), (c, 4)):
            launch = rippled(grid, seed)
            assert np.array_equal(shaping_function(launch, WINDOW),
                                  shaping_reference(launch, WINDOW))


class TestChannelAttenuation:
    """A span's per-channel alpha follows its own attenuation profile and is read-only."""

    def test_alternating_profiles_on_one_grid(self, clu_grid):
        profiles = [
            default_attenuation(),
            AttenuationProfile.constant_db(0.2),
            AttenuationProfile.from_table([175.0, 195.0, 210.0], [0.25, 0.19, 0.22]),
            default_attenuation(),  # equal values, another object
        ]
        for attenuation in profiles + profiles[::-1]:
            fiber = FiberSpec(attenuation, RamanGainModel.triangular(peak=0.4), 80.0)
            alpha = _SpanModel(clu_grid, fiber).alpha
            assert np.array_equal(alpha, attenuation_at(attenuation, clu_grid.frequencies))
            assert not alpha.flags.writeable

    def test_a_rejected_profile_is_rejected_every_time(self, clu_grid):
        # a table that does not cover the grid fails on every call
        narrow = AttenuationProfile.from_table([190.0, 195.0], [0.2, 0.2])
        fiber = FiberSpec(narrow, RamanGainModel.triangular(peak=0.4), 80.0)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="outside tabulated attenuation"):
                derive_params(rippled(clu_grid, 7), fiber)
