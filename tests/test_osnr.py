import numpy as np
import pytest

from isrsprop import (
    AmplifierSpec,
    AttenuationProfile,
    Band,
    ConfigurationError,
    ConvergenceError,
    FiberSpec,
    LinkSpec,
    NoiseSpectrum,
    PowerSpectrum,
    RamanGainModel,
    TargetSpectrum,
    ase_accumulate,
    ase_from_result,
    ase_injection,
    build_channel_grid,
    osnr_profile,
    propagate_multispan_closedform,
    target_osnr,
)
from isrsprop.osnr import _noise_figure_linear
from isrsprop.profiles import PLANCK, ChannelGrid

from conftest import constant_alpha_fiber

NF_TABLE1 = {"C": 5.5, "L": 6.0, "U": 5.0}


def osnr_link(fiber, n_spans, receiver_boost=True):
    amp = AmplifierSpec(noise_figure_db=NF_TABLE1)
    return LinkSpec.uniform(fiber, n_spans, amplifier=amp, receiver_boost=receiver_boost)


class TestAseInjection:
    def test_single_stage_value(self):
        # h * 193e12 * 10^0.55 * (10 - 1) * 50e9
        grid = build_channel_grid([Band("C", 192.975, 193.025)], 0.05)
        out = ase_injection(grid, {"C": 5.5}, gain=10.0, reference_bandwidth=0.05)
        expected = PLANCK * 193e12 * 10**0.55 * 9.0 * 50e9
        assert out[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.042e-7, rel=1e-3)

    def test_unity_gain_injects_nothing(self, c_grid):
        out = ase_injection(c_grid, {"C": 5.5}, gain=1.0, reference_bandwidth=0.05)
        assert np.all(out == 0.0)

    def test_missing_band_rejected(self, cl_grid):
        with pytest.raises(ConfigurationError, match="band 'L'"):
            ase_injection(cl_grid, {"C": 5.5}, 10.0, 0.05)


class TestNoiseFigureLinear:
    @staticmethod
    def per_channel(grid, noise_figure_db):
        # one conversion per channel, by band name
        return np.array([10.0 ** (noise_figure_db[name] / 10.0) for name in grid.band_names()])

    @pytest.mark.parametrize("plan", ["CLU", "SCLU"])
    def test_matches_per_channel_conversion(self, plan):
        grid = build_channel_grid(plan)
        nf = {"S": 6.5, **NF_TABLE1}
        assert np.array_equal(_noise_figure_linear(grid, nf), self.per_channel(grid, nf))

    def test_band_with_channels_needs_a_figure(self, clu_grid):
        with pytest.raises(ConfigurationError, match="no noise figure configured for band 'L'"):
            _noise_figure_linear(clu_grid, {"C": 5.5, "U": 5.0})

    def test_band_without_channels_needs_no_figure(self):
        # "B" is narrower than one channel slot, so it holds no channel
        grid = ChannelGrid(
            frequencies=190.025 + 0.05 * np.arange(10),
            spacing=0.05,
            bands=(Band("A", 190.0, 190.5), Band("B", 190.5, 190.52)),
        )
        assert set(grid.band_names()) == {"A"}
        assert np.array_equal(_noise_figure_linear(grid, {"A": 5.0}), np.full(10, 10.0 ** 0.5))


class TestAseAccumulate:
    def test_unity_gain_stages_accumulate_nothing(self, c_grid):
        fiber = FiberSpec(
            AttenuationProfile.constant(1e-12), RamanGainModel.triangular(slope=0.0), 50.0
        )
        amp = AmplifierSpec(gain_policy="fixed-gain", gain=1.0, noise_figure_db=NF_TABLE1)
        link = LinkSpec.uniform(fiber, 2, amplifier=amp)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        noise = ase_from_result(result)
        assert np.all(noise.ase_powers == 0.0)

    def test_identity_span_leaves_injection_unreshaped(self, c_grid):
        # lossy first span, transparent second: the single in-line stage's
        # noise arrives at the link end exactly as injected
        lossy = constant_alpha_fiber(0.2, 50.0, peak=0.0)
        transparent = FiberSpec(
            AttenuationProfile.constant(1e-12), RamanGainModel.triangular(slope=0.0), 50.0
        )
        amp = AmplifierSpec(noise_figure_db=NF_TABLE1)
        link = LinkSpec(spans=(lossy, transparent), amplifiers=(amp,))
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        noise = ase_from_result(result)
        injected = ase_injection(c_grid, NF_TABLE1, result.gains[0], c_grid.spacing)
        assert np.allclose(noise.ase_powers, injected, rtol=1e-9)

    def test_noise_rides_the_signal_ratio(self, clu_grid, default_fiber_50):
        link = osnr_link(default_fiber_50, 3, receiver_boost=False)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        noise = ase_from_result(result)
        expected = np.zeros(clu_grid.n_channels)
        for k, gain in enumerate(result.gains):
            inj = ase_injection(clu_grid, NF_TABLE1, gain, clu_grid.spacing)
            expected += inj * result.final.powers / result.span_inputs[k + 1].powers
        assert np.allclose(noise.ase_powers, expected, rtol=1e-12)

    def test_default_reference_bandwidth_is_spacing(self, clu_grid, default_fiber_50):
        link = osnr_link(default_fiber_50, 2)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        assert ase_from_result(result).reference_bandwidth == clu_grid.spacing

    def test_inconsistent_inputs_rejected(self, clu_grid, default_fiber_50):
        link = osnr_link(default_fiber_50, 3)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        with pytest.raises(ConfigurationError, match="inconsistent"):
            ase_accumulate(link, result.gains[:1], result.span_inputs, result.final)

    def test_noise_figures_built_once_per_amplifier(self, clu_grid, default_fiber_50, monkeypatch):
        # three amplifiers share one mapping and one has its own: one build per
        # amplifier, and the noise of the per-amplifier ase_injection sum bit for bit
        shared = AmplifierSpec(noise_figure_db=NF_TABLE1)
        other = AmplifierSpec(noise_figure_db={"C": 5.0, "L": 5.5, "U": 6.0})
        link = LinkSpec(spans=(default_fiber_50,) * 5, amplifiers=(shared, other, shared, shared))
        result = propagate_multispan_closedform(PowerSpectrum.flat_dbm(clu_grid, -1.0), link, 3)
        expected = np.zeros(clu_grid.n_channels)
        for amp, gain, entry in zip(link.amplifiers, result.gains, result.span_inputs[1:]):
            injected = ase_injection(clu_grid, amp.noise_figure_db, gain, clu_grid.spacing)
            expected += injected * (result.final.powers / entry.powers)
        builds = []

        def spy(grid, noise_figure_db):
            builds.append(noise_figure_db)
            return _noise_figure_linear(grid, noise_figure_db)

        monkeypatch.setattr("isrsprop.osnr._noise_figure_linear", spy)
        assert np.array_equal(ase_from_result(result).ase_powers, expected)
        assert len(builds) == 4
        # target_osnr builds them once per call, not once per iteration
        builds.clear()
        total = PowerSpectrum.flat_dbm(clu_grid, -1.0).total_power
        run = target_osnr(TargetSpectrum.flat_shape(clu_grid), link, total)
        assert run.iterations > 1 and len(builds) == 4

    @pytest.mark.parametrize("nf, match", [(None, "missing noise figures"),
                                           ({"C": 5.5, "U": 5.0}, "band 'L'")])
    def test_amplifier_noise_figures_are_checked(self, clu_grid, default_fiber_50, nf, match):
        link = LinkSpec.uniform(default_fiber_50, 2, amplifier=AmplifierSpec(noise_figure_db=nf))
        result = propagate_multispan_closedform(PowerSpectrum.flat_dbm(clu_grid, -1.0), link, 3)
        with pytest.raises(ConfigurationError, match=match):
            ase_from_result(result)


class TestNoiseInputs:
    """Non-finite or non-positive noise and bandwidths are rejected by value."""

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"), (-1e-8, "-1e-08")])
    def test_ase_powers_must_be_finite_and_non_negative(self, c_grid, bad, shown):
        powers = np.full(c_grid.n_channels, 1e-8)
        powers[2] = bad
        with pytest.raises(ConfigurationError, match=(
                f"^ASE powers must be finite and non-negative, got {shown} W$")):
            NoiseSpectrum(c_grid, powers, z=0.0, reference_bandwidth=0.05)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0, -0.05])
    def test_the_bandwidth_must_be_positive_and_finite_and_is_checked_first(self, c_grid,
                                                                            bandwidth):
        # NaN powers too: the bandwidth's message comes first
        with pytest.raises(ConfigurationError, match=(
                f"reference bandwidth must be positive and finite, got {bandwidth!r} THz$")):
            NoiseSpectrum(c_grid, np.full(c_grid.n_channels, np.nan), z=0.0,
                          reference_bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0, -0.05])
    def test_ase_accumulation_rejects_the_bandwidth_before_computing(
            self, clu_grid, default_fiber_50, bandwidth):
        # NaN, inf and 0 returned NaN, inf and all-zero noise; -0.05 raised
        # "ASE powers must be non-negative"
        result = propagate_multispan_closedform(
            PowerSpectrum.flat_dbm(clu_grid, -1.0), osnr_link(default_fiber_50, 3), 3)
        with pytest.raises(ConfigurationError, match=(
                f"reference bandwidth must be positive and finite, got {bandwidth!r} THz$")):
            ase_from_result(result, bandwidth)


class TestOsnrProfile:
    def test_ratio_definition(self, c_grid):
        signal = PowerSpectrum(c_grid, np.full(c_grid.n_channels, 1e-4))
        noise = NoiseSpectrum(c_grid, np.full(c_grid.n_channels, 1e-8), z=0.0, reference_bandwidth=0.05)
        osnr = osnr_profile(signal, noise)
        assert np.allclose(osnr, 1e4)

    def test_scale_invariance(self, c_grid):
        rng = np.random.default_rng(2)
        s = rng.uniform(1e-5, 1e-3, c_grid.n_channels)
        n = rng.uniform(1e-9, 1e-7, c_grid.n_channels)
        signal = PowerSpectrum(c_grid, s)
        noise = NoiseSpectrum(c_grid, n, z=0.0, reference_bandwidth=0.05)
        doubled = osnr_profile(
            PowerSpectrum(c_grid, 2 * s),
            NoiseSpectrum(c_grid, 2 * n, z=0.0, reference_bandwidth=0.05),
        )
        assert np.allclose(doubled, osnr_profile(signal, noise), rtol=1e-15)

    def test_zero_noise_rejected(self, c_grid):
        signal = PowerSpectrum(c_grid, np.full(c_grid.n_channels, 1e-4))
        noise = NoiseSpectrum(c_grid, np.zeros(c_grid.n_channels), z=0.0, reference_bandwidth=0.05)
        with pytest.raises(ConfigurationError, match="undefined"):
            osnr_profile(signal, noise)

    def test_grids_must_place_the_same_channels(self, c_grid):
        n = c_grid.n_channels
        signal = PowerSpectrum(c_grid, np.full(n, 1e-4))
        rebuilt = build_channel_grid("C")  # another object, the same channels
        assert rebuilt is not c_grid
        noise = NoiseSpectrum(rebuilt, np.full(n, 1e-8), z=0.0, reference_bandwidth=0.05)
        assert np.allclose(osnr_profile(signal, noise), 1e4)
        # as many channels, 3 THz higher
        shifted = build_channel_grid([Band("C", 194.70, 198.75)], c_grid.spacing)
        assert shifted.n_channels == n
        noise = NoiseSpectrum(shifted, np.full(n, 1e-8), z=0.0, reference_bandwidth=0.05)
        with pytest.raises(ConfigurationError, match="share a grid"):
            osnr_profile(signal, noise)


class TestReceiverBoostNeutrality:
    def test_osnr_invariant_to_boost(self, clu_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        with_boost = propagate_multispan_closedform(launch, osnr_link(default_fiber_50, 3, True), 3)
        without = propagate_multispan_closedform(launch, osnr_link(default_fiber_50, 3, False), 3)
        osnr_a = osnr_profile(with_boost.final, ase_from_result(with_boost))
        osnr_b = osnr_profile(without.final, ase_from_result(without))
        assert np.allclose(osnr_a, osnr_b, rtol=1e-12)


class TestTargetOsnr:
    def test_static_mismatch_cancelled_after_one_update(self, c_grid):
        # transfer-free link: the only OSNR shape distortion is the photon
        # energy factor in the injection, which one update absorbs exactly
        fiber = constant_alpha_fiber(0.2, 50.0, peak=0.0)
        link = osnr_link(fiber, 2)
        target = TargetSpectrum.flat_shape(c_grid)
        run = target_osnr(target, link, total_launch_power=0.064)
        assert run.iterations <= 2
        assert run.rmse_history[-1] < 1e-12

    def test_clu_five_span_convergence(self, clu_grid, default_fiber_50):
        target = TargetSpectrum.flat_shape(clu_grid)
        total = PowerSpectrum.flat_dbm(clu_grid, -1.0).total_power
        run = target_osnr(target, osnr_link(default_fiber_50, 5), total)
        assert run.iterations <= 20
        assert run.rmse_history[-1] < 1e-5
        # unit-step iteration contracts monotonically on this scenario
        assert all(b < a for a, b in zip(run.rmse_history, run.rmse_history[1:]))

    def test_noise_stays_small_next_to_signal(self, clu_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = propagate_multispan_closedform(launch, osnr_link(default_fiber_50, 5), 3)
        noise = ase_from_result(result)
        assert noise.total_power / result.final.total_power < 1e-2

    def test_nonconvergence_carries_history(self, clu_grid, default_fiber_50):
        target = TargetSpectrum.flat_shape(clu_grid)
        total = PowerSpectrum.flat_dbm(clu_grid, -1.0).total_power
        with pytest.raises(ConvergenceError) as err:
            target_osnr(target, osnr_link(default_fiber_50, 5), total, max_iterations=3)
        assert len(err.value.history) == 3

    @pytest.mark.parametrize(
        "amplifier",
        [AmplifierSpec(gain_policy="restore-band-power", noise_figure_db=NF_TABLE1),
         AmplifierSpec(gain_policy="fixed-gain", gain=10 ** 1.1, noise_figure_db=NF_TABLE1)],
        ids=["restore-band-power", "fixed-gain"],
    )
    def test_policies_pre_emphasis_rejects_are_targeted(self, clu_grid, default_fiber_50,
                                                        amplifier):
        # the forward run applies the link's own policy, so the loop corrects what the
        # backward recursion does not model (8 and 9 iterations)
        link = LinkSpec.uniform(default_fiber_50, 3, amplifier=amplifier, receiver_boost=True)
        total = PowerSpectrum.flat_dbm(clu_grid, -1.0).total_power
        run = target_osnr(TargetSpectrum.flat_shape(clu_grid), link, total)
        assert run.rmse_history[-1] < 1e-5 and run.iterations <= 10

    def test_noise_free_link_is_rejected(self, c_grid):
        lossless = FiberSpec(
            AttenuationProfile.constant(1e-12), RamanGainModel.triangular(slope=0.0), 50.0
        )
        amp = AmplifierSpec(gain_policy="fixed-gain", gain=1.0, noise_figure_db=NF_TABLE1)
        link = LinkSpec.uniform(lossless, 2, amplifier=amp)
        target = TargetSpectrum.flat_shape(c_grid)
        with pytest.raises(ConfigurationError, match="undefined"):
            target_osnr(target, link, total_launch_power=0.064)

    def test_rmse_in_db_flag(self, c_grid):
        fiber = constant_alpha_fiber(0.2, 50.0, peak=0.0)
        link = osnr_link(fiber, 2)
        target = TargetSpectrum.flat_shape(c_grid)
        run = target_osnr(target, link, 0.064, rmse_in_db=True)
        assert run.rmse_history[-1] < 1e-5  # the default tolerance

    def test_absolute_target_rejected(self, c_grid, default_fiber_50):
        target = TargetSpectrum.absolute_dbm(c_grid, np.full(c_grid.n_channels, 20.0))
        with pytest.raises(ConfigurationError, match="shape-only"):
            target_osnr(target, osnr_link(default_fiber_50, 2), 0.064)

    @pytest.mark.parametrize(
        "settings,match",
        [
            ({"step": float("nan")}, "step and tolerance"),
            ({"tolerance": float("nan")}, "step and tolerance"),
            ({"step": 0.0}, "step and tolerance"),
            ({"max_iterations": 0}, "max_iterations"),
            ({"max_iterations": -1}, "max_iterations"),
            ({"reference_bandwidth": -0.05}, "reference bandwidth"),
            ({"reference_bandwidth": 0.0}, "reference bandwidth"),
            ({"tolerance": float("inf")}, "positive and finite, got 1.0 and inf$"),
            ({"step": float("inf")}, "positive and finite, got inf and 1e-05$"),
            ({"max_iterations": 2.5}, "max_iterations must be an integer >= 1, got 2.5$"),
            ({"reference_bandwidth": float("inf")}, "positive and finite, got inf THz$"),
            ({"reference_bandwidth": float("nan")}, "positive and finite, got nan THz$"),
        ],
    )
    def test_bad_iteration_settings_rejected(self, c_grid, default_fiber_50, settings, match):
        # max_iterations < 1 used to fail with an IndexError on an empty history,
        # and a NaN step or tolerance slipped past a `<= 0` check; an infinite
        # tolerance returned after one iteration, an infinite step or bandwidth
        # ended in "target values must be positive and finite" and 2.5 iterations
        # in a TypeError
        target = TargetSpectrum.flat_shape(c_grid)
        with pytest.raises(ConfigurationError, match=match):
            target_osnr(target, osnr_link(default_fiber_50, 2), 0.064, **settings)
