import math

import numpy as np
import pytest

from isrsprop import (
    AmplifierSpec,
    AttenuationProfile,
    ConfigurationError,
    FiberSpec,
    LinkSpec,
    PowerSpectrum,
    RamanGainModel,
    SolverOptions,
    TargetSpectrum,
    build_channel_grid,
    default_attenuation,
    derive_params,
    integrate_span,
    power_profile,
    preemphasis_multispan,
    propagate_link_numerical,
    propagate_multispan_closedform,
    span_gain,
    target_osnr,
)

from conftest import constant_alpha_fiber, to_db

# both span models behind the shared span-and-amplifier loop
BACKENDS = {
    "closed form": lambda launch, link: propagate_multispan_closedform(launch, link, 3),
    "oracle": propagate_link_numerical,
}


class TestSpanGain:
    def test_lossless_span_gain_is_unity(self, c_grid):
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        assert span_gain(launch, launch.total_power) == pytest.approx(1.0)

    def test_flat_loss_gives_10db_gain(self, c_grid):
        # 0.2 dB/km * 50 km = 10 dB of flat loss
        fiber = constant_alpha_fiber(0.2, 50.0, peak=0.0)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        out = integrate_span(launch, fiber).final
        assert span_gain(out, launch.total_power) == pytest.approx(10.0, rel=1e-5)

    def test_clu_span_gain_matches_oracle_loss(self, clu_launch, default_fiber_50):
        # measured 2.8% at 50 km / order 3 (the total-power error changes sign
        # between 50 and 150 km, and 50 km sits near its negative extreme)
        params = derive_params(clu_launch, default_fiber_50, 3)
        closed = power_profile(clu_launch, params, default_fiber_50.raman.slope, 50.0)
        oracle = integrate_span(clu_launch, default_fiber_50).final
        g_closed = span_gain(closed, clu_launch.total_power)
        g_oracle = span_gain(oracle, clu_launch.total_power)
        assert g_closed == pytest.approx(g_oracle, rel=0.03)

    def test_zero_output_rejected(self, c_grid):
        spectrum = PowerSpectrum(c_grid, np.zeros(c_grid.n_channels))
        with pytest.raises(ConfigurationError, match="positive"):
            span_gain(spectrum, 1e-3)


class TestLinkSpec:
    def test_amplifier_count_enforced(self, default_fiber_50):
        with pytest.raises(ConfigurationError, match="in-line amplifiers"):
            LinkSpec(spans=(default_fiber_50, default_fiber_50), amplifiers=())

    def test_noise_figures_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="noise figure"):
            AmplifierSpec(noise_figure_db={"C": 0.0})

    def test_fixed_gain_needs_gain(self):
        with pytest.raises(ConfigurationError, match="fixed-gain"):
            AmplifierSpec(gain_policy="fixed-gain")


class TestPropagateMultispan:
    def test_single_span_equals_power_profile(self, clu_launch, default_fiber_100):
        link = LinkSpec(spans=(default_fiber_100,), amplifiers=())
        result = propagate_multispan_closedform(clu_launch, link, 3)
        params = derive_params(clu_launch, default_fiber_100, 3)
        direct = power_profile(clu_launch, params, default_fiber_100.raman.slope, 100.0)
        assert np.allclose(result.final.powers, direct.powers, rtol=1e-14)

    def test_constant_alpha_no_raman_is_a_fixed_point(self, c_grid):
        fiber = constant_alpha_fiber(0.2, 50.0, peak=0.0)
        link = LinkSpec.uniform(fiber, 4)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        for span_input in result.span_inputs:
            assert np.max(np.abs(span_input.powers / launch.powers - 1.0)) < 1e-12

    def test_span_input_totals_restored(self, clu_launch, default_fiber_50):
        link = LinkSpec.uniform(default_fiber_50, 5)
        for backend, propagate in BACKENDS.items():
            result = propagate(clu_launch, link)
            assert len(result.span_inputs) == 5, backend
            for span_input in result.span_inputs:
                assert span_input.total_power == pytest.approx(
                    clu_launch.total_power, rel=1e-12
                ), backend

    def test_five_span_clu_against_renormalized_oracle(self, clu_launch, default_fiber_50):
        # the documented wideband limitation concentrates at the band-edge
        # channels; the interior of the spectrum tracks the oracle tightly
        link = LinkSpec.uniform(default_fiber_50, 5)
        closed = propagate_multispan_closedform(clu_launch, link, 3).final
        oracle = propagate_link_numerical(clu_launch, link).final
        dev = np.abs(to_db(closed.powers / oracle.powers))
        edge = 23  # channels within (bandwidth - window) of a band edge
        assert dev[edge:-edge].max() < 0.15
        assert dev.max() < 2.5

    def test_tilt_accumulates_monotonically(self, clu_launch, default_fiber_50):
        link = LinkSpec.uniform(default_fiber_50, 5)
        result = propagate_multispan_closedform(clu_launch, link, 3)
        spreads = [
            to_db(out.powers.max() / out.powers.min()) for out in result.span_outputs
        ]
        assert all(b > a for a, b in zip(spreads, spreads[1:]))

    def test_alpha0_constant_when_shape_preserved(self, c_grid):
        fiber = constant_alpha_fiber(0.2, 50.0, peak=0.0)
        link = LinkSpec.uniform(fiber, 3)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        alpha = 0.2 * math.log(10.0) / 10.0
        for p in result.span_results:
            assert p.alpha0 == pytest.approx(alpha, rel=1e-12)

    def test_alpha0_drifts_as_spectrum_tilts(self, clu_launch, default_fiber_50):
        link = LinkSpec.uniform(default_fiber_50, 5)
        result = propagate_multispan_closedform(clu_launch, link, 3)
        alpha0 = [p.alpha0 for p in result.span_results]
        assert abs(alpha0[-1] - alpha0[0]) > 1e-5

    def test_receiver_boost_restores_total(self, clu_launch, default_fiber_50):
        link = LinkSpec.uniform(default_fiber_50, 3, receiver_boost=True)
        for backend, propagate in BACKENDS.items():
            result = propagate(clu_launch, link)
            assert result.final.total_power == pytest.approx(
                clu_launch.total_power, rel=1e-12
            ), backend
            assert result.boost_gain is not None and result.boost_gain > 1.0, backend
            assert result.span_outputs[-1].total_power < clu_launch.total_power, backend

    def test_receiver_boost_of_a_vanished_output_is_rejected(self, clu_launch, default_fiber_50):
        fiber = FiberSpec(default_fiber_50.attenuation, default_fiber_50.raman, 20000.0)
        link = LinkSpec((fiber,), receiver_boost=True)
        with pytest.raises(ConfigurationError, match="span output power must be positive"):
            propagate_multispan_closedform(clu_launch, link, 3)

    @pytest.mark.parametrize("policy", ["restore-total-power", "restore-band-power", "fixed-gain"])
    def test_a_vanished_output_is_rejected_on_every_link(self, clu_launch, default_fiber_50,
                                                          policy):
        # no boost, and a middle span whose output underflows to 0 W
        lossy = FiberSpec(default_fiber_50.attenuation, default_fiber_50.raman, 20000.0)
        amp = AmplifierSpec(gain_policy=policy, gain=10.0 if policy == "fixed-gain" else None)
        for spans in ((lossy,), (default_fiber_50, lossy, default_fiber_50)):
            link = LinkSpec(spans, (amp,) * (len(spans) - 1))
            with pytest.raises(ConfigurationError, match="span output power must be positive"):
                propagate_multispan_closedform(clu_launch, link, 3)

    def test_band_restore_policy(self, cl_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(cl_grid, -1.0)
        amp = AmplifierSpec(gain_policy="restore-band-power")
        link = LinkSpec.uniform(default_fiber_50, 3, amplifier=amp)
        for backend, propagate in BACKENDS.items():
            result = propagate(launch, link)
            for span_input in result.span_inputs:
                for b in range(len(cl_grid.bands)):
                    sel = cl_grid.band_index == b
                    assert span_input.powers[sel].sum() == pytest.approx(
                        launch.powers[sel].sum(), rel=1e-12
                    ), backend

    def test_heterogeneous_spans(self, c_grid):
        fiber_a = constant_alpha_fiber(0.18, 40.0)
        fiber_b = FiberSpec(
            AttenuationProfile.parabolic_db(0.19, 193.5, 3e-4),
            RamanGainModel.triangular(peak=0.35),
            70.0,
        )
        link = LinkSpec(spans=(fiber_a, fiber_b), amplifiers=(AmplifierSpec(),))
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        result = propagate_multispan_closedform(launch, link, 3)
        assert result.span_results[0].length == 40.0
        assert result.span_results[1].length == 70.0
        assert result.final.total_power > 0


class TestFiberModels:
    """A link numbers its fiber models; a public call evaluates alpha(f_i) once per model."""

    def test_uniform_link_has_one_model(self, default_fiber_50):
        assert LinkSpec.uniform(default_fiber_50, 5).models == (0,) * 5

    def test_mixed_link_numbers_models_in_order_of_first_use(self, default_fiber_50):
        b = FiberSpec(AttenuationProfile.constant_db(0.2), default_fiber_50.raman, 50.0)
        link = LinkSpec(spans=(b, default_fiber_50, b, default_fiber_50),
                        amplifiers=(AmplifierSpec(),) * 3)
        assert link.models == (0, 1, 0, 1)

    def test_spans_share_a_model_when_they_share_both_model_objects(self, default_fiber_50):
        a = default_fiber_50
        spans = (
            a,
            FiberSpec(a.attenuation, a.raman, 80.0),  # a's models at another length
            FiberSpec(default_attenuation(), a.raman, 50.0),  # equal values, another object
            FiberSpec(a.attenuation, RamanGainModel.triangular(peak=0.4), 50.0),
            FiberSpec(a.attenuation, a.raman, 20.0),
        )
        link = LinkSpec(spans=spans, amplifiers=(AmplifierSpec(),) * 4)
        assert link.models == (0, 0, 1, 2, 0)

    @pytest.mark.parametrize("mixed", [False, True], ids=["uniform", "mixed"])
    def test_alpha_is_evaluated_once_per_model_and_call(
        self, c_grid, default_fiber_50, alpha_calls, mixed
    ):
        a = default_fiber_50
        b = FiberSpec(a.attenuation, RamanGainModel.triangular(peak=0.3), 50.0)
        spans = (a, b, a) if mixed else (a,) * 5
        amp = AmplifierSpec(noise_figure_db={"C": 5.5})
        link = LinkSpec(spans=spans, amplifiers=(amp,) * (len(spans) - 1))
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        target = TargetSpectrum.flat_shape(c_grid)
        for call in (
            lambda: propagate_multispan_closedform(launch, link, 3),
            lambda: preemphasis_multispan(target, link, launch.total_power),
            lambda: propagate_link_numerical(launch, link, SolverOptions(steps_per_span=4)),
            lambda: target_osnr(target, link, launch.total_power),
        ):
            alpha_calls.clear()
            call()
            assert alpha_calls == ["isrsprop.closedform"] * (2 if mixed else 1)
