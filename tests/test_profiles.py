import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isrsprop import (
    AmplifierSpec,
    AttenuationProfile,
    Band,
    ChannelGrid,
    ConfigurationError,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    SolverOptions,
    TargetSpectrum,
    attenuation_at,
    build_channel_grid,
    convert_units,
    default_attenuation,
    default_raman,
    raman_gain_at,
)


class TestChannelGrid:
    def test_clu_plan_has_333_channels(self):
        grid = build_channel_grid("CLU", 0.05)
        assert grid.n_channels == 333
        assert grid.total_bandwidth == pytest.approx(16.65)

    def test_c_plan_has_81_channels(self):
        grid = build_channel_grid("C", 0.05)
        assert grid.n_channels == 81

    @pytest.mark.parametrize("plan,count", [("CL", 223), ("SCL", 418), ("SCLU", 528)])
    def test_other_plan_counts(self, plan, count):
        assert build_channel_grid(plan, 0.05).n_channels == count

    def test_single_band_of_width_spacing_is_one_channel_at_center(self):
        grid = build_channel_grid([Band("X", 193.0, 193.05)], 0.05)
        assert grid.n_channels == 1
        assert grid.frequencies[0] == pytest.approx(193.025)

    def test_channels_sit_at_bin_centers(self):
        grid = build_channel_grid("C", 0.05)
        assert grid.frequencies[0] == pytest.approx(191.70 + 0.025)
        assert grid.frequencies[-1] == pytest.approx(195.75 - 0.025)

    def test_uniform_spacing_exact(self):
        grid = build_channel_grid("SCLU", 0.05)
        assert np.all(np.abs(np.diff(grid.frequencies) - 0.05) <= 1e-9)

    def test_every_channel_in_exactly_one_band(self):
        grid = build_channel_grid("CLU", 0.05)
        assert np.all(grid.band_index >= 0)
        names = grid.band_names()
        assert names[0] == "U" and names[-1] == "C"
        counts = {b: names.count(b) for b in ("U", "L", "C")}
        assert counts == {"U": 110, "L": 142, "C": 81}

    def test_band_index_is_read_only(self):
        grid = build_channel_grid("CL", 0.05)
        with pytest.raises(ValueError, match="read-only"):
            grid.band_index[0] = 1
        assert grid.band_index.dtype.kind == "i"

    def test_non_contiguous_bands_rejected(self):
        with pytest.raises(ConfigurationError, match="not contiguous"):
            build_channel_grid([Band("A", 190.0, 191.0), Band("B", 191.5, 192.0)], 0.05)

    def test_bandwidth_not_multiple_of_spacing_names_band(self):
        with pytest.raises(ConfigurationError, match="'B'"):
            build_channel_grid([Band("A", 190.0, 191.0), Band("B", 191.0, 191.52)], 0.05)

    def test_unknown_plan(self):
        with pytest.raises(ConfigurationError, match="band plan"):
            build_channel_grid("CLX", 0.05)

    @pytest.mark.parametrize(
        "plan", [5, None, [5], ["C"], [("X", 190.0)], [Band("X", 190.0, 191.0), 5]],
        ids=["int", "None", "int-band", "str-band", "pair", "band-then-int"])
    def test_plan_neither_name_nor_bands_is_config_error(self, plan):
        # build_channel_grid(5) failed with a bare "'int' object is not iterable"
        with pytest.raises(ConfigurationError, match=(
                r"^band_plan must be a plan name or a sequence of bands or "
                r"\(name, f_low, f_high\) tuples, got ")):
            build_channel_grid(plan, 0.05)

    def test_band_tuples_build_the_grid_of_their_bands(self):
        bands = [("A", 190.0, 191.0), ("B", 191.0, 192.0)]
        grid = build_channel_grid(bands, 0.05)
        assert grid.bands == tuple(Band(*b) for b in bands)
        assert grid.n_channels == 40

    def test_no_bands_is_config_error(self):
        with pytest.raises(ConfigurationError, match="at least one band"):
            build_channel_grid([], 0.05)

    def test_grid_is_a_plain_value(self):
        # nothing about the fibers used on a grid is kept on it
        names = [f.name for f in dataclasses.fields(ChannelGrid)]
        assert names == ["frequencies", "spacing", "bands", "band_index"]


class TestConvertUnits:
    def test_db_per_km_to_napierian(self):
        assert convert_units(0.2, "dB/km", "1/km") == pytest.approx(0.046052, abs=1e-6)

    def test_dbm_to_watts(self):
        assert convert_units(-1.0, "dBm", "W") == pytest.approx(7.943282e-4, rel=1e-6)

    def test_zero_db_is_unity(self):
        assert convert_units(0.0, "dB", "linear") == 1.0

    def test_unsupported_pair(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            convert_units(1.0, "W", "dB/km")

    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_round_trip_identity(self, value):
        for a, b in [("dB/km", "1/km"), ("dBm", "W"), ("dB", "linear")]:
            back = convert_units(convert_units(value, a, b), b, a)
            assert back == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_array_conversion(self):
        out = convert_units(np.array([0.0, 10.0]), "dB", "linear")
        assert np.allclose(out, [1.0, 10.0])


class TestRamanGain:
    def test_peak_value_from_rounded_slope(self):
        model = RamanGainModel.triangular(slope=0.0286)
        assert raman_gain_at(model, 14.0) == pytest.approx(0.4, rel=2e-3)

    def test_peak_value_exact_from_peak(self):
        model = RamanGainModel.triangular(peak=0.4)
        assert raman_gain_at(model, 14.0) == pytest.approx(0.4, rel=1e-12)

    def test_outside_window_is_zero(self):
        model = RamanGainModel.triangular(slope=0.0286, window=15.5)
        assert raman_gain_at(model, 16.0) == 0.0

    def test_window_edge_inclusive(self):
        model = RamanGainModel.triangular(slope=0.02, window=15.5)
        assert raman_gain_at(model, 15.5) == pytest.approx(0.31)

    def test_zero_separation(self):
        assert raman_gain_at(RamanGainModel.triangular(peak=0.4), 0.0) == 0.0

    @pytest.mark.parametrize("separation", [0.0, -14.0, math.inf, math.nan])
    def test_peak_separation_must_be_finite_and_positive(self, separation):
        with pytest.raises(ConfigurationError, match="peak separation"):
            RamanGainModel.triangular(peak=0.4, peak_separation=separation)

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError, match="order the frequencies"):
            raman_gain_at(RamanGainModel.triangular(peak=0.4), -1.0)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=15.5),
    )
    def test_triangle_is_homogeneous(self, lam, df):
        # g(lam * df) = lam * g(df) while both stay inside the window
        model = RamanGainModel.triangular(peak=0.4, window=15.5)
        assert raman_gain_at(model, lam * df) == pytest.approx(
            lam * raman_gain_at(model, df), abs=1e-15
        )

    @pytest.mark.parametrize("model", [RamanGainModel.triangular(peak=0.4, window=15.5),
                                       RamanGainModel.from_table([0.0, 10.0, 15.0], [0.0, 0.3, 0.0])])
    def test_array_gain_leaves_its_argument_as_it_was(self, model):
        df = np.array([0.0, 5.0, 15.5, 15.5 + 1e-12, 20.0])
        before = df.copy()
        gain = raman_gain_at(model, df)
        assert np.array_equal(df, before)
        assert np.array_equal(gain, [raman_gain_at(model, float(x)) for x in df])

    def test_tabulated_interpolates_and_clamps(self):
        model = RamanGainModel.from_table([0.0, 10.0, 15.0], [0.0, 0.3, 0.0])
        assert raman_gain_at(model, 5.0) == pytest.approx(0.15)
        assert raman_gain_at(model, 20.0) == 0.0

    def test_tabulated_must_vanish_at_zero(self):
        with pytest.raises(ConfigurationError):
            RamanGainModel.from_table([0.0, 10.0], [0.1, 0.3])

    def test_triangular_fit_of_table(self):
        model = RamanGainModel.from_table([0.0, 7.0, 14.0, 15.5], [0.0, 0.1, 0.42, 0.0])
        tri = model.as_triangular()
        assert tri.slope == pytest.approx(0.03)
        assert tri.window == 15.5


class TestAttenuation:
    def test_constant(self):
        profile = AttenuationProfile.constant(0.046052)
        assert attenuation_at(profile, 190.0) == pytest.approx(0.046052)

    def test_parabola_vertex(self):
        profile = AttenuationProfile.parabolic(0.0415, 192.0, 2.0e-4)
        assert attenuation_at(profile, 192.0) == pytest.approx(0.0415)

    def test_parabola_off_vertex(self):
        # 0.0415 + 2e-4 * (202 - 192)^2
        profile = AttenuationProfile.parabolic(0.0415, 192.0, 2.0e-4)
        assert attenuation_at(profile, 202.0) == pytest.approx(0.0615)

    def test_tabulated_interpolates_in_db(self):
        profile = AttenuationProfile.from_table([180.0, 200.0], [0.2, 0.3])
        mid = attenuation_at(profile, 190.0)
        assert mid == pytest.approx(0.25 * math.log(10.0) / 10.0)

    def test_tabulated_refuses_extrapolation(self):
        profile = AttenuationProfile.from_table([180.0, 200.0], [0.2, 0.3])
        with pytest.raises(ConfigurationError, match="support"):
            attenuation_at(profile, 210.0)

    def test_vectorized(self):
        profile = AttenuationProfile.parabolic(0.04, 193.0, 1e-4)
        out = attenuation_at(profile, np.array([192.0, 193.0, 194.0]))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.04)


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "bad, match",
        [(np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (-1e-3, "non-negative")],
    )
    def test_power_spectrum_rejects_bad_powers(self, bad, match):
        grid = build_channel_grid("C")
        powers = np.full(grid.n_channels, 1e-3)
        powers[5] = bad
        with pytest.raises(ConfigurationError, match=match):
            PowerSpectrum(grid, powers)

    @pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, -1.0])
    def test_fiber_length_must_be_positive_and_finite(self, length):
        with pytest.raises(ConfigurationError, match="fiber length"):
            FiberSpec(default_attenuation(), default_raman(), length)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: AmplifierSpec("fixed-gain", gain=np.nan), "linear gain"),
            (lambda: AmplifierSpec("fixed-gain", gain=np.inf), "linear gain"),
            (lambda: AmplifierSpec(noise_figure_db={"C": np.nan}), "noise figure for band 'C'"),
            (lambda: TargetSpectrum.absolute_dbm(build_channel_grid("C"), np.nan),
             "target values"),
            (lambda: TargetSpectrum(build_channel_grid("C"), np.full(81, np.inf)),
             "target values"),
            (lambda: AttenuationProfile.constant(np.nan), "constant attenuation"),
            (lambda: AttenuationProfile.parabolic(np.nan, 193.5, 1e-5), "minimum attenuation"),
            (lambda: AttenuationProfile.parabolic(0.04, np.nan, 1e-5), "vertex and curvature"),
            (lambda: AttenuationProfile.parabolic(0.04, 193.5, np.nan), "vertex and curvature"),
            (lambda: AttenuationProfile.from_table([190.0, 196.0], [0.2, np.nan]),
             "tabulated attenuation must"),
            (lambda: AttenuationProfile.from_table([190.0, np.nan], [0.2, 0.2]),
             "tabulated attenuation frequencies"),
            (lambda: RamanGainModel.triangular(slope=np.nan), "triangular gain"),
            (lambda: RamanGainModel.triangular(peak=np.nan), "triangular gain"),
            (lambda: RamanGainModel.triangular(peak=0.4, window=np.inf), "triangular gain"),
            (lambda: RamanGainModel.from_table([0.0, 13.0], [0.0, np.nan]), "tabulated gain"),
            (lambda: RamanGainModel.from_table([np.nan, 13.0], [0.0, 0.4]),
             "tabulated separations"),
            (lambda: SolverOptions(steps_per_span=2.5), "steps_per_span must be an integer"),
            (lambda: build_channel_grid("C", np.nan), "spacing"),
            (lambda: ChannelGrid(np.array([193.0]), np.nan, (Band("X", 192.975, 193.025),)),
             "spacing"),
        ],
        ids=["amp-gain-nan", "amp-gain-inf", "amp-nf-nan", "target-nan", "target-inf",
             "constant-alpha-nan", "parabolic-alpha-nan", "parabolic-vertex-nan",
             "parabolic-curvature-nan", "tabulated-alpha-nan", "tabulated-frequency-nan",
             "raman-slope-nan", "raman-peak-nan", "raman-window-inf", "raman-table-nan",
             "raman-separation-nan", "steps-not-integer", "grid-spacing-nan",
             "channel-grid-spacing-nan"],
    )
    def test_value_types_reject_non_finite_parameters(self, build, match):
        with pytest.raises(ConfigurationError, match=match):
            build()
