"""Every integer count, on/off flag and real-valued scalar the library takes goes through one rule."""

import dataclasses
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from isrsprop import (
    AmplifierSpec,
    AttenuationProfile,
    Band,
    ChannelGrid,
    ConfigurationError,
    ConvergenceError,
    FiberSpec,
    LinkSpec,
    NoiseSpectrum,
    PowerSpectrum,
    RamanGainModel,
    SolverOptions,
    SweepConfig,
    TargetSpectrum,
    ase_from_result,
    ase_injection,
    build_channel_grid,
    default_attenuation,
    default_raman,
    preemphasis_multispan,
    preemphasis_single_span,
    propagate_multispan_closedform,
    shaping_function,
    span_gain,
    target_osnr,
)
from isrsprop.closedform import (
    derive_params,
    power_profile,
    power_profiles,
    total_attenuation_coefficient,
)
from isrsprop.config import parse_config
from isrsprop.profiles import convert_units

GRID = build_channel_grid("C")
FIBER = FiberSpec(default_attenuation(), default_raman(0.4), 50.0)
LAUNCH = PowerSpectrum.flat_dbm(GRID, -1.0)
OSNR_LINK = LinkSpec.uniform(FIBER, 2, amplifier=AmplifierSpec(noise_figure_db={"C": 5.5}))
PARAMS = derive_params(LAUNCH, FIBER)
OSNR_RESULT = propagate_multispan_closedform(LAUNCH, OSNR_LINK, 3)


def _target_osnr(max_iterations):
    try:
        return target_osnr(TargetSpectrum.flat_shape(GRID), OSNR_LINK, 0.064,
                           max_iterations=max_iterations)
    except ConvergenceError:  # the count was taken; the loop ran out of iterations
        return None


# (name in the message, a call that passes its argument as that count)
COUNTS = [
    ("sweep raman_peak_count", lambda n: SweepConfig(raman_peak_count=n)),
    ("sweep launch_power_count", lambda n: SweepConfig(launch_power_count=n)),
    ("sweep length_count", lambda n: SweepConfig(length_count=n)),
    ("sweep steps_per_span", lambda n: SweepConfig(steps_per_span=n)),
    ("sweep orders", lambda n: SweepConfig(orders=(n,))),
    ("steps_per_span", lambda n: SolverOptions(steps_per_span=n)),
    ("approximation order",
     lambda n: total_attenuation_coefficient(LAUNCH, FIBER.attenuation, n)),
    ("max_iterations", _target_osnr),
    ("order", lambda n: dataclasses.replace(parse_config({}), order=n)),
    ("n_spans", lambda n: LinkSpec.uniform(FIBER, n)),
]
COUNT_IDS = [name.replace(" ", "-") for name, _ in COUNTS]


@pytest.mark.parametrize("name, call", COUNTS, ids=COUNT_IDS)
@pytest.mark.parametrize("value", [True, False, np.True_, 0, -1, 2.5, "3"],
                         ids=["True", "False", "np.True_", "0", "-1", "2.5", "str"])
def test_count_rejects_what_is_not_an_integer_from_1(name, call, value):
    # True passed as 1 through the sweep and solver counts, and a
    # fractional span count failed with a bare TypeError
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(f'{name} must be an integer >= 1, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("name, call", COUNTS, ids=COUNT_IDS)
@pytest.mark.parametrize("value", [1, np.int64(3)], ids=["1", "np.int64"])
def test_count_accepts_python_and_numpy_integers(name, call, value):
    call(value)


FLAGS = [
    ("photon_correction", lambda flag: SolverOptions(photon_correction=flag)),
    ("receiver_boost", lambda flag: LinkSpec((FIBER,), receiver_boost=flag)),
    ("receiver_boost", lambda flag: LinkSpec.uniform(FIBER, 2, receiver_boost=flag)),
    ("normalized", lambda flag: TargetSpectrum(GRID, np.ones(GRID.n_channels), normalized=flag)),
    ("rmse_in_db",
     lambda flag: target_osnr(TargetSpectrum.flat_shape(GRID), OSNR_LINK, 0.064, rmse_in_db=flag)),
    ("refresh_reference",
     lambda flag: dataclasses.replace(parse_config({}), refresh_reference=flag)),
    ("refresh_reference",
     lambda flag: power_profile(LAUNCH, PARAMS, FIBER.raman.slope, 10.0, flag)),
    ("refresh_reference",
     lambda flag: power_profiles(LAUNCH, PARAMS, FIBER.raman.slope, [0.0, 10.0], flag)),
]
FLAG_IDS = ["photon", "boost", "boost-uniform", "normalized", "rmse_in_db", "refresh-config",
            "refresh-profile", "refresh-profiles"]


@pytest.mark.parametrize("name, call", FLAGS, ids=FLAG_IDS)
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_flag_rejects_what_is_not_a_boolean(name, call, value):
    # the string "false" is truthy, so it turned the option on
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(f'{name} must be True or False, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("name, call", FLAGS, ids=FLAG_IDS)
@pytest.mark.parametrize("value", [True, False, np.False_])
def test_flag_accepts_booleans(name, call, value):
    call(value)


class Real(NamedTuple):
    """A real-valued scalar input: the name its messages give, a call that passes its
    argument as that input, a good value, the value and bound of a range violation (or
    None where the rule checks no range), the value-type field it covers, if any, and
    whether None selects a default there."""

    name: str
    call: Callable
    good: float
    below: tuple[float, str] | None = None
    field: str | None = None
    optional: bool = False


REALS = [
    Real("band 'X' f_low", lambda x: Band("X", x, 191.0), 190.0, field="Band.f_low"),
    Real("band 'X' f_high", lambda x: Band("X", 190.0, x), 191.0, field="Band.f_high"),
    Real("spacing", lambda x: build_channel_grid([("X", 190.0, 191.0)], x), 0.05, (0.0, "> 0")),
    Real("spacing", lambda x: ChannelGrid(np.array([190.025]), x, (Band("X", 190.0, 190.05),)),
         0.05, (-0.05, "> 0"), "ChannelGrid.spacing"),
    Real("sweep spacing", lambda x: SweepConfig(spacing=x), 0.05, (0.0, "> 0"),
         "SweepConfig.spacing"),
    Real("constant attenuation", AttenuationProfile.constant, 0.04, (0.0, "> 0"),
         "AttenuationProfile.alpha"),
    Real("parabolic minimum attenuation", lambda x: AttenuationProfile.parabolic(x, 193.5, 2e-5),
         0.04, (-0.04, "> 0")),
    Real("parabolic vertex", lambda x: AttenuationProfile.parabolic(0.04, x, 2e-5), 193.5,
         field="AttenuationProfile.vertex"),
    Real("parabolic curvature", lambda x: AttenuationProfile.parabolic(0.04, 193.5, x), 2e-5,
         field="AttenuationProfile.curvature"),
    Real("triangular gain slope", lambda x: RamanGainModel("triangular", slope=x, window=15.5),
         0.03, (-0.03, ">= 0"), "RamanGainModel.slope"),
    Real("triangular gain window", lambda x: RamanGainModel.triangular(slope=0.03, window=x),
         15.5, (0.0, "> 0"), "RamanGainModel.window"),
    Real("triangular gain peak", lambda x: RamanGainModel.triangular(peak=x), 0.4,
         (-0.4, ">= 0"), optional=True),
    Real("triangular gain peak separation",
         lambda x: RamanGainModel.triangular(peak=0.4, peak_separation=x), 14.0, (0.0, "> 0")),
    Real("triangular gain window", lambda x: SweepConfig(raman_window=x), 15.5, (0.0, "> 0"),
         "SweepConfig.raman_window"),
    Real("triangular gain peak separation", lambda x: SweepConfig(raman_peak_separation=x), 14.0,
         (-14.0, "> 0"), "SweepConfig.raman_peak_separation"),
    Real("fiber length", lambda x: FiberSpec(default_attenuation(), default_raman(0.4), x), 50.0,
         (0.0, "> 0"), "FiberSpec.length"),
    Real("fixed-gain amplifier gain", lambda x: AmplifierSpec("fixed-gain", gain=x), 10.0,
         (0.0, "> 0"), "AmplifierSpec.gain"),
    Real("noise figure for band 'C'", lambda x: AmplifierSpec(noise_figure_db={"C": x}), 5.5,
         (-5.5, "> 0"), "AmplifierSpec.noise_figure_db"),
    Real("OSNR reference bandwidth",
         lambda x: NoiseSpectrum(GRID, np.ones(GRID.n_channels), z=0.0, reference_bandwidth=x),
         0.0125, (-0.05, "> 0"), "NoiseSpectrum.reference_bandwidth"),
    Real("OSNR reference bandwidth", lambda x: ase_injection(GRID, {"C": 5.5}, 100.0, x), 0.0125,
         (-0.05, "> 0")),
    Real("OSNR reference bandwidth", lambda x: ase_from_result(OSNR_RESULT, x), 0.0125,
         (0.0, "> 0"), optional=True),
    Real("OSNR reference bandwidth",
         lambda x: target_osnr(TargetSpectrum.flat_shape(GRID), OSNR_LINK, 0.064,
                               reference_bandwidth=x), 0.0125, (0.0, "> 0"), optional=True),
    Real("step", lambda x: target_osnr(TargetSpectrum.flat_shape(GRID), OSNR_LINK, 0.064, step=x),
         1.0, (0.0, "> 0")),
    Real("tolerance",
         lambda x: target_osnr(TargetSpectrum.flat_shape(GRID), OSNR_LINK, 0.064, tolerance=x),
         1e-5, (-1e-5, "> 0")),
    Real("total_launch_power",
         lambda x: target_osnr(TargetSpectrum.flat_shape(GRID), OSNR_LINK, x), 0.064,
         (0.0, "> 0")),
    Real("total_launch_power",
         lambda x: preemphasis_single_span(TargetSpectrum.flat_shape(GRID), FIBER, 3, x), 0.064,
         (-0.064, "> 0")),
    Real("total_launch_power",
         lambda x: preemphasis_multispan(TargetSpectrum.flat_shape(GRID), OSNR_LINK, x), 0.064,
         (0.0, "> 0")),
    # a string divided a float with a bare TypeError, and NaN gave a NaN gain
    Real("total_launch_power", lambda x: span_gain(LAUNCH, x), 0.064, (0.0, "> 0")),
    # text raised a bare ValueError, and None only "channel powers must be finite"
    Real("dbm_per_channel", lambda x: PowerSpectrum.flat_dbm(GRID, x), -1.0),
    Real("slope", lambda x: power_profile(LAUNCH, PARAMS, x, 10.0), 0.03, (-1.0, ">= 0")),
    Real("slope", lambda x: power_profiles(LAUNCH, PARAMS, x, [0.0, 10.0]), 0.03, (-1.0, ">= 0")),
    # a z outside the span keeps its own message, naming the span
    Real("z", lambda x: power_profile(LAUNCH, PARAMS, FIBER.raman.slope, x), 10.0),
    Real("z", lambda x: power_profiles(LAUNCH, PARAMS, FIBER.raman.slope, [0.0, x]), 10.0),
    # NaN gave NaN, and text a bare TypeError
    Real("z", PARAMS.total_power_at, 10.0),
    Real("window", lambda x: shaping_function(LAUNCH, x), 15.5, (0.0, "> 0")),
    # the peaks' range is the triangular gain peak's, checked at the lowest peak
    Real("sweep raman_peak_range", lambda x: SweepConfig(raman_peak_range=(x, 0.4)), 0.3,
         field="SweepConfig.raman_peak_range"),
    Real("sweep launch_power_dbm_range", lambda x: SweepConfig(launch_power_dbm_range=(-5.0, x)),
         0.0, field="SweepConfig.launch_power_dbm_range"),
    Real("sweep length_range_km", lambda x: SweepConfig(length_range_km=(x, 150.0)), 50.0,
         (0.0, "> 0"), "SweepConfig.length_range_km"),
    # the config names the key; its range is the fiber length's
    Real("fiber.length_km", lambda x: parse_config({"fiber": {"length_km": x}}), 50.0),
]
REAL_IDS = ["f_low", "f_high", "spacing", "grid-spacing", "sweep-spacing", "constant-alpha",
            "parabolic-alpha", "vertex", "curvature", "slope", "window", "peak",
            "peak-separation", "sweep-window", "sweep-peak-separation", "length", "fixed-gain",
            "noise-figure", "noise-bandwidth", "injection-bandwidth", "accumulate-bandwidth",
            "target-bandwidth", "step", "tolerance", "target-total", "single-span-total",
            "multispan-total", "span-gain-total", "flat-dbm", "profile-slope", "profiles-slope",
            "profile-z", "profiles-z", "total-power-z", "shaping-window", "sweep-peaks", "sweep-launch", "sweep-lengths", "config-number"]


def _raises_exactly(message: str):
    return pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$")


NOT_NUMBERS = {"str": "a", "numeric-str": "0.05", "None": None, "True": True, "False": False,
               "np.True_": np.True_}
# a None that selects a default (the grid spacing as bandwidth, a peak beside a slope) is no error
NOT_NUMBER_CASES = [(real, value, f"{key}-{real_id}") for key, value in NOT_NUMBERS.items()
                    for real, real_id in zip(REALS, REAL_IDS) if value is not None or not real.optional]


@pytest.mark.parametrize("real, value", [case[:2] for case in NOT_NUMBER_CASES],
                         ids=[case[2] for case in NOT_NUMBER_CASES])
def test_real_rejects_what_is_not_a_number(real, value):
    # a string or None failed with a bare TypeError from a comparison, and True ran as 1
    with _raises_exactly(f"{real.name} must be a real number, got {value!r}"):
        real.call(value)


@pytest.mark.parametrize("real", REALS, ids=REAL_IDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64(np.nan), -10**400],
                         ids=["nan", "inf", "-inf", "np.nan", "int-past-float"])
def test_real_rejects_what_is_not_finite(real, value):
    # ase_injection returned NaN noise for a NaN bandwidth, and an int past the
    # float range raised a bare OverflowError from math.isfinite
    with _raises_exactly(f"{real.name} must be finite, got {value!r}"):
        real.call(value)


RANGED = [real for real in REALS if real.below is not None]


@pytest.mark.parametrize("real", RANGED,
                         ids=[i for i, real in zip(REAL_IDS, REALS) if real.below is not None])
def test_real_rejects_its_range_violation(real):
    # ase_injection returned negative noise for a negative bandwidth, and
    # power_profile took a negative slope
    value, bound = real.below
    with _raises_exactly(f"{real.name} must be {bound}, got {value!r}"):
        real.call(value)


@pytest.mark.parametrize("real", REALS, ids=REAL_IDS)
@pytest.mark.parametrize("kind", [float, np.float64])
def test_real_accepts_python_and_numpy_floats(real, kind):
    real.call(kind(real.good))


VALUE_TYPES = [Band, ChannelGrid, AttenuationProfile, RamanGainModel, FiberSpec, AmplifierSpec,
               NoiseSpectrum, SweepConfig]


def test_every_real_field_of_the_value_types_has_a_row():
    # a new float field without the rule fails here; the z positions are bookkeeping
    fields = {f"{cls.__name__}.{f.name}" for cls in VALUE_TYPES for f in dataclasses.fields(cls)
              if f.init and "float" in str(f.type) and f.name != "z"}
    covered = {real.field for real in REALS}
    assert fields - covered == set()
    assert covered - fields == {None}


@pytest.mark.parametrize("z", [-5, -1e-9, 50.0 + 1e-9, 60.0])
def test_total_power_at_rejects_a_z_outside_the_span(z):
    # -5 km gave a value extrapolated before the launch
    with _raises_exactly(f"z = {z} km outside the span [0, 50.0] km"):
        PARAMS.total_power_at(z)


def test_total_power_at_takes_either_end_of_the_span():
    assert PARAMS.total_power_at(0) == PARAMS.total_launch_power
    assert PARAMS.total_power_at(50.0) == PARAMS.total_launch_power * math.exp(-PARAMS.alpha0 * 50.0)


# 10 ** (x / 10) past the float range raised a bare OverflowError, and the log of a
# scalar <= 0 a bare ValueError ("math domain error")
DB_SCALARS = [
    (lambda: convert_units(1e308, "dBm", "W"), "1e+308 dBm is too large to convert to W"),
    (lambda: convert_units(5000, "dB", "linear"), "5000.0 dB is too large to convert to linear"),
    (lambda: PowerSpectrum.flat_dbm(GRID, 5000.0), "5000.0 dBm is too large to convert to W"),
    (lambda: convert_units(0.0, "W", "dBm"), "0.0 W has no value in dBm: it must be > 0"),
    (lambda: convert_units(-1e-3, "W", "dBm"), "-0.001 W has no value in dBm: it must be > 0"),
    (lambda: convert_units(0.0, "linear", "dB"), "0.0 linear has no value in dB: it must be > 0"),
    (lambda: ase_injection(GRID, {"C": 1e308}, 100.0, 0.0125),
     "noise figure for band 'C': 1e+308 dB is too large to convert to linear"),
]


@pytest.mark.parametrize("call, message", DB_SCALARS,
                         ids=["dbm-to-w", "db-to-linear", "flat-dbm", "zero-w", "negative-w",
                              "zero-linear", "noise-figure"])
def test_a_scalar_db_conversion_out_of_range_is_a_config_error(call, message):
    with _raises_exactly(message):
        call()


def test_an_array_db_conversion_keeps_numpy_results():
    # only the scalar path raises: an array overflows to inf and takes -inf dB at 0, as numpy does
    x = np.array([1e308, -1.25, 0.0])
    with np.errstate(over="ignore", divide="ignore"):
        assert np.array_equal(convert_units(x, "dBm", "W"), 10.0 ** (x / 10.0) * 1e-3)
        assert np.array_equal(convert_units(x, "dB", "linear"), 10.0 ** (x / 10.0))
        assert np.array_equal(convert_units(np.array([0.0, 1e-3]), "W", "dBm"), [-np.inf, 0.0])


@pytest.mark.parametrize("gain, message", [
    # text raised a bare UFuncTypeError, None a bare TypeError
    ("a", "gain must be a real number or array, got 'a'"),
    (None, "gain must be a real number or array, got None"),
    (np.nan, "channel powers must be finite"),
    (-1.0, "channel powers must be non-negative"),
], ids=["str", "None", "nan", "negative"])
def test_scaled_rejects_a_bad_gain(gain, message):
    with _raises_exactly(message):
        LAUNCH.scaled(gain)
