"""Every integer count and on/off flag the library takes goes through one rule."""

import dataclasses
import re

import numpy as np
import pytest

from isrsprop import (
    AmplifierSpec,
    ConfigurationError,
    ConvergenceError,
    FiberSpec,
    LinkSpec,
    PowerSpectrum,
    SolverOptions,
    SweepConfig,
    TargetSpectrum,
    build_channel_grid,
    default_attenuation,
    default_raman,
    run_order_sweep,
    target_osnr,
)
from isrsprop.closedform import (
    derive_params,
    power_profile,
    power_profiles,
    total_attenuation_coefficient,
)
from isrsprop.config import parse_config

GRID = build_channel_grid("C")
FIBER = FiberSpec(default_attenuation(), default_raman(0.4), 50.0)
LAUNCH = PowerSpectrum.flat_dbm(GRID, -1.0)
ONE_CELL_SWEEP = SweepConfig(band_plans=("C",), raman_peak_count=1, launch_power_count=1,
                             length_count=1, orders=(1,), steps_per_span=2)
OSNR_LINK = LinkSpec.uniform(FIBER, 2, amplifier=AmplifierSpec(noise_figure_db={"C": 5.5}))
PARAMS = derive_params(LAUNCH, FIBER)


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
    ("workers", lambda n: run_order_sweep(ONE_CELL_SWEEP, workers=n)),
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
