"""Wideband WDM power evolution under inter-channel Raman transfer and loss.

A numerical fixed-step solver for the coupled per-channel power equations, a
closed-form approximation of the resulting profiles, multi-span propagation
with total-power-restoring amplifiers, and the inverse problem: launch-power
pre-emphasis hitting a target output power or OSNR shape.
"""

from .bench import (
    SweepConfig,
    SweepRecord,
    SweepSummary,
    run_order_sweep,
    total_power_error_ratio,
)
from .closedform import (
    ClosedFormParams,
    derive_params,
    power_profile,
    shaping_function,
    total_attenuation_coefficient,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    NumericalInstabilityError,
    RootBracketError,
)
from .inverse import (
    TargetSpectrum,
    closedform_params_from_output,
    preemphasis_multispan,
    preemphasis_single_span,
)
from .multispan import (
    AmplifierSpec,
    LinkSpec,
    MultiSpanResult,
    propagate_multispan_closedform,
    span_gain,
)
from .ode_oracle import (
    PropagationResult,
    SolverOptions,
    integrate_span,
    isrs_derivative,
    propagate_link_numerical,
)
from .osnr import (
    NoiseSpectrum,
    OsnrTargetRun,
    ase_accumulate,
    ase_from_result,
    ase_injection,
    osnr_profile,
    target_osnr,
)
from .profiles import (
    AttenuationProfile,
    Band,
    ChannelGrid,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    attenuation_at,
    build_channel_grid,
    convert_units,
    default_attenuation,
    default_raman,
    raman_gain_at,
)

__version__ = "0.1.0"
