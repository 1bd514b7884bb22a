"""Channel grids, power spectra, band plans, attenuation and Raman gain models.

Internal unit convention, used everywhere in this package:

* frequency in THz,
* distance in km,
* power in W,
* attenuation as Napierian coefficient in 1/km.

dB, dBm and dB/km appear only at I/O boundaries (config files, CSV output).
Config inputs in those units (powers, targets, attenuation) are converted
through :func:`convert_units`, which the dBm constructors here also use.

The package's input rules live here: every real-valued scalar input goes
through :func:`_check_real`, every count through :func:`_check_count` and
every flag through :func:`_check_flag`, each raising one
:class:`ConfigurationError` that names the input and the value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError

LN10 = math.log(10.0)

#: Planck constant, J*s (exact SI value).
PLANCK = 6.62607015e-34

#: Default band edges in THz, chosen so that the C, CL, CLU and SCL plans
#: span 4.05, 11.15, 16.65 and 20.90 THz respectively.  Fully configurable;
#: these are conventional transmission windows, not a standard.
DEFAULT_BAND_EDGES: Mapping[str, tuple[float, float]] = {
    "U": (179.10, 184.60),
    "L": (184.60, 191.70),
    "C": (191.70, 195.75),
    "S": (195.75, 205.50),
}

#: Named multi-band plans, listed in ascending frequency order.
BAND_PLANS: Mapping[str, tuple[str, ...]] = {
    "C": ("C",),
    "CL": ("L", "C"),
    "CLU": ("U", "L", "C"),
    "SCL": ("L", "C", "S"),
    "SCLU": ("U", "L", "C", "S"),
}

#: Default channel spacing in THz (50 GHz).
DEFAULT_SPACING = 0.05

_EDGE_TOL = 1e-9


def convert_units(value, src: str, dst: str):
    """Convert between boundary units and internal linear units.

    Supported pairs: ``dB/km <-> 1/km`` (factor ln(10)/10), ``dBm <-> W``
    and ``dB <-> linear``.  Accepts scalars or numpy arrays; each round trip
    agrees to floating-point precision, not bit for bit.  An array and a
    scalar of one value may differ by 1 ulp: numpy's vectorized power and
    libm round differently (about 5% of dBm values in [-60, 40], 10452 of
    201006 evenly spaced ones, -1.25 dBm among them), so a launch table of
    equal dBm values and a flat launch of that dBm need not share bits.
    A value that is not a number, such as text, is a :class:`ConfigurationError`,
    and so is a scalar whose linear value overflows (10 ** (x / 10) past the
    float range) or a scalar power or ratio <= 0, which has no dB value; an
    array gives inf or NaN there, as numpy does.
    """
    try:
        value = np.asarray(value, dtype=float) if not np.isscalar(value) else float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"value must be a real number, got {value!r}") from None
    pair = (src, dst)
    try:
        if pair == ("dB/km", "1/km"):
            return value * (LN10 / 10.0)
        if pair == ("1/km", "dB/km"):
            return value * (10.0 / LN10)
        if pair == ("dBm", "W"):
            return 10.0 ** (value / 10.0) * 1e-3
        if pair == ("W", "dBm"):
            return (10.0 * np.log10(value / 1e-3) if not np.isscalar(value)
                    else 10.0 * math.log10(value / 1e-3))
        if pair == ("dB", "linear"):
            return 10.0 ** (value / 10.0)
        if pair == ("linear", "dB"):
            return 10.0 * np.log10(value) if not np.isscalar(value) else 10.0 * math.log10(value)
    except OverflowError:  # only the scalar pow raises; numpy's gives inf
        raise ConfigurationError(f"{value!r} {src} is too large to convert to {dst}") from None
    except ValueError:  # math.log10 of a scalar <= 0
        raise ConfigurationError(f"{value!r} {src} has no value in {dst}: it must be > 0") from None
    raise ConfigurationError(f"unsupported unit conversion {src!r} -> {dst!r}")


def _freeze(array, dtype=float) -> np.ndarray:
    """A read-only copy of ``array`` as ``dtype``."""
    out = np.asarray(array, dtype=dtype).copy()
    out.flags.writeable = False
    return out


def _check_count(value, name: str) -> None:
    """Reject a ``name`` that is not an integer >= 1; booleans are not counts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")


def _check_real(value, name: str, low=None, strict: bool = True) -> None:
    """Reject a ``name`` that is not a finite real number above ``low`` (at least ``low``
    when not ``strict``): a string, ``None``, a boolean taken as 0 or 1, NaN or +-inf.

    The one rule for a real-valued scalar input; arrays and derived values have their own.
    """
    # a float (np.float64 too) skips the abstract numbers.Real test, which is far slower
    if not isinstance(value, float) and (isinstance(value, (bool, np.bool_))
                                         or not isinstance(value, numbers.Real)):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ConfigurationError(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")


def _check_finite(values: np.ndarray, name: str) -> None:
    """Reject a float array ``name`` that holds NaN or +-inf, naming the first such value."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ConfigurationError(f"{name} must be finite, got {float(values[~finite][0])!r}")


def _check_flag(value, name: str) -> None:
    """Reject a ``name`` that is not a boolean: a string such as ``"false"`` is truthy."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be True or False, got {value!r}")


@dataclass(frozen=True)
class Band:
    """A contiguous spectral region [f_low, f_high) in THz."""

    name: str
    f_low: float
    f_high: float

    def __post_init__(self):
        _check_real(self.f_low, f"band {self.name!r} f_low")
        _check_real(self.f_high, f"band {self.name!r} f_high")
        if not self.f_high > self.f_low:
            raise ConfigurationError(f"band {self.name!r}: f_high must exceed f_low")

    @property
    def width(self) -> float:
        return self.f_high - self.f_low


@dataclass(frozen=True)
class ChannelGrid:
    """Uniformly spaced channel centers partitioned into contiguous bands.

    Channels sit at bin centers: channel k is at ``f_min + (k + 1/2) * spacing``,
    so per-channel power P = S * spacing is a consistent discretization of a
    power spectral density S.  A plain value: only ``__post_init__`` sets it, and checks its bands.
    """

    frequencies: np.ndarray
    spacing: float
    bands: tuple[Band, ...]
    band_index: np.ndarray = field(init=False)

    def __post_init__(self):
        freqs = _freeze(self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        if freqs.ndim != 1 or freqs.size == 0:
            raise ConfigurationError("grid needs at least one channel")
        _check_real(self.spacing, "spacing", 0)
        diffs = np.diff(freqs)
        if freqs.size > 1 and not np.all(np.abs(diffs - self.spacing) <= _EDGE_TOL):
            raise ConfigurationError("channel frequencies must be uniformly spaced")
        bands = tuple(sorted(self.bands, key=lambda b: b.f_low))
        object.__setattr__(self, "bands", bands)
        for prev, nxt in zip(bands, bands[1:]):
            if abs(prev.f_high - nxt.f_low) > _EDGE_TOL:
                raise ConfigurationError(
                    f"bands {prev.name!r} and {nxt.name!r} are not contiguous"
                )
        index = np.full(freqs.size, -1, dtype=int)
        for i, b in enumerate(bands):
            inside = (freqs >= b.f_low - _EDGE_TOL) & (freqs < b.f_high - _EDGE_TOL)
            if np.any(index[inside] >= 0):
                raise ConfigurationError("bands overlap")
            index[inside] = i
        if np.any(index < 0):
            bad = freqs[index < 0][0]
            raise ConfigurationError(f"channel at {bad:.6f} THz lies outside every band")
        expected = round(self.total_bandwidth / self.spacing)
        if freqs.size != expected:
            raise ConfigurationError(
                f"channel count {freqs.size} does not fill the plan "
                f"({self.total_bandwidth:.6f} THz at {self.spacing} THz spacing)"
            )
        object.__setattr__(self, "band_index", _freeze(index, dtype=int))

    @property
    def n_channels(self) -> int:
        return self.frequencies.size

    @property
    def f_min(self) -> float:
        return self.bands[0].f_low

    @property
    def f_max(self) -> float:
        return self.bands[-1].f_high

    @property
    def total_bandwidth(self) -> float:
        return self.f_max - self.f_min

    def band_names(self) -> list[str]:
        """Band name of every channel, in grid order."""
        return [self.bands[i].name for i in self.band_index]


@dataclass(frozen=True)
class PowerSpectrum:
    """Per-channel powers (W) at position ``z`` (km) on a shared grid."""

    grid: ChannelGrid
    powers: np.ndarray
    z: float = 0.0

    def __post_init__(self):
        p = _freeze(self.powers)
        if p.shape != (self.grid.n_channels,):
            raise ConfigurationError(
                f"expected {self.grid.n_channels} powers, got shape {p.shape}"
            )
        self._check(p)
        object.__setattr__(self, "powers", p)

    @staticmethod
    def _check(powers: np.ndarray) -> None:
        """Reject channel powers that are not finite or are negative."""
        # min and max propagate NaN, so two reductions catch every bad value
        # without another pass over the array: spectra are built in hot loops
        lo, hi = powers.min(), powers.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError("channel powers must be finite")
        if lo < 0:
            raise ConfigurationError("channel powers must be non-negative")

    @property
    def total_power(self) -> float:
        return float(self.powers.sum())

    def scaled(self, gain, z: float | None = None) -> "PowerSpectrum":
        """New spectrum with powers multiplied by a scalar or per-channel gain."""
        try:
            powers = self.powers * gain
        except TypeError:  # numpy's UFuncTypeError for text is one
            raise ConfigurationError(f"gain must be a real number or array, got {gain!r}") from None
        return PowerSpectrum(self.grid, powers, self.z if z is None else z)

    @classmethod
    def flat_dbm(cls, grid: ChannelGrid, dbm_per_channel: float, z: float = 0.0) -> "PowerSpectrum":
        """Every channel at ``dbm_per_channel`` dBm, a finite real number."""
        _check_real(dbm_per_channel, "dbm_per_channel")
        return cls(grid, np.full(grid.n_channels, convert_units(dbm_per_channel, "dBm", "W")), z)


def _same_grid(a: ChannelGrid, b: ChannelGrid) -> bool:
    """True when two grids are one object, or have equal spacing and frequencies."""
    return a is b or (a.spacing == b.spacing and np.array_equal(a.frequencies, b.frequencies))


def build_channel_grid(
    band_plan: str | Sequence[Band] | Sequence[tuple[str, float, float]],
    spacing: float = DEFAULT_SPACING,
) -> ChannelGrid:
    """Build a channel grid from a named plan or explicit band edges.

    ``band_plan`` is either a plan name (``"C"``, ``"CL"``, ``"CLU"``,
    ``"SCL"``, ``"SCLU"``), or a sequence of :class:`Band` /
    ``(name, f_low, f_high)`` tuples.  Every band width must be an integer
    multiple of ``spacing`` so channels fill the bands exactly.
    """
    _check_real(spacing, "spacing", 0)
    if isinstance(band_plan, str):
        try:
            names = BAND_PLANS[band_plan]
        except KeyError:
            raise ConfigurationError(
                f"unknown band plan {band_plan!r}; expected one of {sorted(BAND_PLANS)}"
            ) from None
        bands = [Band(n, *DEFAULT_BAND_EDGES[n]) for n in names]
    elif isinstance(band_plan, Sequence) and all(
        isinstance(b, Band) or (isinstance(b, Sequence) and not isinstance(b, str) and len(b) == 3)
        for b in band_plan
    ):
        bands = [b if isinstance(b, Band) else Band(*b) for b in band_plan]
    else:
        raise ConfigurationError(
            "band_plan must be a plan name or a sequence of bands or (name, f_low, f_high) "
            f"tuples, got {band_plan!r}"
        )
    if not bands:
        raise ConfigurationError("a channel grid needs at least one band")
    bands.sort(key=lambda b: b.f_low)
    for b in bands:
        n_b = b.width / spacing
        if abs(n_b - round(n_b)) > 1e-6:
            raise ConfigurationError(
                f"band {b.name!r} width {b.width:.6f} THz is not an integer "
                f"multiple of the {spacing} THz spacing"
            )
    f_min = bands[0].f_low
    n = round((bands[-1].f_high - f_min) / spacing)
    freqs = f_min + (np.arange(n) + 0.5) * spacing
    return ChannelGrid(frequencies=freqs, spacing=spacing, bands=tuple(bands))


@dataclass(frozen=True)
class AttenuationProfile:
    """Frequency-dependent fiber loss, Napierian 1/km internally.

    Three kinds: ``constant``, ``parabolic`` (value + curvature around a
    vertex frequency) and ``tabulated`` (piecewise-linear interpolation of
    dB/km samples, no extrapolation).
    """

    kind: str
    alpha: float = 0.0
    vertex: float = 0.0
    curvature: float = 0.0
    sample_frequencies: np.ndarray | None = None
    sample_db_per_km: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "constant":
            _check_real(self.alpha, "constant attenuation", 0)
        elif self.kind == "parabolic":
            _check_real(self.alpha, "parabolic minimum attenuation", 0)
            _check_real(self.vertex, "parabolic vertex")
            _check_real(self.curvature, "parabolic curvature")
        elif self.kind == "tabulated":
            f = _freeze(self.sample_frequencies)
            a = _freeze(self.sample_db_per_km)
            if f.size < 2 or f.size != a.size:
                raise ConfigurationError("tabulated attenuation needs matching f/alpha samples")
            if not (np.isfinite(f).all() and (np.diff(f) > 0).all()):
                raise ConfigurationError(
                    "tabulated attenuation frequencies must be finite and ascending")
            if not ((a > 0) & (a < math.inf)).all():
                raise ConfigurationError("tabulated attenuation must be positive and finite")
            object.__setattr__(self, "sample_frequencies", f)
            object.__setattr__(self, "sample_db_per_km", a)
        else:
            raise ConfigurationError(f"unknown attenuation kind {self.kind!r}")

    @classmethod
    def constant(cls, alpha_per_km: float) -> "AttenuationProfile":
        """Flat profile; ``alpha_per_km`` in Napierian 1/km."""
        return cls(kind="constant", alpha=alpha_per_km)

    @classmethod
    def constant_db(cls, db_per_km: float) -> "AttenuationProfile":
        return cls.constant(convert_units(db_per_km, "dB/km", "1/km"))

    @classmethod
    def parabolic(cls, alpha_min: float, vertex: float, curvature: float) -> "AttenuationProfile":
        """``alpha_min`` in 1/km at ``vertex`` THz, ``curvature`` in 1/km/THz^2."""
        return cls(kind="parabolic", alpha=alpha_min, vertex=vertex, curvature=curvature)

    @classmethod
    def parabolic_db(cls, min_db_per_km: float, vertex: float, curvature_db: float) -> "AttenuationProfile":
        return cls.parabolic(
            convert_units(min_db_per_km, "dB/km", "1/km"),
            vertex,
            convert_units(curvature_db, "dB/km", "1/km"),
        )

    @classmethod
    def from_table(cls, frequencies_thz, db_per_km) -> "AttenuationProfile":
        return cls(
            kind="tabulated",
            sample_frequencies=np.asarray(frequencies_thz, dtype=float),
            sample_db_per_km=np.asarray(db_per_km, dtype=float),
        )


def attenuation_at(profile: AttenuationProfile, f):
    """Attenuation in 1/km at frequency ``f`` (THz, scalar or array).

    A frequency must be finite.  Tabulated profiles interpolate piecewise-linearly
    in dB/km and refuse to extrapolate outside their sampled support.
    """
    scalar = np.isscalar(f)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    _check_finite(f, "attenuation frequencies")
    if profile.kind == "constant":
        out = np.full(f.shape, profile.alpha)
    elif profile.kind == "parabolic":
        out = profile.alpha + profile.curvature * (f - profile.vertex) ** 2
    else:
        lo = profile.sample_frequencies[0]
        hi = profile.sample_frequencies[-1]
        if np.any(f < lo - _EDGE_TOL) or np.any(f > hi + _EDGE_TOL):
            raise ConfigurationError(
                f"frequency outside tabulated attenuation support [{lo}, {hi}] THz"
            )
        db = np.interp(f, profile.sample_frequencies, profile.sample_db_per_km)
        out = db * (LN10 / 10.0)
    if np.any(out <= 0):
        raise ConfigurationError("attenuation profile is non-positive at a requested frequency")
    return float(out[0]) if scalar else out


def default_attenuation() -> AttenuationProfile:
    """Synthetic doped-silica-like parabola: 0.19 dB/km minimum at 193.5 THz.

    Stands in for measured loss tables; curvature 1e-4 dB/km/THz^2 gives
    about +0.02 dB/km at the band edges of a 26 THz plan.
    """
    return AttenuationProfile.parabolic_db(0.19, 193.5, 1.0e-4)


@dataclass(frozen=True)
class RamanGainModel:
    """Raman gain efficiency g(df) in 1/W/km coupling channels df THz apart.

    ``triangular``: g(df) = slope * df for 0 <= df <= window, zero beyond.
    ``tabulated``: piecewise-linear samples with g(0) = 0, g >= 0.
    """

    kind: str
    slope: float = 0.0
    window: float = 0.0
    sample_separations: np.ndarray | None = None
    sample_gains: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "triangular":
            _check_real(self.slope, "triangular gain slope", 0, strict=False)
            _check_real(self.window, "triangular gain window", 0)
        elif self.kind == "tabulated":
            df = _freeze(self.sample_separations)
            g = _freeze(self.sample_gains)
            if df.size < 2 or df.size != g.size:
                raise ConfigurationError("tabulated gain needs matching df/gain samples")
            if not (np.isfinite(df).all() and (np.diff(df) > 0).all() and df[0] >= 0):
                raise ConfigurationError(
                    "tabulated separations must be finite, ascending and >= 0")
            if not ((g >= 0) & (g < math.inf)).all():
                raise ConfigurationError("tabulated gain must be finite and non-negative")
            if df[0] == 0 and g[0] != 0:
                raise ConfigurationError("tabulated gain must vanish at zero separation")
            object.__setattr__(self, "sample_separations", df)
            object.__setattr__(self, "sample_gains", g)
        else:
            raise ConfigurationError(f"unknown Raman gain kind {self.kind!r}")

    @classmethod
    def triangular(
        cls,
        slope: float | None = None,
        peak: float | None = None,
        peak_separation: float = 14.0,
        window: float = 15.5,
    ) -> "RamanGainModel":
        """Triangle with given slope, or slope = peak / peak_separation."""
        if slope is None:
            if peak is None:
                raise ConfigurationError("triangular gain needs a slope or a peak value")
            _check_real(peak, "triangular gain peak", 0, strict=False)
            _check_real(peak_separation, "triangular gain peak separation", 0)
            slope = peak / peak_separation
        return cls(kind="triangular", slope=slope, window=window)

    @classmethod
    def from_table(cls, separations_thz, gains) -> "RamanGainModel":
        return cls(
            kind="tabulated",
            sample_separations=np.asarray(separations_thz, dtype=float),
            sample_gains=np.asarray(gains, dtype=float),
        )

    def as_triangular(self, window: float = 15.5) -> "RamanGainModel":
        """Triangular fit anchored at the tabulated peak; identity if already triangular."""
        if self.kind == "triangular":
            return self
        i = int(np.argmax(self.sample_gains))
        df_peak = float(self.sample_separations[i])
        if df_peak <= 0:
            raise ConfigurationError("tabulated gain peak sits at zero separation")
        return RamanGainModel.triangular(
            slope=float(self.sample_gains[i]) / df_peak, window=window
        )


def raman_gain_at(model: RamanGainModel, df):
    """Gain efficiency in 1/W/km at finite separations ``df`` >= 0 (THz, scalar or array)."""
    scalar = np.isscalar(df)
    df = np.atleast_1d(np.array(df, dtype=float))  # a copy: the gain overwrites it
    _check_finite(df, "Raman gain separations")
    if np.any(df < 0):
        raise ConfigurationError("Raman gain is defined for non-negative separations; "
                                 f"order the frequencies, got {float(df[df < 0][0])!r} THz")
    out = _raman_gain_in_place(model, df)
    return float(out[0]) if scalar else out


def _raman_gain_in_place(model: RamanGainModel, separations: np.ndarray) -> np.ndarray:
    """Overwrite float separations >= 0 (THz) with their gain in 1/W/km and return them.

    Triangular: ``slope * df`` where ``df <= window``, +0.0 beyond, with one
    boolean mask of the array's shape as the only temporary.  A tabulated
    model interpolates into one temporary of the array's size.
    """
    if model.kind == "triangular":
        outside = separations <= model.window
        np.logical_not(outside, out=outside)
        separations *= model.slope
        np.copyto(separations, 0.0, where=outside)
    else:
        separations[...] = np.interp(separations, model.sample_separations, model.sample_gains,
                                     left=0.0, right=0.0)
    return separations


def default_raman(peak: float = 0.4) -> RamanGainModel:
    """Triangular model with the conventional 14 THz peak and 15.5 THz window."""
    return RamanGainModel.triangular(peak=peak)


@dataclass(frozen=True)
class FiberSpec:
    """A fiber span: attenuation profile, Raman gain model, length in km."""

    attenuation: AttenuationProfile
    raman: RamanGainModel
    length: float

    def __post_init__(self):
        _check_real(self.length, "fiber length", 0)
