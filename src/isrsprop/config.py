"""JSON scenario configs: parsing, validation, unit conversion at the boundary.

Config files use boundary units (THz, GHz, dB/km, dBm, dB); everything is
converted to internal linear units here, the only place that reads config
data: every section becomes a checked library object.  See the README for the
schema.
"""

from __future__ import annotations

import csv
import difflib
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .bench import SweepConfig
from .errors import ConfigurationError
from .inverse import (
    TargetSpectrum,
    _check_total_restoring,
    preemphasis_multispan,
    preemphasis_single_span,
)
from .multispan import AmplifierSpec, LinkSpec
from .ode_oracle import SolverOptions
from .osnr import OsnrTargetRun, _check_iteration_settings, target_osnr
from .profiles import (
    BAND_PLANS,
    AttenuationProfile,
    Band,
    ChannelGrid,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    _check_count,
    _check_flag,
    _check_real,
    build_channel_grid,
    convert_units,
    default_attenuation,
    default_raman,
)


@dataclass(frozen=True)
class RunConfig:
    """A parsed scenario; sections are None when absent (``fiber`` also without length_km).

    ``preemph`` and ``osnr`` are the pre-emphasis and ``target_osnr`` library calls with
    their arguments bound: call ``preemph(order=...)`` and ``osnr(link, order=...)``.
    """

    name: str
    grid: ChannelGrid | None
    fiber: FiberSpec | None
    link: LinkSpec | None
    launch: PowerSpectrum | None
    preemph: Callable[..., PowerSpectrum] | None
    solver: SolverOptions
    order: int
    sweep: SweepConfig | None
    osnr: Callable[..., OsnrTargetRun] | None
    refresh_reference: bool

    def __post_init__(self):
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigurationError(f"config.name: expected a plain file-name stem, got {name!r}")
        _check_count(self.order, "order")
        _check_flag(self.refresh_reference, "refresh_reference")


# Every key the parsers read, per section.
_KNOWN_KEYS = {
    "config": ("name", "grid", "fiber", "link", "launch", "solver", "sweep", "order",
               "osnr_target", "refresh_reference"),
    "grid": ("plan", "spacing_thz", "spacing_ghz", "bands"),
    "grid.bands": ("name", "f_low_thz", "f_high_thz"),
    "fiber": ("length_km", "attenuation", "raman"),
    "fiber.attenuation": ("kind", "db_per_km", "min_db_per_km", "vertex_thz",
                          "curvature_db_per_km_per_thz2", "frequencies_thz"),
    "fiber.raman": ("kind", "slope_per_w_per_km_per_thz", "peak_per_w_per_km",
                    "peak_separation_thz", "window_thz", "separations_thz",
                    "gain_per_w_per_km"),
    "link": ("span_lengths_km", "amplifier", "receiver_boost"),
    "link.amplifier": ("gain_policy", "gain_linear", "noise_figure_db"),
    "launch": ("mode", "power_dbm_per_channel", "powers_dbm", "powers_dbm_file", "target",
               "total_launch_power_dbm"),
    "launch.target": ("shape", "power_dbm_per_channel", "values_dbm", "values", "normalized"),
    "solver": ("steps_per_span", "photon_correction", "raman_model"),
    "sweep": ("band_plans", "raman_peak_range", "raman_peak_count", "launch_power_dbm_range",
              "launch_power_count", "length_range_km", "length_count", "orders",
              "raman_window_thz", "raman_peak_separation_thz", "steps_per_span"),
    "osnr_target": ("values_db", "shape", "total_launch_power_dbm", "reference_bandwidth_ghz",
                    "step", "tolerance", "max_iterations", "rmse_in_db"),
}

# Keys that give one value in alternative ways; a section sets at most one of each group.
_ALTERNATIVES = {
    "grid": (("spacing_thz", "spacing_ghz"),),
    "fiber.raman": (("slope_per_w_per_km_per_thz", "peak_per_w_per_km"),),
    "launch": (("powers_dbm", "powers_dbm_file"),),
    "launch.target": (("shape", "values_dbm", "values"),),
    "osnr_target": (("values_db", "shape"),),
}

_REQUIRED = object()


class _Section(dict):
    """One config object, its keys checked on entry and its values read by type.

    ``where`` names it in errors and picks its ``_KNOWN_KEYS`` (without an entry, any
    key) and its ``_ALTERNATIVES``.  The section records every key it hands out; used
    as a context manager, it rejects on a clean exit each given key that was never
    read, a key that the chosen kind or mode ignores.
    """

    def __init__(self, data, where: str):
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"{where}: expected a JSON object")
        known = _KNOWN_KEYS.get(where)
        for key in data if known else ():
            if key not in known:
                close = difflib.get_close_matches(str(key), known, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ConfigurationError(f"{where}: unknown key {key!r}{hint}")
        for group in _ALTERNATIVES.get(where, ()):
            given = [key for key in group if key in data]
            if len(given) > 1:
                raise ConfigurationError(f"{where}: {given[0]!r} and {given[1]!r} are alternatives")
        super().__init__(data)
        self.where = where
        self._read: set = set()

    def __enter__(self) -> "_Section":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            for key in self:
                if key not in self._read:
                    raise ConfigurationError(
                        f"{self.where}.{key}: not read with the other keys given "
                        "(this kind or mode ignores it)"
                    )

    def __getitem__(self, key):
        self._read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._read.add(key)
        return super().get(key, default)

    def require(self, key: str):
        if key not in self:
            raise ConfigurationError(f"{self.where}: missing required key {key!r}")
        return self[key]

    def number(self, key: str, default=_REQUIRED, *, count: bool = False, array: bool = False):
        """The value as a finite float, an int if ``count``, a list of them if ``array``.

        An absent key gives ``default``; a value that is not a list where one is
        expected, an item that fails :func:`~isrsprop.profiles._check_real` (strings,
        ``null``, booleans, non-finite numbers) and a non-integral count are rejected
        with an error naming ``where.key``.
        """
        if key not in self:
            return self.require(key) if default is _REQUIRED else default
        value = self[key]
        kind = ("an integer" if count else "a finite number") + (" list" if array else "")
        if array and not isinstance(value, list):
            raise ConfigurationError(f"{self.where}.{key}: expected {kind}, got {value!r}")
        items = value if array else [value]
        for x in items:
            _check_real(x, f"{self.where}.{key}")
            if count and x != int(x):
                raise ConfigurationError(f"{self.where}.{key}: expected {kind}, got {x!r}")
        convert = int if count else float
        return [convert(x) for x in items] if array else convert(value)

    def flag(self, key: str, default: bool = False) -> bool:
        """The value as a JSON boolean; anything else is an error naming ``where.key``."""
        value = self.get(key, default)
        if not isinstance(value, bool):
            raise ConfigurationError(f"{self.where}.{key}: expected true or false, got {value!r}")
        return value


def _plan_name(value, where: str) -> str:
    """A named band plan; anything else is an error naming ``where`` and the plans."""
    if isinstance(value, str) and value in BAND_PLANS:
        return value
    raise ConfigurationError(
        f"{where}: unknown band plan {value!r}; expected one of {sorted(BAND_PLANS)}"
    )


def _parse_grid(section: Mapping | None) -> tuple[ChannelGrid | None, float]:
    """The channel grid (None for a spacing-only section) and its spacing in THz."""
    if section is None:
        return None, 0.05
    with _Section(section, "grid") as s:
        if "spacing_thz" in s:
            spacing = s.number("spacing_thz")
        else:
            spacing = s.number("spacing_ghz", 50) * 1e-3
        if "plan" in s:
            return build_channel_grid(_plan_name(s["plan"], "grid.plan"), spacing), spacing
        if "bands" not in s:
            return None, spacing  # spacing-only grid section (sweep configs)
        bands = s.get("bands")
        if not isinstance(bands, list):
            raise ConfigurationError("grid.bands: expected a list of band objects")
        parsed = []
        for band in bands:
            with _Section(band, "grid.bands") as b:
                parsed.append(
                    Band(b.require("name"), b.number("f_low_thz"), b.number("f_high_thz"))
                )
        return build_channel_grid(parsed, spacing), spacing


def _parse_attenuation(section: Mapping | None) -> AttenuationProfile:
    if section is None:
        return default_attenuation()
    with _Section(section, "fiber.attenuation") as s:
        kind = s.require("kind")
        if kind == "constant":
            return AttenuationProfile.constant_db(s.number("db_per_km"))
        if kind == "parabolic":
            return AttenuationProfile.parabolic_db(
                s.number("min_db_per_km"), s.number("vertex_thz"),
                s.number("curvature_db_per_km_per_thz2"),
            )
        if kind == "tabulated":
            return AttenuationProfile.from_table(
                s.number("frequencies_thz", array=True), s.number("db_per_km", array=True)
            )
        raise ConfigurationError(f"attenuation: unknown kind {kind!r}")


def _parse_raman(section: Mapping | None) -> RamanGainModel:
    if section is None:
        return default_raman()
    with _Section(section, "fiber.raman") as s:
        kind = s.require("kind")
        if kind == "triangular":
            return RamanGainModel.triangular(
                slope=s.number("slope_per_w_per_km_per_thz", None),
                peak=s.number("peak_per_w_per_km", None),
                peak_separation=s.number("peak_separation_thz", 14.0),
                window=s.number("window_thz", 15.5),
            )
        if kind == "tabulated":
            return RamanGainModel.from_table(
                s.number("separations_thz", array=True), s.number("gain_per_w_per_km", array=True)
            )
        raise ConfigurationError(f"raman: unknown kind {kind!r}")


def _parse_fiber(section: Mapping | None, length_required: bool):
    """``(attenuation, raman)`` and the span they make, None without ``length_km``."""
    if section is None:
        return None, None
    with _Section(section, "fiber") as s:
        models = (_parse_attenuation(s.get("attenuation")), _parse_raman(s.get("raman")))
        if "length_km" not in s:
            if length_required:
                raise ConfigurationError("fiber: missing length_km")
            return models, None
        return models, FiberSpec(*models, length=s.number("length_km"))


def _parse_amplifier(section: Mapping | None) -> AmplifierSpec:
    if section is None:
        return AmplifierSpec()
    with _Section(section, "link.amplifier") as s:
        nf = s.get("noise_figure_db")
        if nf is not None:
            nf = _Section(nf, "link.amplifier.noise_figure_db")
            nf = {band: nf.number(band) for band in nf}
        policy = s.get("gain_policy", "restore-total-power")
        return AmplifierSpec(
            gain_policy=policy,
            gain=s.number("gain_linear", None) if policy == "fixed-gain" else None,
            noise_figure_db=nf,
        )


def _parse_link(section: Mapping | None, models) -> LinkSpec | None:
    if section is None:
        return None
    if models is None:
        raise ConfigurationError("link: needs a fiber section for span properties")
    with _Section(section, "link") as s:
        lengths = s.number("span_lengths_km", array=True)
        amp = _parse_amplifier(s.get("amplifier"))
        return LinkSpec(  # checks that there is at least one span
            spans=tuple(FiberSpec(*models, length=length) for length in lengths),
            amplifiers=(amp,) * (len(lengths) - 1),
            receiver_boost=s.flag("receiver_boost"),
        )


def _load_power_table(path: Path) -> list[float]:
    if not path.exists():
        raise ConfigurationError(f"launch: referenced file {path} does not exist")
    try:
        if path.suffix == ".json":
            values = json.loads(path.read_text())
        else:
            with open(path, newline="") as fh:
                values = [float(row["power_dbm"]) for row in csv.DictReader(fh)]
    except KeyError:
        raise ConfigurationError(f"launch: {path} needs a power_dbm column") from None
    except (OSError, ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigurationError(f"launch: {path}: {exc}") from None
    return _Section({"powers_dbm_file": values}, "launch").number("powers_dbm_file", array=True)


def _parse_launch(section: Mapping | None, grid: ChannelGrid | None, link: LinkSpec | None,
                  fiber: FiberSpec | None, base_dir: Path):
    """Returns (launch spectrum, pre-emphasis call); pre-emphasis inverts the link or fiber."""
    if section is None:
        return None, None
    if grid is None:
        raise ConfigurationError("launch: needs a grid section")
    with _Section(section, "launch") as s:
        mode = s.require("mode")
        if mode == "flat":
            return PowerSpectrum.flat_dbm(grid, s.number("power_dbm_per_channel")), None
        if mode == "table":
            if "powers_dbm" in s:
                dbm = s.number("powers_dbm", array=True)
            elif "powers_dbm_file" in s:
                dbm = _load_power_table(base_dir / s.get("powers_dbm_file"))
            else:
                raise ConfigurationError("launch: table mode needs powers_dbm or powers_dbm_file")
            return PowerSpectrum(grid, convert_units(dbm, "dBm", "W")), None
        if mode == "preemphasis":
            target = _parse_target(s.require("target"), grid)
            total = s.number("total_launch_power_dbm", None)
            spans = link.spans if link is not None else (fiber,) if fiber is not None else ()
            if not spans:
                raise ConfigurationError("launch: pre-emphasis needs fiber.length_km or a link")
            if target.normalized != (total is not None) or (len(spans) > 1
                                                            and not target.normalized):
                raise ConfigurationError(
                    "launch: pre-emphasis needs a shape-only target with "
                    "total_launch_power_dbm, or an absolute one alone on one span"
                )
            total = None if total is None else convert_units(total, "dBm", "W")
            if len(spans) > 1:
                _check_total_restoring(link)
                return None, partial(preemphasis_multispan, target, link, total)
            return None, partial(preemphasis_single_span, target, spans[0],
                                 total_launch_power=total)
        raise ConfigurationError(f"launch: unknown mode {mode!r}")


def _parse_target(section: Mapping, grid: ChannelGrid) -> TargetSpectrum:
    with _Section(section, "launch.target") as s:
        if s.get("shape") == "flat":
            dbm = s.number("power_dbm_per_channel", None)
            if dbm is None:
                return TargetSpectrum.flat_shape(grid)
            return TargetSpectrum.absolute_dbm(grid, np.full(grid.n_channels, dbm))
        if "values_dbm" in s:
            return TargetSpectrum.absolute_dbm(grid, s.number("values_dbm", array=True))
        if "values" in s:
            return TargetSpectrum(grid, s.number("values", array=True),
                                  normalized=s.flag("normalized", True))
        raise ConfigurationError("target: expected shape='flat', values_dbm or values")


def _parse_solver(section: Mapping | None) -> SolverOptions:
    if section is None:
        return SolverOptions()
    with _Section(section, "solver") as s:
        return SolverOptions(
            steps_per_span=s.number("steps_per_span", 50, count=True),
            photon_correction=s.flag("photon_correction"),
            raman_model=s.get("raman_model", "triangular"),
        )


def _parse_sweep(section: Mapping | None, attenuation: AttenuationProfile, spacing: float):
    if section is None:
        return None
    with _Section(section, "sweep") as s:
        def pair(key, default):
            bounds = s.number(key, default, array=True)
            if len(bounds) != 2:
                raise ConfigurationError(f"sweep.{key}: expected [low, high], got {bounds!r}")
            return tuple(bounds)
        plans = s.get("band_plans", ["C", "CL", "CLU", "SCLU"])
        if not isinstance(plans, list):
            raise ConfigurationError(
                f"sweep.band_plans: expected a list of plan names, got {plans!r}"
            )
        return SweepConfig(
            band_plans=tuple(_plan_name(plan, "sweep.band_plans") for plan in plans),
            raman_peak_range=pair("raman_peak_range", (0.3, 0.4)),
            raman_peak_count=s.number("raman_peak_count", 5, count=True),
            launch_power_dbm_range=pair("launch_power_dbm_range", (-5.0, 0.0)),
            launch_power_count=s.number("launch_power_count", 5, count=True),
            length_range_km=pair("length_range_km", (50.0, 150.0)),
            length_count=s.number("length_count", 5, count=True),
            orders=tuple(s.number("orders", (1, 2, 3, 4, 5, 6), count=True, array=True)),
            spacing=spacing,
            attenuation=attenuation,
            raman_window=s.number("raman_window_thz", 15.5),
            raman_peak_separation=s.number("raman_peak_separation_thz", 14.0),
            steps_per_span=s.number("steps_per_span", 50, count=True),
        )


def _parse_osnr_target(section: Mapping, grid: ChannelGrid | None, link: LinkSpec | None,
                       launch_total: float | None) -> Callable[..., OsnrTargetRun]:
    """``launch_total`` is the flat launch's total, used when the section gives none."""
    with _Section(section, "osnr_target") as s:
        if grid is None or link is None:
            raise ConfigurationError("osnr_target: needs grid and link sections")
        if "values_db" in s:
            values = convert_units(s.number("values_db", array=True), "dB", "linear")
            target = TargetSpectrum(grid, values, normalized=True)
        elif s.get("shape", "flat") == "flat":
            target = TargetSpectrum.flat_shape(grid)
        else:
            raise ConfigurationError("osnr_target: expected shape='flat' or values_db")
        if "total_launch_power_dbm" in s:
            launch_total = convert_units(s.number("total_launch_power_dbm"), "dBm", "W")
        elif launch_total is None:
            raise ConfigurationError("osnr_target: needs total_launch_power_dbm")
        b_ref = s.number("reference_bandwidth_ghz", None)
        b_ref = None if b_ref is None else b_ref * 1e-3
        step, tolerance = s.number("step", 1.0), s.number("tolerance", 1e-5)
        max_iterations = s.number("max_iterations", 50, count=True)
        _check_iteration_settings(step, tolerance, max_iterations, b_ref)
        return partial(
            target_osnr, target, total_launch_power=launch_total, step=step,
            tolerance=tolerance, max_iterations=max_iterations, rmse_in_db=s.flag("rmse_in_db"),
            reference_bandwidth=b_ref,
        )


def parse_config(source: str | Path | Mapping[str, Any]) -> RunConfig:
    """Parse a config dict or JSON file into validated internal objects."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:  # a missing file, a directory
            raise ConfigurationError(f"config file {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        base_dir = path.parent
        default_name = path.stem
    else:
        data = dict(source)
        base_dir = Path(".")
        default_name = "scenario"
    if not isinstance(data, Mapping):
        raise ConfigurationError("config root must be a JSON object")
    with _Section(data, "config") as root:
        grid, spacing = _parse_grid(root.get("grid"))
        needs_length = "launch" in root and "link" not in root and "sweep" not in root
        models, fiber = _parse_fiber(root.get("fiber"), length_required=needs_length)
        link = _parse_link(root.get("link"), models)
        launch, preemph = _parse_launch(root.get("launch"), grid, link, fiber, base_dir)
        solver = _parse_solver(root.get("solver"))
        sweep = _parse_sweep(root.get("sweep"), models[0] if models else default_attenuation(),
                             spacing)
        order = root.number("order", 3, count=True)
        osnr = root.get("osnr_target")
        if osnr is not None:
            flat = launch is not None and data["launch"]["mode"] == "flat"
            osnr = _parse_osnr_target(osnr, grid, link, launch.total_power if flat else None)
        return RunConfig(
            name=root.get("name", default_name),
            grid=grid,
            fiber=fiber,
            link=link,
            launch=launch,
            preemph=preemph,
            solver=solver,
            order=order,
            sweep=sweep,
            osnr=osnr,
            refresh_reference=root.flag("refresh_reference"),
        )
