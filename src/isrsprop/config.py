"""JSON scenario configs: parsing, validation, unit conversion at the boundary.

Config files use boundary units (THz, GHz, dB/km, dBm, dB); everything is
converted to internal linear units here.  See the README for the schema.
"""

from __future__ import annotations

import csv
import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .bench import SweepConfig
from .errors import ConfigurationError
from .inverse import TargetSpectrum
from .multispan import AmplifierSpec, LinkSpec
from .ode_oracle import SolverOptions
from .profiles import (
    AttenuationProfile,
    Band,
    ChannelGrid,
    FiberSpec,
    PowerSpectrum,
    RamanGainModel,
    build_channel_grid,
    default_attenuation,
    default_raman,
)


@dataclass(frozen=True)
class RunConfig:
    """A parsed scenario; sections are None when absent from the file."""

    name: str
    grid: ChannelGrid | None
    fiber: FiberSpec | None
    link: LinkSpec | None
    launch: PowerSpectrum | None
    launch_mode: str | None
    preemph_target: TargetSpectrum | None
    preemph_total_power: float | None
    solver: SolverOptions
    order: int
    sweep: SweepConfig | None
    osnr: Mapping[str, Any] | None
    refresh_reference: bool


# Every key the parsers (and cli.cmd_osnr_target) read, per section.
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


def _check_keys(section, where: str) -> None:
    """Reject a section that is not an object or holds a key nothing reads."""
    if not isinstance(section, Mapping):
        raise ConfigurationError(f"{where}: expected a JSON object")
    known = _KNOWN_KEYS[where]
    for key in section:
        if key not in known:
            close = difflib.get_close_matches(str(key), known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigurationError(f"{where}: unknown key {key!r}{hint}")


def _require(section: Mapping, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"{where}: missing required key {key!r}")
    return section[key]


def _grid_spacing(section: Mapping | None) -> float:
    if section is None:
        return 0.05
    if "spacing_thz" in section:
        return float(section["spacing_thz"])
    if "spacing_ghz" in section:
        return float(section["spacing_ghz"]) * 1e-3
    return 0.05


def _parse_grid(section: Mapping | None) -> ChannelGrid | None:
    if section is None:
        return None
    where = "grid"
    _check_keys(section, where)
    spacing = _grid_spacing(section)
    if "plan" in section:
        return build_channel_grid(section["plan"], spacing)
    if "bands" not in section:
        return None  # spacing-only grid section (sweep configs)
    bands = _require(section, "bands", where)
    for b in bands:
        _check_keys(b, "grid.bands")
    parsed = [
        Band(_require(b, "name", where), float(_require(b, "f_low_thz", where)),
             float(_require(b, "f_high_thz", where)))
        for b in bands
    ]
    return build_channel_grid(parsed, spacing)


def _parse_attenuation(section: Mapping | None) -> AttenuationProfile:
    if section is None:
        return default_attenuation()
    _check_keys(section, "fiber.attenuation")
    kind = _require(section, "kind", "fiber.attenuation")
    if kind == "constant":
        return AttenuationProfile.constant_db(float(_require(section, "db_per_km", "attenuation")))
    if kind == "parabolic":
        return AttenuationProfile.parabolic_db(
            float(_require(section, "min_db_per_km", "attenuation")),
            float(_require(section, "vertex_thz", "attenuation")),
            float(_require(section, "curvature_db_per_km_per_thz2", "attenuation")),
        )
    if kind == "tabulated":
        return AttenuationProfile.from_table(
            _require(section, "frequencies_thz", "attenuation"),
            _require(section, "db_per_km", "attenuation"),
        )
    raise ConfigurationError(f"attenuation: unknown kind {kind!r}")


def _parse_raman(section: Mapping | None) -> RamanGainModel:
    if section is None:
        return default_raman()
    _check_keys(section, "fiber.raman")
    kind = _require(section, "kind", "fiber.raman")
    if kind == "triangular":
        return RamanGainModel.triangular(
            slope=section.get("slope_per_w_per_km_per_thz"),
            peak=section.get("peak_per_w_per_km"),
            peak_separation=float(section.get("peak_separation_thz", 14.0)),
            window=float(section.get("window_thz", 15.5)),
        )
    if kind == "tabulated":
        return RamanGainModel.from_table(
            _require(section, "separations_thz", "raman"),
            _require(section, "gain_per_w_per_km", "raman"),
        )
    raise ConfigurationError(f"raman: unknown kind {kind!r}")


def _parse_fiber(section: Mapping | None, length_required: bool) -> FiberSpec | None:
    if section is None:
        return None
    _check_keys(section, "fiber")
    attenuation = _parse_attenuation(section.get("attenuation"))
    raman = _parse_raman(section.get("raman"))
    length = section.get("length_km")
    if length is None:
        if length_required:
            raise ConfigurationError("fiber: missing length_km")
        return FiberSpec(attenuation=attenuation, raman=raman, length=1.0)
    return FiberSpec(attenuation=attenuation, raman=raman, length=float(length))


def _parse_amplifier(section: Mapping | None) -> AmplifierSpec:
    if section is None:
        return AmplifierSpec()
    _check_keys(section, "link.amplifier")
    return AmplifierSpec(
        gain_policy=section.get("gain_policy", "restore-total-power"),
        gain=section.get("gain_linear"),
        noise_figure_db=section.get("noise_figure_db"),
    )


def _parse_link(section: Mapping | None, fiber: FiberSpec | None) -> LinkSpec | None:
    if section is None:
        return None
    if fiber is None:
        raise ConfigurationError("link: needs a fiber section for span properties")
    _check_keys(section, "link")
    lengths = _require(section, "span_lengths_km", "link")
    if not lengths:
        raise ConfigurationError("link: span_lengths_km must be non-empty")
    spans = tuple(
        FiberSpec(attenuation=fiber.attenuation, raman=fiber.raman, length=float(l))
        for l in lengths
    )
    amp = _parse_amplifier(section.get("amplifier"))
    return LinkSpec(
        spans=spans,
        amplifiers=tuple(amp for _ in range(len(spans) - 1)),
        receiver_boost=bool(section.get("receiver_boost", False)),
    )


def _load_power_table(path: Path, n_channels: int) -> np.ndarray:
    if not path.exists():
        raise ConfigurationError(f"launch: referenced file {path} does not exist")
    if path.suffix == ".json":
        values = json.loads(path.read_text())
    else:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "power_dbm" not in reader.fieldnames:
                raise ConfigurationError(f"launch: {path} needs a power_dbm column")
            values = [float(row["power_dbm"]) for row in reader]
    if len(values) != n_channels:
        raise ConfigurationError(
            f"launch: {path} holds {len(values)} powers, grid has {n_channels} channels"
        )
    return np.asarray(values, dtype=float)


def _parse_launch(section: Mapping | None, grid: ChannelGrid | None, base_dir: Path):
    """Returns (launch spectrum, mode, preemph target, preemph total power)."""
    if section is None:
        return None, None, None, None
    if grid is None:
        raise ConfigurationError("launch: needs a grid section")
    _check_keys(section, "launch")
    mode = _require(section, "mode", "launch")
    if mode == "flat":
        dbm = float(_require(section, "power_dbm_per_channel", "launch"))
        return PowerSpectrum.flat_dbm(grid, dbm), mode, None, None
    if mode == "table":
        if "powers_dbm" in section:
            dbm = np.asarray(section["powers_dbm"], dtype=float)
            if dbm.size != grid.n_channels:
                raise ConfigurationError(
                    f"launch: {dbm.size} powers for {grid.n_channels} channels"
                )
        elif "powers_dbm_file" in section:
            dbm = _load_power_table(base_dir / section["powers_dbm_file"], grid.n_channels)
        else:
            raise ConfigurationError("launch: table mode needs powers_dbm or powers_dbm_file")
        watts = 10.0 ** (dbm / 10.0) * 1e-3
        return PowerSpectrum(grid, watts), mode, None, None
    if mode == "preemphasis":
        target_sec = _require(section, "target", "launch")
        target = _parse_target(target_sec, grid)
        total = section.get("total_launch_power_dbm")
        total_w = 10.0 ** (float(total) / 10.0) * 1e-3 if total is not None else None
        return None, mode, target, total_w
    raise ConfigurationError(f"launch: unknown mode {mode!r}")


def _parse_target(section: Mapping, grid: ChannelGrid) -> TargetSpectrum:
    _check_keys(section, "launch.target")
    if section.get("shape") == "flat":
        if "power_dbm_per_channel" in section:
            return TargetSpectrum.absolute_dbm(
                grid, np.full(grid.n_channels, float(section["power_dbm_per_channel"]))
            )
        return TargetSpectrum.flat_shape(grid)
    if "values_dbm" in section:
        return TargetSpectrum.absolute_dbm(grid, np.asarray(section["values_dbm"], dtype=float))
    if "values" in section:
        return TargetSpectrum(
            grid, np.asarray(section["values"], dtype=float),
            normalized=bool(section.get("normalized", True)),
        )
    raise ConfigurationError("target: expected shape='flat', values_dbm or values")


def _parse_solver(section: Mapping | None) -> SolverOptions:
    if section is None:
        return SolverOptions()
    _check_keys(section, "solver")
    return SolverOptions(
        steps_per_span=int(section.get("steps_per_span", 50)),
        photon_correction=bool(section.get("photon_correction", False)),
        raman_model=section.get("raman_model", "triangular"),
    )


def _parse_sweep(section: Mapping | None, attenuation: AttenuationProfile, spacing: float):
    if section is None:
        return None
    _check_keys(section, "sweep")

    def pair(key, default):
        v = section.get(key, default)
        return (float(v[0]), float(v[1]))
    return SweepConfig(
        band_plans=tuple(section.get("band_plans", ("C", "CL", "CLU", "SCLU"))),
        raman_peak_range=pair("raman_peak_range", (0.3, 0.4)),
        raman_peak_count=int(section.get("raman_peak_count", 5)),
        launch_power_dbm_range=pair("launch_power_dbm_range", (-5.0, 0.0)),
        launch_power_count=int(section.get("launch_power_count", 5)),
        length_range_km=pair("length_range_km", (50.0, 150.0)),
        length_count=int(section.get("length_count", 5)),
        orders=tuple(int(n) for n in section.get("orders", (1, 2, 3, 4, 5, 6))),
        spacing=spacing,
        attenuation=attenuation,
        raman_window=float(section.get("raman_window_thz", 15.5)),
        raman_peak_separation=float(section.get("raman_peak_separation_thz", 14.0)),
        steps_per_span=int(section.get("steps_per_span", 50)),
    )


def parse_config(source: str | Path | Mapping[str, Any]) -> RunConfig:
    """Parse a config dict or JSON file into validated internal objects."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise ConfigurationError(f"config file {path} does not exist")
        try:
            data = json.loads(path.read_text())
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
    _check_keys(data, "config")

    grid = _parse_grid(data.get("grid"))
    has_link = "link" in data
    needs_length = "launch" in data and not has_link and "sweep" not in data
    fiber = _parse_fiber(data.get("fiber"), length_required=needs_length)
    link = _parse_link(data.get("link"), fiber)
    launch, mode, target, total_w = _parse_launch(data.get("launch"), grid, base_dir)
    solver = _parse_solver(data.get("solver"))
    spacing = grid.spacing if grid is not None else _grid_spacing(data.get("grid"))
    attenuation = fiber.attenuation if fiber is not None else default_attenuation()
    sweep = _parse_sweep(data.get("sweep"), attenuation, spacing)
    order = int(data.get("order", 3))
    if order < 1:
        raise ConfigurationError("order must be a positive integer")
    osnr = data.get("osnr_target")
    if osnr is not None:
        _check_keys(osnr, "osnr_target")
        if grid is None or link is None:
            raise ConfigurationError("osnr_target: needs grid and link sections")
        if "total_launch_power_dbm" not in osnr and (
            "launch" not in data or data["launch"].get("mode") != "flat"
        ):
            raise ConfigurationError("osnr_target: needs total_launch_power_dbm")
    return RunConfig(
        name=str(data.get("name", default_name)),
        grid=grid,
        fiber=fiber,
        link=link,
        launch=launch,
        launch_mode=mode,
        preemph_target=target,
        preemph_total_power=total_w,
        solver=solver,
        order=order,
        sweep=sweep,
        osnr=osnr,
        refresh_reference=bool(data.get("refresh_reference", False)),
    )
