"""Seeded scenario configs for the three benchmark workloads.

Every config the program sees is generated here from the workload seed; the
physics constants are the paper's fig3-fig7 scenarios, copied in so that the
benchmark's inputs do not move when the shipped ``configs/`` change.

An *operation* is the unit the benchmark times: a list of CLI argument
vectors run back to back through ``isrsprop.cli.main``.  Operations carry a
*key*; operations with one key get identical inputs and must write identical
tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "osnr", "figures")
DEFAULT_SEED = 0

ATTENUATION = {
    "kind": "parabolic",
    "min_db_per_km": 0.19,
    "vertex_thz": 193.5,
    "curvature_db_per_km_per_thz2": 1.0e-4,
}
RAMAN = {
    "kind": "triangular",
    "peak_per_w_per_km": 0.4,
    "peak_separation_thz": 14.0,
    "window_thz": 15.5,
}
SOLVER = {"steps_per_span": 50, "photon_correction": False, "raman_model": "triangular"}
NOISE_FIGURE_DB = {"C": 5.5, "L": 6.0, "U": 5.0}
LAUNCH_DBM = -1.0

# Band edges in THz; a plan's channels sit at bin centers every 50 GHz.
BAND_EDGES = {"U": (179.10, 184.60), "L": (184.60, 191.70), "C": (191.70, 195.75),
              "S": (195.75, 205.50)}
PLANS = {"C": ("C",), "CL": ("L", "C"), "CLU": ("U", "L", "C"), "SCLU": ("U", "L", "C", "S")}
SPACING_THZ = 0.05

SWEEP_PLANS = ("C", "CL", "CLU", "SCLU")
SWEEP_AXIS_COUNT = 5
SWEEP_ORDERS = (1, 2, 3, 4, 5, 6)
OSNR_POOL = 8  # distinct seeded OSNR targets, cycled by the osnr workload

# Operations run with tracing on, per workload; fixed so counts repeat exactly.
TRACED_OPS = {"sweep": 1, "osnr": OSNR_POOL, "figures": 2}


def channel_frequencies(plan: str) -> np.ndarray:
    """Channel centre frequencies (THz) of a band plan."""
    bands = PLANS[plan]
    f_min = BAND_EDGES[bands[0]][0]
    f_max = BAND_EDGES[bands[-1]][1]
    n = round((f_max - f_min) / SPACING_THZ)
    return f_min + (np.arange(n) + 0.5) * SPACING_THZ


def smooth_ripple(rng: np.random.Generator, n: int, amplitude_db: float) -> list[float]:
    """Sum of three low-order sinusoids across the band, peak |value| = amplitude."""
    x = np.linspace(0.0, 1.0, n)
    r = np.zeros(n)
    for k in (1, 2, 3):
        amplitude, phase = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
        r += amplitude * np.sin(2.0 * math.pi * k * x + phase)
    return (r * (amplitude_db / np.abs(r).max())).tolist()


@dataclass(frozen=True)
class Operation:
    key: str
    argvs: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Plan:
    """Generated configs plus the operations a workload cycles through."""

    workload: str
    seed: int
    warmup: Operation
    operations: tuple[Operation, ...]
    configs: dict  # config name -> generated dict, for the output checks


def _fiber(length_km: float | None = None) -> dict:
    fiber = {"attenuation": dict(ATTENUATION), "raman": dict(RAMAN)}
    if length_km is not None:
        fiber["length_km"] = length_km
    return fiber


def _link(amplifier: dict, receiver_boost: bool) -> dict:
    return {"span_lengths_km": [50.0] * 5, "amplifier": amplifier,
            "receiver_boost": receiver_boost}


def sweep_config(name: str, rng: np.random.Generator | None, count: int) -> dict:
    """The fig3 order sweep; the seed jitters each range inside fig3's bounds."""
    def jitter(lo, hi, width):
        if rng is None:
            return [lo, hi]
        return [lo + rng.uniform(0.0, width), hi - rng.uniform(0.0, width)]

    return {
        "name": name,
        "grid": {"spacing_ghz": 50},
        "fiber": {"attenuation": dict(ATTENUATION)},
        "sweep": {
            "band_plans": list(SWEEP_PLANS),
            "raman_peak_range": jitter(0.3, 0.4, 0.02),
            "raman_peak_count": count,
            "launch_power_dbm_range": jitter(-5.0, 0.0, 1.0),
            "launch_power_count": count,
            "length_range_km": jitter(50.0, 150.0, 10.0),
            "length_count": count,
            "orders": list(SWEEP_ORDERS),
            "raman_window_thz": RAMAN["window_thz"],
            "raman_peak_separation_thz": RAMAN["peak_separation_thz"],
            "steps_per_span": SOLVER["steps_per_span"],
        },
    }


def osnr_config(name: str, values_db: list[float]) -> dict:
    """fig7 link (CLU, 5 x 50 km, total-power restoring, receiver boost)."""
    return {
        "name": name,
        "grid": {"plan": "CLU", "spacing_ghz": 50},
        "fiber": _fiber(),
        "link": _link({"gain_policy": "restore-total-power",
                       "noise_figure_db": dict(NOISE_FIGURE_DB)}, receiver_boost=True),
        "launch": {"mode": "flat", "power_dbm_per_channel": LAUNCH_DBM},
        "osnr_target": {"values_db": values_db, "step": 1.0, "tolerance": 1e-5,
                        "max_iterations": 50, "reference_bandwidth_ghz": 50},
        "solver": dict(SOLVER),
        "order": 3,
    }


def _table_launch(rng: np.random.Generator, plan: str) -> dict:
    n = channel_frequencies(plan).size
    return {"mode": "table",
            "powers_dbm": [LAUNCH_DBM + r for r in smooth_ripple(rng, n, 0.5)]}


def figure_configs(rng: np.random.Generator) -> list[tuple[dict, tuple[str, ...]]]:
    """fig4-fig7 scenarios with a seeded +-0.5 dB launch ripple, and their commands."""
    out = []
    for name, plan, commands in [
        ("fig4_single_span_clu", "CLU", ("solve", "closed-form")),
        ("fig5a_single_span_c", "C", ("closed-form",)),
        ("fig5b_single_span_cl", "CL", ("closed-form",)),
        ("fig5c_single_span_clu", "CLU", ("closed-form",)),
        ("fig5d_single_span_sclu", "SCLU", ("closed-form",)),
    ]:
        cfg = {"name": name, "grid": {"plan": plan, "spacing_ghz": 50},
               "fiber": _fiber(100.0), "launch": _table_launch(rng, plan),
               "solver": dict(SOLVER), "order": 3}
        out.append((cfg, commands))
    fig6 = {"name": "fig6_multi_span_clu", "grid": {"plan": "CLU", "spacing_ghz": 50},
            "fiber": _fiber(), "link": _link({"gain_policy": "restore-total-power"}, False),
            "launch": _table_launch(rng, "CLU"), "solver": dict(SOLVER), "order": 3}
    out.append((fig6, ("solve", "multispan")))
    launch = _table_launch(rng, "CLU")
    total_mw = sum(10.0 ** (p / 10.0) for p in launch["powers_dbm"])
    fig7 = osnr_config("fig7_osnr_flat_clu", [])
    fig7["launch"] = launch
    fig7["osnr_target"] = {"shape": "flat", "step": 1.0, "tolerance": 1e-5,
                           "max_iterations": 50, "reference_bandwidth_ghz": 50,
                           "total_launch_power_dbm": 10.0 * math.log10(total_mw)}
    out.append((fig7, ("osnr-target",)))
    return out


def _argvs(config_path: Path, commands, out_dir: Path) -> tuple[tuple[str, ...], ...]:
    return tuple((c, "--config", str(config_path), "--output", str(out_dir)) for c in commands)


def make_plan(workload: str, seed: int, work_dir: Path) -> Plan:
    """Write the workload's configs under ``work_dir`` and list its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cfg_dir = work_dir / "configs"
    out_dir = work_dir / "out"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs: dict = {}

    def write(cfg: dict) -> Path:
        path = cfg_dir / f"{cfg['name']}.json"
        path.write_text(json.dumps(cfg, indent=1))
        configs[cfg["name"]] = cfg
        return path

    if workload == "sweep":
        path = write(sweep_config("sweep", rng, SWEEP_AXIS_COUNT))
        ops = [Operation("sweep", _argvs(path, ("sweep",), out_dir / "sweep"))]
    elif workload == "osnr":
        n = channel_frequencies("CLU").size
        ops = []
        for i in range(OSNR_POOL):
            path = write(osnr_config(f"osnr_t{i}", smooth_ripple(rng, n, 1.0)))
            ops.append(Operation(f"osnr_t{i}", _argvs(path, ("osnr-target",),
                                                       out_dir / f"osnr_t{i}")))
    else:
        ops = [Operation("figures", tuple(
            a for cfg, commands in figure_configs(rng)
            for a in _argvs(write(cfg), commands, out_dir / "figures")))]
    if workload == "sweep":  # one cell per band plan warms the paths of the full sweep
        warm = _argvs(write(sweep_config("sweep_warmup", None, 1)), ("sweep",), work_dir / "warmup")
    else:
        warm = tuple(a[:3] + ("--output", str(work_dir / "warmup")) for a in ops[0].argvs)
    return Plan(workload, seed, Operation("warmup", warm), tuple(ops), configs)
