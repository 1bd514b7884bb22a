"""Output checks: table digests, invariants, an independent RK4, references.

Tables are read back from the CSV files the CLI wrote.  A table's *digest*
is the SHA-256 of its bytes, with the sweep's two timing columns removed (they
differ on every run).  The references for the default seed keep every row of
the spectral, launch, OSNR and sweep tables, and rows 0, 25, 50, ... plus
the last row of each longitudinal table, next to the digest of every full
table.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import math
from pathlib import Path

import numpy as np

from workloads import (ATTENUATION, RAMAN, SOLVER, SPACING_THZ, SWEEP_AXIS_COUNT,
                       SWEEP_ORDERS, SWEEP_PLANS, channel_frequencies)

TIMING_COLUMNS = ("oracle_seconds", "closedform_seconds")
TEXT_COLUMNS = ("band", "error")
ORACLE_TOL_DB = 1e-6       # independent RK4 against the program's oracle
EPS_REL_TOL = 2e-8         # eps_p is written with 9 significant digits
REFERENCE_TOL_DB = 1e-6    # larger deviations from the stored reference fail
LAUNCH_TOTAL_REL_TOL = 1e-9
LONGITUDINAL_ROW_STRIDE = 25
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def canonical_bytes(path: Path) -> bytes:
    """The table's bytes, minus the sweep's wall-clock timing columns."""
    data = path.read_bytes()
    if not any(c.encode() in data[:data.find(b"\n")] for c in TIMING_COLUMNS):
        return data
    header, rows = read_table(path)
    keep = [i for i, c in enumerate(header) if c not in TIMING_COLUMNS]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in [header, *rows]:
        writer.writerow([row[i] for i in keep])
    return buf.getvalue().encode()


def digest_dir(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(canonical_bytes(p)).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def is_db_column(name: str) -> bool:
    return name.endswith("_db") or name.endswith("dbm") or name.startswith("p_dbm_")


def failed_cells(out_dir: Path) -> int:
    """Sweep cells with an error recorded (0 for tables other than sweep records)."""
    cells = set()
    for path in out_dir.glob("*_sweep_records.csv"):
        header, rows = read_table(path)
        col = header.index("error")
        cells.update((path.name, *r[:4]) for r in rows if r[col])
    return len(cells)


# -- invariants -------------------------------------------------------------

def check_invariants(out_dir: Path, configs: dict) -> list[str]:
    """Every value finite, every linear value non-negative, OSNR runs converged
    with the configured launch total."""
    problems = []
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = read_table(path)
        if not rows:
            problems.append(f"{path.name}: no rows")
        for col, name in enumerate(header):
            if name in TEXT_COLUMNS:
                continue
            values = np.array([float(r[col]) for r in rows])
            if not np.all(np.isfinite(values)):
                problems.append(f"{path.name}: non-finite {name}")
            elif not is_db_column(name) and np.any(values < 0):
                problems.append(f"{path.name}: negative {name}")
    for name, cfg in configs.items():
        if "osnr_target" not in cfg:
            continue
        target = cfg["osnr_target"]
        _, hist = read_table(out_dir / f"{name}_osnr_history.csv")
        if not float(hist[-1][1]) < target["tolerance"]:
            problems.append(f"{name}: OSNR RMSE {hist[-1][1]} not below {target['tolerance']}")
        header, rows = read_table(out_dir / f"{name}_osnr_launch.csv")
        col = header.index("launch_power_dbm")
        total = sum(10.0 ** (float(r[col]) / 10.0) for r in rows)
        if "total_launch_power_dbm" in target:
            expected = 10.0 ** (target["total_launch_power_dbm"] / 10.0)
        else:
            expected = len(rows) * 10.0 ** (cfg["launch"]["power_dbm_per_channel"] / 10.0)
        if abs(total / expected - 1.0) > LAUNCH_TOTAL_REL_TOL:
            problems.append(f"{name}: launch total {total} mW, configured {expected} mW")
    return problems


# -- independent oracle -----------------------------------------------------

def _alpha_per_km(f: np.ndarray) -> np.ndarray:
    db = ATTENUATION["min_db_per_km"] + ATTENUATION["curvature_db_per_km_per_thz2"] * (
        f - ATTENUATION["vertex_thz"]) ** 2
    return db * math.log(10.0) / 10.0


def rk4_span(f: np.ndarray, p0: np.ndarray, peak: float, length: float,
             steps: int = SOLVER["steps_per_span"]) -> np.ndarray:
    """dP_i/dz = -a_i P_i + P_i sum_j s(f_j - f_i) g(|f_j - f_i|) P_j, classic RK4,
    with a triangular gain g(d) = peak/separation * d inside the window."""
    slope = peak / RAMAN["peak_separation_thz"]
    d = f[None, :] - f[:, None]
    coupling = np.sign(d) * np.where(np.abs(d) <= RAMAN["window_thz"], slope * np.abs(d), 0.0)
    alpha = _alpha_per_km(f)

    def rate(p):
        return p * (coupling @ p) - alpha * p

    h = length / steps
    p = p0.astype(float)
    for _ in range(steps):
        k1 = rate(p)
        k2 = rate(p + 0.5 * h * k1)
        k3 = rate(p + 0.5 * h * k2)
        k4 = rate(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def _dbm(watts):
    return 10.0 * np.log10(np.asarray(watts) / 1e-3)


def _spectrum_dbm(path: Path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_table(path)
    f = np.array([float(r[header.index("frequency_thz")]) for r in rows])
    return f, np.array([float(r[header.index("power_dbm")]) for r in rows])


def check_figures_oracle(out_dir: Path, configs: dict) -> list[str]:
    """fig4 (one span) and fig6 (five spans, total-power restoring) solve outputs."""
    problems = []
    peak = RAMAN["peak_per_w_per_km"]
    for name in ("fig4_single_span_clu", "fig6_multi_span_clu"):
        cfg = configs[name]
        f, written = _spectrum_dbm(out_dir / f"{name}_solve_spectrum.csv")
        p = 10.0 ** (np.array(cfg["launch"]["powers_dbm"]) / 10.0) * 1e-3
        total = p.sum()
        lengths = cfg["link"]["span_lengths_km"] if "link" in cfg else [cfg["fiber"]["length_km"]]
        for k, length in enumerate(lengths):
            if k:
                p = p * (total / p.sum())
            p = rk4_span(f, p, peak, length)
        dev = float(np.abs(_dbm(p) - written).max())
        if dev > ORACLE_TOL_DB:
            problems.append(f"{name}: oracle off the independent RK4 by {dev:.3g} dB")
    return problems


def check_sweep_oracle(out_dir: Path, cfg: dict, rng: np.random.Generator) -> list[str]:
    """One seeded cell per band plan: eps_p and max_deviation_db recomputed with
    the independent RK4 in place of the program's oracle."""
    from isrsprop import (FiberSpec, PowerSpectrum, RamanGainModel, build_channel_grid,
                          default_attenuation, derive_params, power_profile)

    sweep = cfg["sweep"]
    header, rows = read_table(out_dir / f"{cfg['name']}_sweep_records.csv")
    col = {c: i for i, c in enumerate(header)}
    axes = [np.linspace(*sweep[k], SWEEP_AXIS_COUNT)
            for k in ("raman_peak_range", "launch_power_dbm_range", "length_range_km")]
    problems = []
    for b, band in enumerate(SWEEP_PLANS):
        ip, iw, il = (int(i) for i in rng.integers(0, SWEEP_AXIS_COUNT, 3))
        peak, power, length = float(axes[0][ip]), float(axes[1][iw]), float(axes[2][il])
        f = channel_frequencies(band)
        launch_w = np.full(f.size, 10.0 ** (power / 10.0) * 1e-3)
        oracle = rk4_span(f, launch_w, peak, length)
        grid = build_channel_grid(band, SPACING_THZ)
        raman = RamanGainModel.triangular(peak=peak, peak_separation=RAMAN["peak_separation_thz"],
                                          window=RAMAN["window_thz"])
        fiber = FiberSpec(default_attenuation(), raman, length)
        launch = PowerSpectrum.flat_dbm(grid, power)
        cell = (((b * SWEEP_AXIS_COUNT + ip) * SWEEP_AXIS_COUNT + iw) * SWEEP_AXIS_COUNT + il)
        for o, order in enumerate(SWEEP_ORDERS):
            row = rows[cell * len(SWEEP_ORDERS) + o]
            if (row[col["band"]], int(row[col["order"]])) != (band, order) or abs(
                    float(row[col["length_km"]]) - length) > 1e-6:
                problems.append(f"sweep: record order differs at {band} order {order}")
                continue
            closed = power_profile(launch, derive_params(launch, fiber, order), raman.slope, length)
            eps = closed.total_power / oracle.sum()
            dev = float(np.abs(_dbm(closed.powers) - _dbm(oracle)).max())
            if abs(float(row[col["eps_p"]]) / eps - 1.0) > EPS_REL_TOL or abs(
                    float(row[col["max_deviation_db"]]) - dev) > ORACLE_TOL_DB:
                problems.append(f"sweep: {band} peak {peak:.4g} order {order} off the "
                                "independent RK4")
    return problems


# -- references -------------------------------------------------------------

def _kept_rows(header: list[str], rows: list[list[str]]) -> list[int]:
    if header[0] != "z_km":
        return list(range(len(rows)))
    kept = list(range(0, len(rows), LONGITUDINAL_ROW_STRIDE))
    return kept if kept[-1] == len(rows) - 1 else kept + [len(rows) - 1]


def reference_entry(out_dir: Path) -> dict:
    """What the reference keeps of one operation's tables."""
    entry = {}
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = read_table(path)
        cols = [i for i, c in enumerate(header) if is_db_column(c)]
        entry[path.name] = {
            "sha256": hashlib.sha256(canonical_bytes(path)).hexdigest(),
            "rows": len(rows),
            "columns": [header[i] for i in cols],
            "values": {str(r): [float(rows[r][i]) for i in cols]
                       for r in _kept_rows(header, rows)},
        }
    return entry


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}_seed{seed}.json.xz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(lzma.decompress(path.read_bytes()))


def save_reference(workload: str, seed: int, entries: dict) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(lzma.compress(json.dumps(entries, sort_keys=True).encode(),
                                   preset=9 | lzma.PRESET_EXTREME))
    return path


def compare_reference(out_dir: Path, expected: dict) -> tuple[float, int, list[str]]:
    """(max |dB change| over the kept values, tables whose digest changed, problems)."""
    actual = reference_entry(out_dir)
    problems = []
    if sorted(actual) != sorted(expected):
        problems.append(f"tables differ from the reference: {sorted(actual)} vs {sorted(expected)}")
    max_dev, changed = 0.0, 0
    for name in sorted(set(actual) & set(expected)):
        got, ref = actual[name], expected[name]
        if got["sha256"] == ref["sha256"]:
            continue
        changed += 1
        if (got["rows"], got["columns"], sorted(got["values"])) != (
                ref["rows"], ref["columns"], sorted(ref["values"])):
            problems.append(f"{name}: layout differs from the reference")
            continue
        for r, values in ref["values"].items():
            dev = np.abs(np.array(got["values"][r]) - np.array(values))
            max_dev = max(max_dev, float(dev.max(initial=0.0)))
    if max_dev > REFERENCE_TOL_DB:
        problems.append(f"max dB change {max_dev:.3g} exceeds {REFERENCE_TOL_DB:g} dB")
    return max_dev, changed, problems
