"""The workload process: set up, run operations through the CLI, check outputs.

Run by ``run.py``; prints one JSON object as its last line of stdout.  All
work happens in this one process (the sweep runs with ``--workers 1``).

Phases:
  1. set-up: import the package from ``<checkout>/src``, generate the seeded
     configs, parse each once, run one warm-up operation;
  2. timed loop, tracing off: operations in a closed loop for ``--seconds``;
     each output set is digested and must match the first of its key;
  3. with ``--trace 1``, the same operations again under the tracer, a fixed
     number of them, whose tables must be byte-identical to phase 2's;
  4. output checks on the first output set of every key: invariants, the
     independent RK4, and the stored reference for the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import DEFAULT_SEED, TRACED_OPS, WORKLOADS, Operation, make_plan  # noqa: E402


def blas_info() -> dict:
    """BLAS library and its thread count, as the loaded numpy reports them."""
    info = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(library=deps.get("name", "unknown"), version=deps.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(cdll, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                info["threads"] = int(func())
                return info
    return info


def run_op(cli, op: Operation) -> tuple[float, list[str]]:
    """Seconds for one operation, and what went wrong (empty when it succeeded)."""
    problems = []
    start = time.perf_counter()
    for argv in op.argvs:
        try:
            code = cli.main(list(argv))
        except Exception:
            problems.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
            continue
        if code != 0:
            problems.append(f"{argv[0]} {Path(argv[2]).name} exited {code}")
    return time.perf_counter() - start, problems


def out_dir(op: Operation) -> Path:
    return Path(op.argvs[0][4])


class Ledger:
    """Per-key first outputs and digests, and the operations that failed."""

    def __init__(self, first_dir: Path):
        self.first_dir = first_dir
        self.digests: dict[str, dict] = {}
        self.passed_by_key: dict[str, int] = {}
        self.failed_ops = 0
        self.problems: list[str] = []

    def record(self, op: Operation, problems: list[str]) -> None:
        """Digest the operation's tables; the first of a key is kept for the checks."""
        problems = list(problems)
        if not problems:
            digest = checks.digest_dir(out_dir(op))
            failed_cells = checks.failed_cells(out_dir(op))
            if failed_cells:
                problems.append(f"{failed_cells} sweep cells failed")
            if op.key not in self.digests:
                self.digests[op.key] = digest
                shutil.copytree(out_dir(op), self.first_dir / op.key)
            elif digest != self.digests[op.key]:
                problems.append(f"{op.key}: tables differ from the first (untraced) run")
        if problems:
            self.failed_ops += 1
            self.problems.extend(problems)
        else:
            self.passed_by_key[op.key] = self.passed_by_key.get(op.key, 0) + 1

    def fail_key(self, key: str, problems: list[str]) -> None:
        """A check on a key's first outputs failed: every run of that key fails."""
        if problems:
            self.failed_ops += self.passed_by_key.pop(key, 0)
            self.problems.extend(problems)


def trace_metrics(tracer, untraced: list[float], traced: list[float], failed_cells: int) -> dict:
    calls, busy = tracer.calls, tracer.self_s
    layers = tracer.layer_self_s()
    integrate_s = busy["ode_oracle.integrate_span"]
    write_s = busy["cli.write_table"]
    gflop = tracer.matvec_flop / 1e9
    single_span = calls["inverse.preemphasis_single_span"]
    metrics = {}
    for name in ("ode_oracle.coupling_matrix", "ode_oracle.integrate_span",
                 "ode_oracle.propagate_link_numerical", "closedform.derive_params",
                 "closedform.shaping_function", "closedform.power_profile",
                 "inverse.preemphasis_single_span", "multispan.propagate_multispan_closedform",
                 "bench.run_cell", "cli.write_table", "config.parse_config",
                 "profiles.raman_gain_at", "profiles.build_channel_grid"):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.busy_s"] = (busy[name], "s")
    metrics.update({
        "ode_oracle.rk4_steps": (tracer.rk4_steps, "count"),
        "ode_oracle.rk4_step_us": (
            integrate_s / tracer.rk4_steps * 1e6 if tracer.rk4_steps else 0.0, "us"),
        "ode_oracle.matvec_gflop": (gflop, "GFLOP"),
        "ode_oracle.gflop_per_s": (gflop / integrate_s if integrate_s else 0.0, "GFLOP/s"),
        "inverse.launch_from_output.calls": (calls["inverse.launch_from_output"], "count"),
        "inverse.evals_per_rootfind": (
            calls["inverse.launch_from_output"] / single_span if single_span else 0.0, "count"),
        "multispan.boundary_gain.calls": (calls["multispan.boundary_gain"], "count"),
        "osnr.target_osnr.busy_s": (busy["osnr.target_osnr"], "s"),
        "osnr.iterations": (calls["inverse.preemphasis_multispan"], "count"),
        "osnr.ase_accumulate.busy_s": (busy["osnr.ase_accumulate"], "s"),
        "osnr.convergence_failures": (
            tracer.failures["osnr.target_osnr"].get("ConvergenceError", 0), "count"),
        "bench.failed_cells": (failed_cells, "count"),
        "bench.write_records_csv.busy_s": (busy["bench.write_records_csv"], "s"),
        "cli.bytes_written": (tracer.bytes_written, "bytes"),
        "cli.write_mb_per_s": (tracer.bytes_written / write_s / 1e6 if write_s else 0.0, "MB/s"),
        "cli.main.busy_s": (busy["cli.main"], "s"),
        "trace_overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
    })
    for layer, seconds in layers.items():
        metrics[f"{layer}.busy_s"] = (seconds, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # -- 1. set-up --------------------------------------------------------
    from isrsprop import cli, config

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"isrsprop imported from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed, args.work_dir)
    for path in sorted((args.work_dir / "configs").glob("*.json")):
        config.parse_config(path)
    _, warm_problems = run_op(cli, plan.warmup)
    ready_wall = time.time()
    if args.setup_only:
        print(json.dumps({"ready_wall": ready_wall, "problems": warm_problems}))
        return 0

    # -- 2. timed loop, tracing off ---------------------------------------
    ledger = Ledger(args.work_dir / "first")
    ledger.problems.extend(warm_problems)
    times: list[float] = []
    start = time.perf_counter()
    i = 0
    loop_seconds = args.seconds / 2 if args.trace else args.seconds
    min_ops = TRACED_OPS[args.workload] if args.trace else 1
    while i < min_ops or time.perf_counter() - start < loop_seconds:
        op = plan.operations[i % len(plan.operations)]
        seconds, problems = run_op(cli, op)
        ledger.record(op, problems)
        times.append(seconds)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- 3. traced run -----------------------------------------------------
    layer_metrics = None
    traced_times: list[float] = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            for k in range(TRACED_OPS[args.workload]):
                op = plan.operations[k % len(plan.operations)]
                seconds, problems = run_op(cli, op)
                traced_times.append(seconds)
                ledger.record(op, problems)
        finally:
            tracer.uninstall()
        failed_cells = sum(checks.failed_cells(ledger.first_dir / key) for key in ledger.digests)
        layer_metrics = trace_metrics(tracer, times, traced_times, failed_cells)
        tracer.write_spans(args.work_dir / "spans.jsonl")

    # -- 4. output checks on the first outputs of every key ---------------
    rng = np.random.default_rng([args.seed, 99])
    reference = checks.load_reference(args.workload, args.seed)
    max_dev_db, changed_tables = (0.0, 0) if reference is not None else (None, None)
    ops_by_key = {op.key: op for op in plan.operations}
    for key in sorted(ledger.digests):
        first = ledger.first_dir / key
        configs = {name: plan.configs[name]
                   for name in (Path(argv[2]).stem for argv in ops_by_key[key].argvs)}
        problems = checks.check_invariants(first, configs)
        if args.workload == "sweep":
            problems += checks.check_sweep_oracle(first, plan.configs["sweep"], rng)
        elif args.workload == "figures":
            problems += checks.check_figures_oracle(first, configs)
        if reference is not None:
            if key in reference:
                dev, changed, ref_problems = checks.compare_reference(first, reference[key])
                max_dev_db = max(max_dev_db, dev)
                changed_tables += changed
                problems += ref_problems
            else:
                problems.append(f"{key}: missing from the reference")
        ledger.fail_key(key, problems)

    blas = blas_info()
    cores = len(os.sched_getaffinity(0))
    if blas["threads"] is not None and blas["threads"] > cores:
        ledger.problems.append(f"BLAS uses {blas['threads']} threads on {cores} cores")
    result = {
        "ready_wall": ready_wall,
        "op_s": times,
        "attempted": len(times) + len(traced_times),
        "failed": ledger.failed_ops,
        "correct": not ledger.problems,
        "problems": ledger.problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "max_dev_db": max_dev_db,
        "reference_tables_changed": changed_tables,
        "max_dev_basis": "stored reference" if reference is not None else
                         f"none: the reference is stored for seed {DEFAULT_SEED} only",
        "layer_metrics": layer_metrics,
        "env": {
            "cores": cores,
            "cpu_count": os.cpu_count(),
            "blas": blas,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
