#!/usr/bin/env python3
"""isrsprop benchmark: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload {sweep,osnr,figures} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a single child
process (``worker.py``) that imports the package from ``src/``; set-up is
also timed in extra child processes that stop once set up, and ``setup_s``
is the median over all of them.  Every metric is printed as ``name value
unit`` and the last line of stdout is the JSON result.  The result, with an
environment record, is also written to ``.perfbench/results/``.

Exits 2 without a result when the checkout holds no ``src/isrsprop``, and 1
when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "osnr", "figures")
SETUP_PROBES = 5       # extra processes that only set up
DEADLINE_S = 170.0     # whole run, the first build included
SWEEP_CELLS = 4 * 5 * 5 * 5

# The workload is the plain single-threaded baseline: one process, one BLAS
# thread, so that other tenants of a small machine move it as little as possible.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = ("op_ms_p50", "setup_s", "peak_rss_mb")  # the metrics BENCHMARK.json gates


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, work_dir: Path, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start one workload process; returns (seconds from spawn to ready, its result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.time()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **SINGLE_THREAD_ENV},
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_wall"] - spawned, result


def p90(values: list[float]) -> float:
    """90th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def report(workload: str, op_s: list[float], setups: list[float], worker: dict) -> list[tuple]:
    """Every end-to-end metric of the workload: (name, value, unit, note)."""
    n = len(op_s)
    rows = [
        ("op_ms_p50", statistics.median(op_s) * 1e3, "ms", f"median of {n} operations"),
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", worker["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        ("failed_fraction", worker["failed"] / worker["attempted"], "ratio",
         f"{worker['failed']} of {worker['attempted']} operations"),
        ("max_dev_db", worker["max_dev_db"], "dB",
         f"basis: {worker['max_dev_basis']}; tables changed: {worker['reference_tables_changed']}"),
    ]
    if workload == "sweep":
        rows.append(("sweep_cells_per_s", SWEEP_CELLS / statistics.median(op_s), "cells/s",
                     f"{SWEEP_CELLS} cells x 6 orders, median of {n} sweeps"))
    elif workload == "osnr":
        rows.append(("osnr_target_ms_p50", statistics.median(op_s) * 1e3, "ms", f"{n} runs"))
        rows.append(("osnr_target_ms_p90", p90(op_s) * 1e3, "ms",
                     f"{n} runs, {n - int(0.9 * n)} beyond"))
    else:
        rows.append(("figures_pass_s", statistics.median(op_s), "s", f"median of {n} passes"))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "isrsprop" / "__init__.py").is_file():
        print(f"no isrsprop package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    try:
        probes = [run_worker(args, work / f"probe{k}", deadline, True)
                  for k in range(SETUP_PROBES)]
        ready_s, worker = run_worker(args, work / "main", deadline, False)
        results = ROOT / ".perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        if args.trace:
            shutil.copy(work / "main" / "spans.jsonl", results / f"{tag}-spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = [ready for ready, _ in probes] + [ready_s]
    for _, probe in probes:
        if probe["problems"]:
            worker["correct"] = False
            worker["problems"] += probe["problems"]
    op_s = worker["op_s"]
    e2e = report(args.workload, op_s, setups, worker)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in worker["layer_metrics"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in e2e if name in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**worker["env"], "git_commit": git_commit()},
        "samples": {"operations": len(op_s), "setups": len(setups),
                    "traced_operations": worker["attempted"] - len(op_s)},
        "end_to_end": {name: {"value": v, "unit": u, "note": note} for name, v, u, note in e2e},
        "metrics": metrics,
        "op_s": op_s,
        "setup_s": setups,
        "problems": worker["problems"],
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"# {tag}: {env['cores']} cores, BLAS {env['blas']['library']} "
          f"{env['blas']['version']} x{env['blas']['threads']} threads, python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['git_commit']}")
    for name, value, unit, note in e2e:
        print(f"{name} {value} {unit}  ({note})")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
    for problem in worker["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": worker["correct"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
