"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The repository's own suite (``tests/``) does not collect these.  The traced
runs take about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_plan  # noqa: E402
from worker import out_dir, run_op  # noqa: E402

EXACT_COUNTS = ("ode_oracle.rk4_steps", "ode_oracle.coupling_matrix.calls",
                "inverse.launch_from_output.calls", "osnr.iterations", "cli.bytes_written")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    runs = {}
    for workload in WORKLOADS:
        for _ in range(2):
            code, out = run_bench(workload, DEFAULT_SEED, 1)
            assert code == 0, out
            runs.setdefault(workload, []).append((out, last_json(out)))
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced_twice, workload):
    (_, first), (_, second) = traced_twice[workload]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_matches_reference(traced_twice, workload):
    for out, result in traced_twice[workload]:
        assert result["correct"] and result["failed"] == 0, out
        assert "max_dev_db 0.0 dB" in out


def test_layers_account_for_the_work(traced_twice):
    sweep = traced_twice["sweep"][0][1]["metrics"]
    osnr = traced_twice["osnr"][0][1]["metrics"]
    figures = traced_twice["figures"][0][1]["metrics"]
    layers = [f"{m}.busy_s" for m in ("profiles", "config", "ode_oracle", "closedform",
                                      "inverse", "multispan", "osnr", "bench", "cli")]
    assert max(layers, key=lambda k: sweep[k]["value"]) == "ode_oracle.busy_s"
    assert all(v["value"] == 0 for k, v in osnr.items()
               if k.startswith("ode_oracle.") and k.endswith(".calls"))
    write = figures["cli.write_table.busy_s"]["value"]
    assert all(write > figures[k]["value"] for k in layers if k != "cli.busy_s")


def test_independent_rk4_matches_the_program():
    from isrsprop import (FiberSpec, PowerSpectrum, RamanGainModel, build_channel_grid,
                          default_attenuation, integrate_span)

    grid = build_channel_grid("CL")
    f = grid.frequencies
    launch = 1e-3 * (1.0 + 0.3 * np.sin(f))
    fiber = FiberSpec(default_attenuation(), RamanGainModel.triangular(peak=0.4), 80.0)
    program = integrate_span(PowerSpectrum(grid, launch), fiber).final.powers
    np.testing.assert_allclose(checks.rk4_span(f, launch, 0.4, 80.0), program, rtol=1e-12)


@pytest.fixture(scope="module")
def osnr_outputs(tmp_path_factory):
    from isrsprop import cli

    work = tmp_path_factory.mktemp("osnr")
    plan = make_plan("osnr", DEFAULT_SEED, work)
    op = plan.operations[0]
    assert run_op(cli, op)[1] == []
    return plan, op


def test_reference_catches_a_moved_value(osnr_outputs, tmp_path):
    plan, op = osnr_outputs
    expected = checks.load_reference("osnr", DEFAULT_SEED)[op.key]
    assert checks.compare_reference(out_dir(op), expected) == (0.0, 0, [])
    moved = tmp_path / "moved"
    shutil.copytree(out_dir(op), moved)
    path = moved / f"{op.key}_osnr_profile.csv"
    header, rows = checks.read_table(path)
    rows[7][3] = repr(float(rows[7][3]) + 1e-3)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    dev, changed, problems = checks.compare_reference(moved, expected)
    assert dev == pytest.approx(1e-3, rel=1e-6) and changed == 1 and problems


def test_invariants_catch_bad_values(osnr_outputs, tmp_path):
    plan, op = osnr_outputs
    configs = {op.key: plan.configs[op.key]}
    assert checks.check_invariants(out_dir(op), configs) == []
    bad = tmp_path / "bad"
    shutil.copytree(out_dir(op), bad)
    path = bad / f"{op.key}_osnr_launch.csv"
    header, rows = checks.read_table(path)
    rows[0][3] = "nan"
    rows[1][1] = "-1.0"
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    problems = checks.check_invariants(bad, configs)
    assert any("non-finite" in p for p in problems)
    assert any("negative frequency_thz" in p for p in problems)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, out = run_bench("osnr", DEFAULT_SEED, 0, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
