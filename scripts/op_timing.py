#!/usr/bin/env python3
"""Minimum-of-repeats time of the RK4 oracle's span operator, of one batch group, of one band
batch, of a sweep and of an OSNR target.

    python scripts/op_timing.py [--repo CHECKOUT]

For the triangular gain of the fig3 sweep (peak 0.4 /W/km) on C, CL, CLU,
SCL and SCLU at 50 GHz and on SCLU at 25 and 12.5 GHz, prints in µs, at
B = 1 and B = 25 launches: one apply of ``ode_oracle._span_operator``'s
``net`` (``op``) and one ``ode_oracle._integrate_batch`` call of one Raman
peak's batch, 50 RK4 steps over 100 km (``group``).  The ``band`` column
times, at B = 25, the oracle of one band batch as the sweep runs it: S of
the sweep's Raman peaks (0.3 to 0.4 /W/km) at once, S = ``bench._BATCH_ENTRIES
// (25 n)`` (at least one, at most the sweep's five), through
``ode_oracle._integrate_stack`` under one stacked operator; ``S`` gives S.
A ``sweep`` row gives, in ms, one ``bench.run_order_sweep`` of the default
``SweepConfig`` (fig3's 500 cells and 6 orders) in this process, without
the CLI's writing.
A last ``osnr`` row gives, in ms, one ``osnr.target_osnr`` of fig7's flat
target in this process: CLU, 5 x 50 km, restore-total-power amplifiers with
noise figures C 5.5, L 6.0 and U 5.0 dB, a receiver boost and the total of
-1 dBm per channel.  Each number is the minimum over 50 timed runs (5 for a
group or a band batch, 3 for the sweep, 20 for the OSNR target) after a warm-up, with one
BLAS thread (set before numpy loads), so two checkouts can be compared
layer by layer with one run each.  ``--repo``
chooses the checkout whose ``src`` runs.
"""

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = [("C", 0.05), ("CL", 0.05), ("CLU", 0.05), ("SCL", 0.05), ("SCLU", 0.05),
         ("SCLU", 0.025), ("SCLU", 0.0125)]
BATCHES = (1, 25)
STEPS = 50
REPEATS = 50  # timed runs per operator number
GROUP_REPEATS = 5  # timed runs per group number
SWEEP_REPEATS = 3  # timed runs of the sweep
OSNR_REPEATS = 20  # timed runs of the OSNR target


def best_us(run, repeats: int) -> float:
    run()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=HERE.parent,
                        help="checkout whose src/ runs (default: this one)")
    args = parser.parse_args()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    import numpy as np
    from isrsprop import (AmplifierSpec, FiberSpec, LinkSpec, PowerSpectrum, SweepConfig,
                          TargetSpectrum, build_channel_grid, default_attenuation,
                          default_raman, run_order_sweep, target_osnr)
    from isrsprop import bench
    from isrsprop.closedform import _SpanModel
    from isrsprop.ode_oracle import (SolverOptions, _integrate_batch, _integrate_stack,
                                     _span_operator, _triangular_coupling)

    fiber = FiberSpec(default_attenuation(), default_raman(0.4), 100.0)
    sweep = SweepConfig()
    slopes = [peak / sweep.raman_peak_separation
              for peak in sweep.axis(sweep.raman_peak_range, sweep.raman_peak_count)]
    rng = np.random.default_rng(0)
    print(f"{'plan':<5} {'GHz':>5} {'n':>5}" + "".join(
        f" {kind + ' B=' + str(b):>13}" for kind in ("op", "group") for b in BATCHES)
        + f" {'band B=25':>13} {'S':>2}")
    for plan, spacing in CASES:
        grid = build_channel_grid(plan, spacing)
        model = _SpanModel(grid, fiber)
        net = _span_operator(model, SolverOptions())
        ops, groups = [], []
        for batch in BATCHES:
            # the sweep's launch range, -5 to 0 dBm per channel
            launches = 10 ** rng.uniform(-3.5, -3.0, (batch, grid.n_channels))
            lengths = np.full(batch, fiber.length)
            ops.append(best_us(lambda: net(launches), REPEATS))
            groups.append(best_us(lambda: _integrate_batch(launches, lengths, net, STEPS),
                                  GROUP_REPEATS))
        # the band batch of the last (B = 25) launches, as bench._run_band cuts it
        size = min(len(slopes), max(1, bench._BATCH_ENTRIES // launches.size))
        stacked = _triangular_coupling(grid.frequencies, slopes[:size], fiber.raman.window,
                                       model.alpha)
        band = best_us(lambda: _integrate_stack(launches, lengths, stacked, STEPS, size),
                       GROUP_REPEATS)
        print(f"{plan:<5} {spacing * 1e3:>5g} {grid.n_channels:>5}"
              + "".join(f" {us:>13.1f}" for us in ops + groups) + f" {band:>13.1f} {size:>2}")
    sweep_ms = best_us(lambda: run_order_sweep(sweep), SWEEP_REPEATS) / 1e3
    print(f"sweep {sweep_ms:.1f} ms")
    clu = build_channel_grid("CLU")
    amplifier = AmplifierSpec(noise_figure_db={"C": 5.5, "L": 6.0, "U": 5.0})
    link = LinkSpec.uniform(FiberSpec(default_attenuation(), default_raman(0.4), 50.0), 5,
                            amplifier, receiver_boost=True)
    total = PowerSpectrum.flat_dbm(clu, -1.0).total_power
    target = TargetSpectrum.flat_shape(clu)
    osnr_ms = best_us(lambda: target_osnr(target, link, total, max_iterations=20),
                      OSNR_REPEATS) / 1e3
    print(f"osnr {osnr_ms:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
