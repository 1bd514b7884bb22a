#!/usr/bin/env python3
"""Minimum-of-repeats time of the RK4 oracle's span operator and of one batch group.

    python scripts/op_timing.py [--repo CHECKOUT]

For the triangular gain of the fig3 sweep (peak 0.4 /W/km) on C, CL, CLU,
SCL and SCLU at 50 GHz and on SCLU at 25 and 12.5 GHz, prints in µs, at
B = 1 and B = 25 launches: one apply of ``ode_oracle._span_operator``'s
``net`` (``op``) and one ``ode_oracle._integrate_batch`` call as a sweep
group runs it, 50 RK4 steps over 100 km (``group``).  Each number is the
minimum over 50 timed runs (5 for a group) after a warm-up, with one BLAS
thread (set before numpy loads), so two checkouts can be compared layer by
layer with one run each.  ``--repo`` chooses the checkout whose ``src`` runs.
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
    from isrsprop import FiberSpec, build_channel_grid, default_attenuation, default_raman
    from isrsprop.closedform import _SpanModel
    from isrsprop.ode_oracle import SolverOptions, _integrate_batch, _span_operator

    fiber = FiberSpec(default_attenuation(), default_raman(0.4), 100.0)
    rng = np.random.default_rng(0)
    print(f"{'plan':<5} {'GHz':>5} {'n':>5}" + "".join(
        f" {kind + ' B=' + str(b):>13}" for kind in ("op", "group") for b in BATCHES))
    for plan, spacing in CASES:
        grid = build_channel_grid(plan, spacing)
        net = _span_operator(_SpanModel(grid, fiber), SolverOptions())
        ops, groups = [], []
        for batch in BATCHES:
            # the sweep's launch range, -5 to 0 dBm per channel
            launches = 10 ** rng.uniform(-3.5, -3.0, (batch, grid.n_channels))
            lengths = np.full(batch, fiber.length)
            ops.append(best_us(lambda: net(launches), REPEATS))
            groups.append(best_us(lambda: _integrate_batch(launches, lengths, net, STEPS),
                                  GROUP_REPEATS))
        print(f"{plan:<5} {spacing * 1e3:>5g} {grid.n_channels:>5}"
              + "".join(f" {us:>13.1f}" for us in ops + groups))
    return 0


if __name__ == "__main__":
    sys.exit(main())
