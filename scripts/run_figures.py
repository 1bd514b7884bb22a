#!/usr/bin/env python3
"""Run every shipped scenario config and collect plot-ready tables.

Produces, under --output (default results/):
  * numerical + closed-form longitudinal and spectral profiles for the
    single-span scenarios,
  * numerical + closed-form multi-span profiles,
  * the order-accuracy sweep records and box-plot summaries,
  * the OSNR-targeting launch profile and convergence history,
  * the pre-emphasized launch spectra for a flat output shape.
"""

import argparse
import sys
import time
from pathlib import Path

from isrsprop.cli import _worker_count, main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

RUNS = [
    ("fig4_single_span_clu.json", ["solve", "closed-form"]),
    ("fig5a_single_span_c.json", ["closed-form"]),
    ("fig5b_single_span_cl.json", ["closed-form"]),
    ("fig5c_single_span_clu.json", ["closed-form"]),
    ("fig5d_single_span_sclu.json", ["closed-form"]),
    ("fig6_multi_span_clu.json", ["solve", "multispan"]),
    ("fig7_osnr_flat_clu.json", ["osnr-target"]),
    ("osnr_rippled_clu.json", ["osnr-target"]),
    ("fig3_order_sweep.json", ["sweep"]),
    ("preemph_single_span_clu.json", ["preemph"]),
    ("preemph_multi_span_clu.json", ["preemph"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="results", help="output directory")
    parser.add_argument("--workers", type=_worker_count, default=1,
                        help="sweep parallelism, at least 1")
    parser.add_argument("--skip-sweep", action="store_true")
    args = parser.parse_args()

    for config, commands in RUNS:
        for command in commands:
            if args.skip_sweep and command == "sweep":
                continue
            argv = [command, "--config", str(CONFIG_DIR / config), "--output", args.output]
            if command == "sweep":
                argv += ["--workers", str(args.workers)]
            t0 = time.perf_counter()
            code = cli_main(argv)
            dt = time.perf_counter() - t0
            print(f"{command:12s} {config:32s} -> exit {code} ({dt:.1f} s)")
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
