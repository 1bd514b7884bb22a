#!/usr/bin/env python3
"""Per-operation traced memory peak of a benchmark workload.

    python scripts/op_memory.py --workload {sweep,osnr,figures} [--seed N] [--repo CHECKOUT]

Generates the workload's seeded configs with ``perfbench/workloads.py``, runs
its warm-up operation, then runs every operation once through
``isrsprop.cli.main`` under ``tracemalloc`` and prints, per operation, the
largest number of bytes allocated at once above what was live when it
started (numpy reports its buffers to tracemalloc), and the largest of them.
Unlike ``perfbench``'s ``peak_rss_mb`` this does not depend on how many
operations a process has run, so two checkouts can be compared with one run
each.  ``--repo`` chooses the checkout whose ``src`` runs; the workloads
always come from the checkout that holds this script.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "osnr", "figures"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repo", type=Path, default=HERE.parent,
                        help="checkout whose src/ runs (default: this one)")
    args = parser.parse_args()
    sys.path[:0] = [str(args.repo.resolve() / "src"), str(HERE.parent / "perfbench")]
    from isrsprop import cli
    from workloads import make_plan

    with tempfile.TemporaryDirectory() as work:
        plan = make_plan(args.workload, args.seed, Path(work))
        peaks = []
        for op in (plan.warmup, *plan.operations):
            tracemalloc.start()
            before, _ = tracemalloc.get_traced_memory()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(list(argv)) for argv in op.argvs]
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            if any(codes):
                print(f"{op.key}: exit codes {codes}", file=sys.stderr)
                return 1
            if op is not plan.warmup:
                peaks.append(peak - before)
                print(f"{op.key} {(peak - before) / 1e6:.2f} MB")
    print(f"max {max(peaks) / 1e6:.2f} MB over {len(peaks)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
