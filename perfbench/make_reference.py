#!/usr/bin/env python3
"""Regenerate the stored reference tables for the default seed.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs every distinct operation of each workload once, through the CLI, and
writes ``perfbench/reference/<workload>_seed<seed>.json.xz``.  Regenerate
only in a change that means to move the program's results, and say so there.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_plan  # noqa: E402
from worker import out_dir, run_op  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    from isrsprop import cli

    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        for workload in args.workload or WORKLOADS:
            plan = make_plan(workload, DEFAULT_SEED, work / workload)
            entries = {}
            for op in plan.operations:
                _, problems = run_op(cli, op)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                entries[op.key] = checks.reference_entry(out_dir(op))
            path = checks.save_reference(workload, DEFAULT_SEED, entries)
            print(f"{path.relative_to(HERE.parent)}: {path.stat().st_size} bytes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
