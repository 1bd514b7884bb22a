#!/usr/bin/env python3
"""Fingerprint every CLI output of a checkout, for byte-identity comparisons.

Runs every config under ``configs/`` of the checkout that holds this script
through every subcommand, in csv and json, and through every subcommand that
reads the approximation order again at ``--order 1`` and ``--order 6`` (csv,
runs named ``csv-order1`` and ``csv-order6``), and writes
``OUT_DIR/manifest.json``: one SHA-256 per output file and one (exit code,
stdout, stderr) per run.  ``--repo`` chooses only the code that runs, so two
checkouts are compared on the same configs.  The sweep's timing columns
(``oracle_seconds``, ``closedform_seconds``) are dropped before hashing,
since they change from run to run.

With ``--against OLD/manifest.json`` the script then compares the new
manifest with the old one, prints each run whose exit code, stdout or stderr
differs and each file whose hash differs (or that only one side wrote), and
exits 1 if there is any.  To check that a change leaves every output as it
was, fingerprint the parent, then the change against it:

    git worktree add ../parent HEAD~1
    python scripts/compare_outputs.py /tmp/before --repo ../parent
    python scripts/compare_outputs.py /tmp/after --against /tmp/before/manifest.json
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

SUBCOMMANDS = ("solve", "closed-form", "multispan", "sweep", "preemph", "osnr-target",
               "validate-config")
FORMATS = ("csv", "json")
# subcommands whose outputs depend on the order, and the orders they run at besides the config's
ORDER_SUBCOMMANDS = ("closed-form", "multispan", "preemph", "osnr-target")
EXTRA_ORDERS = (1, 6)
TIMING_FIELDS = ("oracle_seconds", "closedform_seconds")
CHECKOUT = Path(__file__).resolve().parent.parent


def _without_timing(path: Path) -> bytes:
    """File bytes, with the sweep's timing columns removed."""
    if "_sweep_" not in path.name:
        return path.read_bytes()
    if path.suffix == ".json":
        records = json.loads(path.read_text())
        for record in records:
            for field in TIMING_FIELDS:
                record.pop(field, None)
        return json.dumps(records, indent=1).encode()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_FIELDS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def _differences(old: dict, new: dict) -> list[str]:
    """One line per run or file that differs between two manifests."""
    out = []
    for name in sorted(old["runs"].keys() | new["runs"].keys()):
        before, after = old["runs"].get(name), new["runs"].get(name)
        if before is None or after is None:
            out.append(f"run {name}: only in the {'new' if before is None else 'old'} manifest")
            continue
        fields = [k for k in ("exit", "stdout", "stderr") if before[k] != after[k]]
        if fields:
            out.append(f"run {name}: {', '.join(fields)} differ")
    for name in sorted(old["files"].keys() | new["files"].keys()):
        before, after = old["files"].get(name), new["files"].get(name)
        if before is None or after is None:
            out.append(f"file {name}: only in the {'new' if before is None else 'old'} manifest")
        elif before != after:
            out.append(f"file {name}: hash differs")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir", type=Path, help="directory for the outputs and manifest.json")
    parser.add_argument("--repo", type=Path, default=CHECKOUT,
                        help="checkout whose code is run (default: this one)")
    parser.add_argument("--against", type=Path, metavar="MANIFEST",
                        help="manifest.json to compare with; exit 1 on any difference")
    args = parser.parse_args()
    repo = args.repo.resolve()
    out_dir = args.out_dir.resolve()

    sys.path.insert(0, str(repo / "src"))
    import isrsprop
    from isrsprop.cli import main as cli_main

    if not Path(isrsprop.__file__).resolve().is_relative_to(repo):
        parser.error(f"imported isrsprop from {isrsprop.__file__}, not from {repo}")

    # relative config paths keep the checkout's location out of messages
    os.chdir(CHECKOUT)
    runs = {}
    for config in sorted(Path("configs").glob("*.json")):
        variants = [(command, fmt, fmt, []) for command in SUBCOMMANDS for fmt in FORMATS]
        variants += [(command, "csv", f"csv-order{order}", ["--order", str(order)])
                     for command in ORDER_SUBCOMMANDS for order in EXTRA_ORDERS]
        for command, fmt, variant, extra in variants:
            run_dir = out_dir / "runs" / config.stem / command / variant
            argv = [command, "--config", str(config), "--output", str(run_dir),
                    "--format", fmt, *extra]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli_main(argv)
                except Exception as exc:  # a crash is a result to compare too
                    code, stderr = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
            name = f"{config.stem} {command} {variant}"
            runs[name] = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            print(f"{code} {name}", file=sys.stderr)
    files = {
        str(path.relative_to(out_dir)): hashlib.sha256(_without_timing(path)).hexdigest()
        for path in sorted((out_dir / "runs").rglob("*")) if path.is_file()
    }
    manifest = {"runs": runs, "files": files}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} runs, {len(files)} files -> {out_dir / 'manifest.json'}", file=sys.stderr)
    if args.against is None:
        return 0
    differences = _differences(json.loads(args.against.read_text()), manifest)
    for line in differences:
        print(line)
    print(f"{len(differences)} differences against {args.against}", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
