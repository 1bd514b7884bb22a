#!/usr/bin/env python3
"""Fingerprint every CLI output of a checkout, for byte-identity comparisons.

Runs every config under ``configs/`` of the checkout that holds this script
through every subcommand, in csv and json, and through every subcommand that
reads the approximation order again at ``--order 1`` and ``--order 6`` (csv,
runs named ``csv-order1`` and ``csv-order6``), runs ``closed-form`` and
``multispan`` again on a temporary copy of each config with
``refresh_reference`` set (csv, run ``csv-refresh``), and writes
``OUT_DIR/manifest.json``: one SHA-256 per output file and one (exit code,
stdout, stderr) per run.  ``--repo`` chooses only the code that runs, so two
checkouts are compared on the same configs.  Every output is hashed as
written: one config writes the same bytes on every run.

With ``--against OLD/manifest.json`` the script then compares the new
manifest with the old one, prints each run whose exit code, stdout or stderr
differs and each file whose hash differs (or that only one side wrote), and
exits 1 if there is any.  A file whose hash differs is read again beside its
old copy under ``OLD/runs/`` to size the move: the count of cells that differ,
the largest |delta| over the dB columns (a name ending in ``_db`` or
``dbm``, or starting with ``p_dbm_``) and the largest relative |delta| over
the other numeric cells (``rmse``, ``eps_p``, linear OSNR, ...).  To check
that a change leaves every output as it was, fingerprint the parent, then
the change against it:

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
import math
import os
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("solve", "closed-form", "multispan", "sweep", "preemph", "osnr-target",
               "validate-config")
FORMATS = ("csv", "json")
# subcommands whose outputs depend on the order, and the orders they run at besides the config's
ORDER_SUBCOMMANDS = ("closed-form", "multispan", "preemph", "osnr-target")
EXTRA_ORDERS = (1, 6)
# subcommands whose longitudinal tables re-balance the reference with refresh_reference
REFRESH_SUBCOMMANDS = ("closed-form", "multispan")
CHECKOUT = Path(__file__).resolve().parent.parent


def _is_db_column(name: str) -> bool:
    return name.endswith(("_db", "dbm")) or name.startswith("p_dbm_")


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV or JSON-records output table, every cell as text."""
    if path.suffix == ".json":
        records = json.loads(path.read_text())
        header = list(records[0]) if records else []
        return header, [[str(record.get(name)) for name in header] for record in records]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _table_move(old: Path, new: Path) -> str:
    """How far a table moved: the cells that differ, the largest |delta| of a dB cell
    and the largest relative |delta| of any other numeric cell."""
    (header, old_rows), (new_header, new_rows) = _read_table(old), _read_table(new)
    if header != new_header or len(old_rows) != len(new_rows):
        return "header or row count differs"
    columns = [(i, _is_db_column(name)) for i, name in enumerate(header)]
    changed, largest, relative = 0, 0.0, 0.0
    for before, after in zip(old_rows, new_rows):
        for i, db in columns:
            if before[i] != after[i]:
                changed += 1
                try:
                    a, b = float(before[i]), float(after[i])
                except ValueError:  # a text cell
                    continue
                if db:
                    largest = max(largest, abs(b - a))
                elif b != a:
                    relative = max(relative, abs(b - a) / abs(a) if a else math.inf)
    return (f"{changed} cells differ, max |delta| {largest:.3g} dB, "
            f"max relative |delta| {relative:.3g} elsewhere")


def _differences(old: dict, new: dict, old_dir: Path, new_dir: Path) -> list[str]:
    """One line per run or file that differs between two manifests.

    ``old_dir`` and ``new_dir`` are the manifests' directories, which hold
    the files they list; a file whose hash differs is compared cell by cell
    (:func:`_table_move`).
    """
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
            old_copy = old_dir / name
            move = (_table_move(old_copy, new_dir / name) if old_copy.is_file()
                    else "old copy missing")
            out.append(f"file {name}: hash differs, {move}")
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

    # relative config paths keep the checkout's location out of messages; the
    # refresh_reference copies sit at the same relative paths under a temporary root
    os.chdir(CHECKOUT)
    configs = sorted(Path("configs").glob("*.json"))
    runs = {}
    with tempfile.TemporaryDirectory() as refreshed:
        (Path(refreshed) / "configs").mkdir()
        for config in configs:
            data = json.loads(config.read_text())
            data["refresh_reference"] = True
            (Path(refreshed) / config).write_text(json.dumps(data, indent=1))
        for config in configs:
            variants = [(command, fmt, fmt, [], CHECKOUT)
                        for command in SUBCOMMANDS for fmt in FORMATS]
            variants += [(command, "csv", f"csv-order{order}", ["--order", str(order)], CHECKOUT)
                         for command in ORDER_SUBCOMMANDS for order in EXTRA_ORDERS]
            variants += [(command, "csv", "csv-refresh", [], Path(refreshed))
                         for command in REFRESH_SUBCOMMANDS]
            for command, fmt, variant, extra, root in variants:
                run_dir = out_dir / "runs" / config.stem / command / variant
                argv = [command, "--config", str(config), "--output", str(run_dir),
                        "--format", fmt, *extra]
                stdout, stderr = io.StringIO(), io.StringIO()
                os.chdir(root)
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = cli_main(argv)
                    except Exception as exc:  # a crash is a result to compare too
                        code, stderr = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
                os.chdir(CHECKOUT)
                name = f"{config.stem} {command} {variant}"
                runs[name] = {"exit": code, "stdout": stdout.getvalue(),
                              "stderr": stderr.getvalue()}
                print(f"{code} {name}", file=sys.stderr)
    files = {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((out_dir / "runs").rglob("*")) if path.is_file()
    }
    manifest = {"runs": runs, "files": files}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} runs, {len(files)} files -> {out_dir / 'manifest.json'}", file=sys.stderr)
    if args.against is None:
        return 0
    differences = _differences(json.loads(args.against.read_text()), manifest,
                               args.against.parent, out_dir)
    for line in differences:
        print(line)
    print(f"{len(differences)} differences against {args.against}", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
