import hashlib
import json
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
compare = runpy.run_path(str(SCRIPT))

OLD_CSV = (
    "band,order,eps_p,max_deviation_db,p_dbm_191.0000,total_dbm\r\n"
    "C,1,1.00000001,0.0123456789,-1.5,20.25\r\n"
    "C,2,0.99999999,0.00987654321,-2,20.5\r\n"
)
# eps_p and two dB cells moved
NEW_CSV = (
    "band,order,eps_p,max_deviation_db,p_dbm_191.0000,total_dbm\r\n"
    "C,1,1.00000002,0.0123456789,-1.5,20.2500001\r\n"
    "C,2,0.99999999,0.00987654331,-2,20.5\r\n"
)


def write_tree(root: Path, files: dict) -> dict:
    """The files under ``root/runs`` and a manifest of their hashes, as the script writes."""
    hashes = {}
    for name, text in files.items():
        path = root / "runs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, newline="")
        hashes[f"runs/{name}"] = hashlib.sha256(text.encode()).hexdigest()
    return {"runs": {}, "files": hashes}


class TestTableMove:
    def test_db_columns(self):
        assert [name for name in ("max_deviation_db", "total_dbm", "p_dbm_191.0000",
                                  "power_dbm", "osnr_db", "eps_p", "frequency_thz", "rmse")
                if compare["_is_db_column"](name)] == [
            "max_deviation_db", "total_dbm", "p_dbm_191.0000", "power_dbm", "osnr_db"]

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_counts_cells_and_sizes_the_largest_db_move(self, tmp_path, suffix):
        # eps_p moved by 1e-8 relative, beside the two dB cells
        tables = {}
        for side, text in (("old", OLD_CSV), ("new", NEW_CSV)):
            if suffix == ".json":
                header, *rows = [line.split(",") for line in text.splitlines()]
                records = [{k: (v if k == "band" else float(v)) for k, v in zip(header, row)}
                           for row in rows]
                text = json.dumps(records, indent=1)
            tables[side] = tmp_path / f"{side}{suffix}"
            tables[side].write_text(text, newline="")
        move = compare["_table_move"](tables["old"], tables["new"])
        assert move == (
            "3 cells differ, max |delta| 1e-07 dB, max relative |delta| 1e-08 elsewhere")

    def test_a_reshaped_table_is_named(self, tmp_path):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text(OLD_CSV, newline="")
        new.write_text("\r\n".join(OLD_CSV.splitlines()[:2]) + "\r\n", newline="")
        assert compare["_table_move"](old, new) == "header or row count differs"

    def test_differences_size_each_changed_file(self, tmp_path):
        same = "channel,power_dbm\r\n0,-1\r\n"
        old = write_tree(tmp_path / "old", {"a/x.csv": OLD_CSV, "a/same.csv": same,
                                            "a/gone.csv": same})
        new = write_tree(tmp_path / "new", {"a/x.csv": NEW_CSV, "a/same.csv": same})
        assert compare["_differences"](old, new, tmp_path / "old", tmp_path / "new") == [
            "file runs/a/gone.csv: only in the old manifest",
            "file runs/a/x.csv: hash differs, 3 cells differ, max |delta| 1e-07 dB, "
            "max relative |delta| 1e-08 elsewhere",
        ]

    def test_relative_moves_of_cells_that_are_not_db(self, tmp_path):
        # an OSNR history's rmse and a linear column: the largest relative move
        # is sized, a cell that was 0 moves infinitely far, text is only counted
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("iteration,rmse,osnr,note\r\n1,0.5,200,a\r\n2,0.25,0,b\r\n", newline="")
        new.write_text("iteration,rmse,osnr,note\r\n1,0.5000001,200.0002,a\r\n2,0.25,0,c\r\n",
                       newline="")
        assert compare["_table_move"](old, new) == (
            "3 cells differ, max |delta| 0 dB, max relative |delta| 1e-06 elsewhere")
        new.write_text("iteration,rmse,osnr,note\r\n1,0.5,200,a\r\n2,0.25,1e-3,b\r\n",
                       newline="")
        assert compare["_table_move"](old, new) == (
            "1 cells differ, max |delta| 0 dB, max relative |delta| inf elsewhere")
