import contextlib
import csv
import io
import json
import math
import runpy
import warnings
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isrsprop import cli
from isrsprop.cli import build_parser, main
from isrsprop.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ALL_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
# 8 cells in four (band, peak) groups, two orders each
TWO_BAND_SWEEP = {"band_plans": ["C", "CL"], "raman_peak_count": 2, "launch_power_count": 2,
                  "length_count": 1, "orders": [1, 3], "steps_per_span": 20}


def small_config(tmp_path, **overrides):
    data = {
        "name": "small",
        "grid": {"plan": "C", "spacing_ghz": 50},
        "fiber": {
            "length_km": 80.0,
            "attenuation": {
                "kind": "parabolic", "min_db_per_km": 0.19,
                "vertex_thz": 193.5, "curvature_db_per_km_per_thz2": 1.0e-4,
            },
            "raman": {"kind": "triangular", "peak_per_w_per_km": 0.4},
        },
        "launch": {"mode": "flat", "power_dbm_per_channel": -1.0},
        "solver": {"steps_per_span": 20},
        "order": 3,
    }
    data.update(overrides)
    path = tmp_path / f"{data['name']}.json"
    path.write_text(json.dumps(data))
    return path


def _replace_shape_with_values_db(data, values_db):
    # values_db and shape are alternatives, so a config sets only one of them
    del data["osnr_target"]["shape"]
    data["osnr_target"]["values_db"] = values_db


class TestValidateConfig:
    def test_all_shipped_configs_validate(self, capsys):
        for cfg in ALL_CONFIGS:
            assert main(["validate-config", "--config", str(cfg)]) == 0
        assert len(ALL_CONFIGS) == 11

    def test_bad_bandwidth_names_band(self, tmp_path, capsys):
        path = small_config(
            tmp_path,
            grid={"bands": [{"name": "Q", "f_low_thz": 190.0, "f_high_thz": 190.52}],
                  "spacing_ghz": 50},
        )
        assert main(["validate-config", "--config", str(path)]) == 2
        assert "'Q'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "solve"])
    def test_non_finite_length_is_config_error(self, tmp_path, capsys, command):
        path = small_config(tmp_path)
        data = json.loads(path.read_text())
        data["fiber"]["length_km"] = float("nan")
        path.write_text(json.dumps(data))  # written as the JSON extension literal NaN
        assert "NaN" in path.read_text()
        assert main([command, "--config", str(path), "--output", str(tmp_path)]) == 2
        assert "fiber.length_km" in capsys.readouterr().err

    def test_mistyped_fiber_key_is_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path)
        data = json.loads(path.read_text())
        data["fiber"]["lenght_km"] = data["fiber"].pop("length_km")
        path.write_text(json.dumps(data))
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'lenght_km'" in err and "did you mean 'length_km'" in err

    def test_mistyped_section_is_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, solverr={"steps_per_span": 20})
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'solverr'" in err and "did you mean 'solver'" in err

    def test_osnr_target_keys_read_by_the_cli_are_known(self, tmp_path, capsys):
        path = CONFIG_DIR / "fig7_osnr_flat_clu.json"
        data = json.loads(path.read_text())
        _replace_shape_with_values_db(data, [0.0] * 333)
        data["osnr_target"].update(rmse_in_db=True, total_launch_power_dbm=24.0)
        edited = tmp_path / "fig7.json"
        edited.write_text(json.dumps(data))
        assert main(["validate-config", "--config", str(edited)]) == 0
        data["osnr_target"]["rmse_in_dB"] = True
        edited.write_text(json.dumps(data))
        assert main(["validate-config", "--config", str(edited)]) == 2
        assert "did you mean 'rmse_in_db'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["osnr_target"].update(shape="tilted"),
            lambda d: _replace_shape_with_values_db(d, [0.0] * 5),
            lambda d: d["osnr_target"].update(step=float("nan")),
            lambda d: d["osnr_target"].update(max_iterations=0),
            lambda d: d.update(order="x"),
            lambda d: d["solver"].update(steps_per_span="x"),
            lambda d: d["solver"].update(steps_per_span=2.5),
            lambda d: d["grid"].update(spacing_ghz=float("nan")),
            lambda d: d["solver"].update(photon_correction="false"),
            lambda d: d["link"].update(receiver_boost=1),
            lambda d: d["link"]["amplifier"]["noise_figure_db"].update(C=float("inf")),
            lambda d: d["link"].update(span_lengths_km=[]),
            lambda d: d["fiber"]["raman"].update(peak_separation_thz=0),
            lambda d: d["grid"].update(plan=5),
            lambda d: d["grid"].update(plan=["C"]),
            lambda d: d["osnr_target"].update(reference_bandwidth_ghz=-50),
            lambda d: d["osnr_target"].update(reference_bandwidth_ghz=0),
        ],
        ids=["shape-tilted", "values_db-5", "step-nan", "max_iterations-0", "order-x",
             "steps-x", "steps-2.5", "spacing-nan", "photon_correction-str", "boost-int",
             "noise_figure-inf", "span_lengths-empty", "peak_separation-0", "plan-int",
             "plan-list", "reference_bandwidth-negative", "reference_bandwidth-0"],
    )
    def test_validate_config_rejects_what_osnr_target_rejects(self, tmp_path, capsys, edit):
        # validate-config rejects what osnr-target would reject, with the same one line
        data = json.loads((CONFIG_DIR / "fig7_osnr_flat_clu.json").read_text())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        errors = []
        for command in ("validate-config", "osnr-target"):
            assert main([command, "--config", str(path), "--output", str(tmp_path)]) == 2
            errors.append(capsys.readouterr().err)
            assert errors[-1].startswith("config error: ") and errors[-1].count("\n") == 1
        assert errors[0] == errors[1]
        if "values_db" in data["osnr_target"]:
            assert "expected 333 target values, got shape (5,)" in errors[0]

    @pytest.mark.parametrize(
        "edit,match",
        [
            ({"raman_peak_separation_thz": 0}, "peak separation"),
            ({"raman_window_thz": 0}, "triangular gain window must be > 0, got 0.0"),
            ({"raman_peak_range": [-0.4, 0.4]}, "triangular gain peak must be >= 0, got -0.4"),
            ({"band_plans": ["C", 5]}, "sweep.band_plans: unknown band plan 5"),
            ({"band_plans": ["C", "X"]}, "sweep.band_plans: unknown band plan 'X'"),
            ({"band_plans": "CLU"}, "sweep.band_plans: expected a list"),
            ({"steps_per_span": 0}, "sweep steps_per_span must be an integer >= 1, got 0"),
            ({"orders": [3, 0]}, "sweep orders must be an integer >= 1, got 0"),
            ({"orders": [3, 3]}, "sweep orders must be distinct"),
            ({"length_range_km": [-50.0, 100.0]}, "sweep length_range_km must be > 0, got -50.0"),
        ],
        ids=["peak_separation-0", "window-0", "peak-negative", "plan-int", "plan-unknown",
             "plans-string", "steps-0", "order-0", "order-repeated", "length-negative"],
    )
    def test_sweep_section_is_checked_before_any_cell_runs(self, tmp_path, capsys, edit, match):
        # validate-config rejects what sweep would reject, with the same one line
        data = json.loads((CONFIG_DIR / "fig3_order_sweep.json").read_text())
        data["sweep"].update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        errors = []
        for command in ("validate-config", "sweep"):
            assert main([command, "--config", str(path), "--output", str(tmp_path)]) == 2
            errors.append(capsys.readouterr().err)
            assert errors[-1].startswith("config error: ") and errors[-1].count("\n") == 1
            assert match in errors[-1]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_order_flag_below_one_is_config_error(self, tmp_path, capsys, order):
        # --order is checked like the config's order, by every subcommand alike
        for command, name in [("validate-config", "fig4_single_span_clu"),
                              ("solve", "fig4_single_span_clu"),
                              ("closed-form", "fig4_single_span_clu"),
                              ("multispan", "fig6_multi_span_clu"),
                              ("preemph", "preemph_single_span_clu"),
                              ("osnr-target", "fig7_osnr_flat_clu")]:
            argv = [command, "--config", str(CONFIG_DIR / f"{name}.json"),
                    "--output", str(tmp_path), "--order", order]
            assert main(argv) == 2, command
            assert capsys.readouterr().err == (
                f"config error: order must be an integer >= 1, got {order}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "launch",
        [
            {"mode": "preemphasis", "target": {"shape": "flat"}},
            {"mode": "preemphasis", "target": {"shape": "flat", "power_dbm_per_channel": 0.0},
             "total_launch_power_dbm": 20.0},
        ],
    )
    def test_preemphasis_total_rules(self, tmp_path, capsys, launch):
        path = small_config(tmp_path, launch=launch)
        for command in ("validate-config", "preemph"):
            assert main([command, "--config", str(path), "--output", str(tmp_path)]) == 2
            assert "total_launch_power_dbm" in capsys.readouterr().err

    def test_multi_span_preemphasis_needs_a_shape_target(self, tmp_path, capsys):
        path = small_config(
            tmp_path, link={"span_lengths_km": [40.0, 40.0]},
            launch={"mode": "preemphasis", "target": {"values_dbm": [0.0] * 81}},
        )
        assert main(["validate-config", "--config", str(path)]) == 2
        assert "shape-only target" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "amplifier",
        [{"gain_policy": "restore-band-power"}, {"gain_policy": "fixed-gain", "gain_linear": 11.0}],
        ids=["restore-band-power", "fixed-gain"],
    )
    def test_multi_span_preemphasis_needs_total_restoring_amplifiers(
        self, tmp_path, capsys, amplifier
    ):
        # the backward recursion models only restore-total-power amplifiers
        data = json.loads((CONFIG_DIR / "preemph_multi_span_clu.json").read_text())
        data["link"]["amplifier"] = amplifier
        path = tmp_path / "preemph_other_policy.json"
        path.write_text(json.dumps(data))
        for command in ("validate-config", "preemph"):
            assert main([command, "--config", str(path), "--output", str(tmp_path)]) == 2
            assert capsys.readouterr().err == (
                "config error: multi-span pre-emphasis models restore-total-power amplifiers "
                "only; the amplifier at boundary 1 (after span 1) is "
                f"{amplifier['gain_policy']!r}\n"
            )
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "overrides,keys",
        [
            ({"grid": {"plan": "C", "spacing_ghz": 50, "spacing_thz": 0.05}},
             ("spacing_thz", "spacing_ghz")),
            ({"fiber": {"length_km": 80.0, "raman": {
                "kind": "triangular", "peak_per_w_per_km": 0.4,
                "slope_per_w_per_km_per_thz": 0.03}}},
             ("slope_per_w_per_km_per_thz", "peak_per_w_per_km")),
            ({"launch": {"mode": "table", "powers_dbm": [0.0] * 81,
                         "powers_dbm_file": "missing.csv"}},
             ("powers_dbm", "powers_dbm_file")),
            ({"link": {"span_lengths_km": [40.0, 40.0],
                       "amplifier": {"noise_figure_db": {"C": 5.5}}},
              "osnr_target": {"values_db": [0.0] * 81, "shape": "flat"}},
             ("values_db", "shape")),
            ({"launch": {"mode": "preemphasis", "total_launch_power_dbm": 19.0,
                         "target": {"shape": "flat", "values_dbm": [0.0] * 81}}},
             ("shape", "values_dbm")),
            ({"launch": {"mode": "preemphasis", "total_launch_power_dbm": 19.0,
                         "target": {"shape": "flat", "values": [1.0] * 81}}},
             ("shape", "values")),
        ],
        ids=["grid-spacing", "raman-slope-peak", "launch-powers", "osnr-values-shape",
             "target-shape-values_dbm", "target-shape-values"],
    )
    def test_alternative_keys_are_exclusive(self, tmp_path, capsys, overrides, keys):
        # each config would validate with either key alone; both is one line naming the two
        path = small_config(tmp_path, **overrides)
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"{keys[0]!r} and {keys[1]!r} are alternatives" in err

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"launch": {"mode": "flat", "power_dbm_per_channel": -1.0,
                         "powers_dbm": [0.0] * 81}},
             "launch.powers_dbm"),
            ({"launch": {"mode": "preemphasis",
                         "target": {"values_dbm": [0.0] * 81, "normalized": True}}},
             "launch.target.normalized"),
            ({"fiber": {"length_km": 80.0, "attenuation": {
                "kind": "constant", "db_per_km": 0.2, "vertex_thz": 193.5}}},
             "fiber.attenuation.vertex_thz"),
            ({"link": {"span_lengths_km": [40.0, 40.0], "amplifier": {
                "gain_policy": "restore-total-power", "gain_linear": 10.0}}},
             "link.amplifier.gain_linear"),
            ({"grid": {"plan": "C", "bands": [
                {"name": "C", "f_low_thz": 191.7, "f_high_thz": 195.75}]}},
             "grid.bands"),
        ],
        ids=["flat-launch-powers", "absolute-target-normalized", "constant-loss-vertex",
             "restoring-amplifier-gain", "plan-and-bands"],
    )
    def test_keys_the_chosen_kind_ignores_are_rejected(self, tmp_path, capsys, overrides, key):
        # each config validates without the key; with it, one line names section.key
        path = small_config(tmp_path, **overrides)
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: not read") and err.count("\n") == 1

    def test_osnr_target_section_becomes_target_osnr_arguments(self):
        cfg = parse_config(CONFIG_DIR / "fig7_osnr_flat_clu.json")
        target, = cfg.osnr.args
        assert target.normalized and target.grid is cfg.grid
        assert cfg.osnr.keywords == {
            "total_launch_power": cfg.launch.total_power, "step": 1.0, "tolerance": 1e-5,
            "max_iterations": 20, "rmse_in_db": False, "reference_bandwidth": 0.05,
        }

    def test_missing_file(self, capsys):
        assert main(["validate-config", "--config", "/nonexistent.json"]) == 2

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  bad\n}')
        assert main(["validate-config", "--config", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestCommands:
    def test_closed_form_needs_a_fiber_length(self, tmp_path, capsys):
        # a fiber without length_km is no 1 km stand-in span
        cfg = CONFIG_DIR / "fig6_multi_span_clu.json"
        assert main(["closed-form", "--config", str(cfg), "--output", str(tmp_path)]) == 2
        assert "fiber.length_km" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_closed_form_and_one_span_multispan_sample_alike(self, tmp_path):
        # both commands run one link path, refresh_reference included
        path = small_config(tmp_path, grid={"plan": "CLU", "spacing_ghz": 50},
                            refresh_reference=True)
        data = json.loads(path.read_text())
        data["link"] = {"span_lengths_km": [data["fiber"].pop("length_km")]}
        data["name"] = "one_span"
        (tmp_path / "one_span.json").write_text(json.dumps(data))
        assert main(["closed-form", "--config", str(path), "--output", str(tmp_path)]) == 0
        assert main(["multispan", "--config", str(tmp_path / "one_span.json"),
                     "--output", str(tmp_path)]) == 0
        closed = (tmp_path / "small_closedform_longitudinal.csv").read_text()
        multi = (tmp_path / "one_span_multispan_longitudinal.csv").read_text()
        assert closed == multi
        for kind in ("longitudinal", "spectrum"):
            assert ((tmp_path / f"small_closedform_{kind}.csv").read_bytes()
                    == (tmp_path / f"one_span_multispan_{kind}.csv").read_bytes())
        # solve runs a fiber config as the one-span link of its fiber
        for config in (path, tmp_path / "one_span.json"):
            assert main(["solve", "--config", str(config), "--output", str(tmp_path)]) == 0
        for kind in ("longitudinal", "spectrum"):
            assert ((tmp_path / f"small_solve_{kind}.csv").read_bytes()
                    == (tmp_path / f"one_span_solve_{kind}.csv").read_bytes())
        refresh_off = tmp_path / "off"
        data["refresh_reference"] = False
        (tmp_path / "one_span.json").write_text(json.dumps(data))
        assert main(["multispan", "--config", str(tmp_path / "one_span.json"),
                     "--output", str(refresh_off)]) == 0
        assert (refresh_off / "one_span_multispan_longitudinal.csv").read_text() != multi

    def test_closed_form_spectrum_has_one_row_per_channel(self, tmp_path):
        cfg = CONFIG_DIR / "fig4_single_span_clu.json"
        assert main(["closed-form", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "fig4_single_span_clu_closedform_spectrum.csv").read_text().splitlines()
        assert len(lines) == 334  # header + 333 channels

    def test_solve_longitudinal_layout(self, tmp_path):
        path = small_config(tmp_path)
        assert main(["solve", "--config", str(path), "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "small_solve_longitudinal.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "z_km" and header[-1] == "total_dbm"
        assert len(header) == 83  # z + 81 channels + total
        assert len(lines) == 22  # header + 21 samples

    def test_steps_override(self, tmp_path):
        path = small_config(tmp_path)
        assert main(["solve", "--config", str(path), "--output", str(tmp_path), "--steps", "5"]) == 0
        lines = (tmp_path / "small_solve_longitudinal.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_multispan_and_preemph(self, tmp_path):
        path = small_config(
            tmp_path,
            name="ms",
            link={"span_lengths_km": [40.0, 40.0],
                  "amplifier": {"gain_policy": "restore-total-power"}},
        )
        assert main(["multispan", "--config", str(path), "--output", str(tmp_path)]) == 0
        assert (tmp_path / "ms_multispan_spectrum.csv").exists()

        pre = small_config(
            tmp_path,
            name="pre",
            launch={"mode": "preemphasis",
                    "target": {"shape": "flat"},
                    "total_launch_power_dbm": 18.0},
        )
        assert main(["preemph", "--config", str(pre), "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "pre_preemph_launch.csv").read_text().splitlines()
        assert len(lines) == 82

    def test_link_longitudinal_layout_with_boost(self, tmp_path):
        # both link backends: 2 spans x (steps + 1) samples, each boundary
        # twice, then the receiver-boost row at the link end
        path = small_config(
            tmp_path, name="boost", grid={"plan": "CL", "spacing_ghz": 50},
            link={"span_lengths_km": [40.0, 60.0],
                  "amplifier": {"gain_policy": "restore-band-power"},
                  "receiver_boost": True},
        )
        tables = {}
        for command in ("solve", "multispan"):
            assert main([command, "--config", str(path), "--output", str(tmp_path)]) == 0
            with open(tmp_path / f"boost_{command}_longitudinal.csv", newline="") as fh:
                tables[command] = list(csv.DictReader(fh))
        z_columns = {command: [r["z_km"] for r in rows] for command, rows in tables.items()}
        assert z_columns["solve"] == z_columns["multispan"]
        for rows in tables.values():
            z = [float(r["z_km"]) for r in rows]
            assert len(rows) == 2 * (20 + 1) + 1
            assert z.count(40.0) == 2 and z[-2] == z[-1] == 100.0
            assert float(rows[-1]["total_dbm"]) == pytest.approx(
                float(rows[0]["total_dbm"]), abs=1e-6
            )
            assert float(rows[-2]["total_dbm"]) < float(rows[0]["total_dbm"]) - 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_longitudinal_rows_stream_into_the_list_built_bytes(self, tmp_path, monkeypatch, fmt):
        # the writer takes the z rows as float blocks, one at a time, and writes
        # what building the whole row list, one spectrum at a time, and dumping
        # it at once wrote
        path = small_config(tmp_path, link={"span_lengths_km": [40.0, 30.0]})
        commands = ("solve", "multispan")
        for command in commands:
            assert main([command, "--config", str(path), "--output", str(tmp_path / "streamed"),
                         "--format", fmt]) == 0
        launch = parse_config(path).launch
        z = np.linspace(0.0, 1.0, 200)
        _, blocks = cli._longitudinal_table(launch.grid, [(z, np.tile(launch.powers, (200, 1)))])
        assert isinstance(blocks, Iterator)
        blocks = list(blocks)
        assert len(blocks) > 1 and all(b.ndim == 2 and b.size <= cli._BLOCK_VALUES for b in blocks)
        assert sum(len(b) for b in blocks) == 200

        def list_built_table(grid, samples):
            header = ["z_km"] + [f"p_dbm_{f:.4f}" for f in grid.frequencies] + ["total_dbm"]
            rows = []
            for zs, powers in samples:
                for at, p in zip(zs.tolist(), powers):
                    rows.append([at, *(cli._dbm(p).tolist()), float(cli._dbm(float(p.sum())))])
            return header, rows

        def dumping_writer(path, header, rows, fmt):
            if fmt == "json":
                records = [dict(zip(header, row)) for row in rows]
                path.with_suffix(".json").write_text(
                    json.dumps(records, indent=1, default=float) + "\n")
            else:
                with open(path, "w", newline="") as fh:
                    fh.write("".join(cli._csv_lines(header, list(rows))))

        monkeypatch.setattr(cli, "_longitudinal_table", list_built_table)
        monkeypatch.setattr(cli, "_write_table", dumping_writer)
        for command in commands:
            assert main([command, "--config", str(path), "--output", str(tmp_path / "listed"),
                         "--format", fmt]) == 0
        for command in commands:
            name = f"small_{command}_longitudinal.{fmt}"
            streamed = (tmp_path / "streamed" / name).read_bytes()
            assert streamed == (tmp_path / "listed" / name).read_bytes()
            assert len(streamed.splitlines()) > 2 * 21

    @pytest.mark.parametrize(
        "rows",
        [[], [[0.5, "C", 3]], [[float("nan"), 'say "a,\nb"', np.float64(-0.0)],
                               [np.int64(7), "", float("inf")]]],
        ids=["empty", "one-row", "edge-values"],
    )
    def test_json_table_is_json_dumps_of_its_records(self, tmp_path, rows):
        header = ["a", "b", "c"]
        cli._write_table(tmp_path / "t.csv", header, iter(rows), "json")
        records = [dict(zip(header, row)) for row in rows]
        expected = json.dumps(records, indent=1, default=float) + "\n"
        assert (tmp_path / "t.json").read_text() == expected

    def test_a_float_block_writes_the_bytes_of_its_rows(self, tmp_path):
        # a 2-D float array in place of a row stands for its rows, in CSV and
        # JSON alike; a row with a value off the encoder's path (0, nan, inf,
        # 1e-7, an exact tie) keeps its place
        rng = np.random.default_rng(3)
        block = rng.uniform(-40.0, 40.0, (6, 50))
        block[:, 0] = np.linspace(0.0, 250.0, 6)
        block[2, 5], block[3, 1], block[4, 9], block[5, 7] = np.nan, np.inf, 1e-7, 2.5
        header = [f"c{i}" for i in range(50)]
        assert ("".join(cli._csv_lines(header, [block, [1.5] * 50, block[:1]]))
                == "".join(cli._csv_lines(header, block.tolist() + [[1.5] * 50]
                                          + block[:1].tolist())))
        for fmt in ("csv", "json"):
            cli._write_table(tmp_path / "block.csv", header, iter([block, block[::-1]]), fmt)
            cli._write_table(tmp_path / "rows.csv", header,
                             iter(block.tolist() + block[::-1].tolist()), fmt)
            suffix = ".json" if fmt == "json" else ".csv"
            assert ((tmp_path / "block").with_suffix(suffix).read_bytes()
                    == (tmp_path / "rows").with_suffix(suffix).read_bytes())

    def test_sweep_json_holds_the_csv_values(self, tmp_path):
        # both formats round floats to 9 significant digits
        path = small_config(tmp_path, name="sw", sweep=TWO_BAND_SWEEP)
        for fmt in ("csv", "json"):
            assert main(["sweep", "--config", str(path), "--output", str(tmp_path),
                         "--format", fmt]) == 0
        for kind in ("records", "summary"):
            with open(tmp_path / f"sw_sweep_{kind}.csv", newline="") as fh:
                table = list(csv.DictReader(fh))
            records = json.loads((tmp_path / f"sw_sweep_{kind}.json").read_text())
            assert len(records) == len(table) > 1
            for record, row in zip(records, table):
                assert list(record) == list(row)
                for key, value in record.items():
                    if isinstance(value, str):
                        assert value == row[key]
                    else:
                        assert value == float(row[key]), (kind, key)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_writes_the_same_bytes_on_every_run(self, tmp_path, fmt):
        path = small_config(tmp_path, name="sw", sweep=TWO_BAND_SWEEP)
        written = []
        for run in range(4):
            out = tmp_path / f"run{run}"
            assert main(["sweep", "--config", str(path), "--output", str(out),
                         "--format", fmt]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(written[0]) == [f"sw_sweep_records.{fmt}", f"sw_sweep_summary.{fmt}"]
        assert all(files == written[0] for files in written[1:])

    def test_sweep_csv(self, tmp_path):
        path = small_config(
            tmp_path,
            name="sw",
            sweep={"band_plans": ["C"], "raman_peak_count": 1,
                   "launch_power_count": 1, "length_count": 1,
                   "orders": [3], "steps_per_span": 20},
        )
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path)]) == 0
        recs = (tmp_path / "sw_sweep_records.csv").read_text().splitlines()
        assert len(recs) == 2

    def test_sweep_has_no_workers_option(self, tmp_path, capsys):
        # the sweep runs in one process; the option is gone, not ignored
        path = small_config(tmp_path, name="sw", sweep={"band_plans": ["C"]})
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(path), "--output", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "sw_sweep_records.csv").exists()

    def test_osnr_target_outputs(self, tmp_path):
        path = small_config(
            tmp_path,
            name="osnr",
            link={"span_lengths_km": [50.0, 50.0],
                  "amplifier": {"gain_policy": "restore-total-power",
                                "noise_figure_db": {"C": 5.5}},
                  "receiver_boost": True},
            osnr_target={"shape": "flat", "total_launch_power_dbm": 18.0,
                         "tolerance": 1e-5, "max_iterations": 20},
        )
        assert main(["osnr-target", "--config", str(path), "--output", str(tmp_path)]) == 0
        history = (tmp_path / "osnr_osnr_history.csv").read_text().splitlines()
        assert history[0] == "iteration,rmse"
        final_rmse = float(history[-1].split(",")[1])
        assert final_rmse < 1e-5
        assert (tmp_path / "osnr_osnr_launch.csv").exists()
        assert (tmp_path / "osnr_osnr_profile.csv").exists()

    def test_json_format(self, tmp_path):
        path = small_config(tmp_path)
        assert main(["closed-form", "--config", str(path), "--output", str(tmp_path),
                     "--format", "json"]) == 0
        data = json.loads((tmp_path / "small_closedform_spectrum.json").read_text())
        assert len(data) == 81
        assert set(data[0]) == {"channel", "frequency_thz", "band", "power_dbm"}

    @pytest.mark.parametrize(
        "command,name,edit",
        [
            ("preemph", "preemph_single_span_clu",
             lambda d: d["fiber"].update(length_km=20000.0)),
            ("preemph", "preemph_multi_span_clu",
             lambda d: d["link"]["span_lengths_km"].__setitem__(0, 20000.0)),
            ("osnr-target", "fig7_osnr_flat_clu",
             lambda d: d["link"]["span_lengths_km"].__setitem__(0, 20000.0)),
        ],
        ids=["preemph-single", "preemph-multi", "osnr-target"],
    )
    def test_inverse_of_an_overflowing_span_loss_is_config_error(
        self, tmp_path, capsys, command, name, edit
    ):
        # e^{alpha0 L} of a 20000 km span overflows a float
        data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        edit(data)
        path = tmp_path / "lossy.json"
        path.write_text(json.dumps(data))
        assert main([command, "--config", str(path), "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: span loss of ") and err.count("\n") == 1
        assert "dB over 20000 km is too large to invert" in err

    @pytest.mark.parametrize(
        "command,name,edit,message",
        [
            ("osnr-target", "fig7_osnr_flat_clu",
             lambda d: d["osnr_target"].update(total_launch_power_dbm=1e308),
             "1e+308 dBm is too large to convert to W"),
            ("solve", "fig4_single_span_clu",
             lambda d: d["launch"].update(power_dbm_per_channel=5000),
             "5000.0 dBm is too large to convert to W"),
            ("osnr-target", "fig7_osnr_flat_clu",
             lambda d: d["link"]["amplifier"]["noise_figure_db"].update(C=1e308),
             "noise figure for band 'C': 1e+308 dB is too large to convert to linear"),
        ],
        ids=["osnr-total", "solve-launch", "noise-figure"],
    )
    def test_a_db_value_past_the_float_range_is_config_error(self, tmp_path, capsys, command,
                                                             name, edit, message):
        # 10 ** (x / 10) of one such value raised a bare OverflowError with a traceback
        data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        edit(data)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists() or not any(out.iterdir())

    def test_receiver_boost_of_a_vanished_output_is_config_error(self, tmp_path, capsys):
        # the output of a 20000 km span underflows to 0 W, which no gain restores
        data = json.loads((CONFIG_DIR / "fig6_multi_span_clu.json").read_text())
        data["link"].update(span_lengths_km=[20000.0], receiver_boost=True)
        path = tmp_path / "vanish.json"
        path.write_text(json.dumps(data))
        assert main(["multispan", "--config", str(path), "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: span output power must be positive\n"

    def test_a_vanished_output_without_boost_is_config_error(self, tmp_path, capsys):
        # no gain needs the 0 W output, but its dB values do not exist
        data = json.loads((CONFIG_DIR / "fig6_multi_span_clu.json").read_text())
        data["link"].update(span_lengths_km=[20000.0], receiver_boost=False)
        path = tmp_path / "vanish.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["multispan", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "config error: span output power must be positive\n"
        assert not any(out.iterdir())

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # absurd launch power destabilizes the fixed-step integrator
        path = small_config(
            tmp_path, name="hot",
            launch={"mode": "flat", "power_dbm_per_channel": 40.0},
            solver={"steps_per_span": 1},
        )
        assert main(["solve", "--config", str(path), "--output", str(tmp_path)]) == 3
        assert "steps_per_span" in capsys.readouterr().err

    def test_launch_table_from_file(self, tmp_path):
        table = tmp_path / "launch.csv"
        table.write_text("channel,power_dbm\n" + "\n".join(f"{i},-1.0" for i in range(81)))
        path = small_config(
            tmp_path, name="tab",
            launch={"mode": "table", "powers_dbm_file": "launch.csv"},
        )
        cfg = parse_config(path)
        assert cfg.launch is not None
        assert cfg.launch.total_power == pytest.approx(81 * 10 ** (-0.1) * 1e-3)

    def test_missing_launch_file_is_config_error(self, tmp_path, capsys):
        path = small_config(
            tmp_path, name="miss",
            launch={"mode": "table", "powers_dbm_file": "nope.csv"},
        )
        assert main(["solve", "--config", str(path), "--output", str(tmp_path)]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("cols.csv", "channel,power\n0,-1.0\n", "needs a power_dbm column"),
            ("cell.csv", "channel,power_dbm\n0,abc\n", "could not convert"),
            ("nan.json", "[-1.0, NaN]", "launch.powers_dbm_file"),
        ],
        ids=["no-column", "non-numeric", "nan"],
    )
    def test_bad_launch_table_file_is_config_error(self, tmp_path, capsys, name, text, message):
        (tmp_path / name).write_text(text)
        path = small_config(tmp_path, launch={"mode": "table", "powers_dbm_file": name})
        assert main(["validate-config", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


def _set(section, **values):
    """A config edit that sets ``values`` in ``section`` (the root for None)."""
    def edit(data):
        (data if section is None else data[section]).update(values)
    return edit


class TestRejectedInputs:
    """A bad input exits 2 with one line and writes no file, inside --output or out of it."""

    @pytest.mark.parametrize(
        "config,command,edit,message",
        [
            ("fig4_single_span_clu", "closed-form", _set(None, name=["a"]),
             "config.name: expected a plain file-name stem, got ['a']"),
            ("fig4_single_span_clu", "closed-form", _set(None, name="../../escape"),
             "config.name: expected a plain file-name stem, got '../../escape'"),
            ("fig4_single_span_clu", "closed-form", _set(None, name=".."),
             "config.name: expected a plain file-name stem, got '..'"),
            ("fig4_single_span_clu", "closed-form", _set(None, grid={"bands": []}),
             "a channel grid needs at least one band"),
            ("fig4_single_span_clu", "closed-form",
             _set(None, launch={"mode": "table", "powers_dbm_file": "tables"}),
             "launch: tables: [Errno 21] Is a directory: 'tables'"),
            ("fig3_order_sweep", "sweep", _set("sweep", band_plans=[]),
             "sweep needs at least one band plan"),
            # the closed form's powers underflow to 0 W, which has no dBm value
            ("fig4_single_span_clu", "closed-form", _set("launch", power_dbm_per_channel=30.0),
             "fig4_single_span_clu_closedform_longitudinal: channel 255 (191.8750 THz) "
             "is at 0 W at z = 8 km, which has no dBm value"),
            ("fig6_multi_span_clu", "multispan", _set("launch", power_dbm_per_channel=30.0),
             "fig6_multi_span_clu_multispan_longitudinal: channel 283 (193.2750 THz) "
             "is at 0 W at z = 7 km, which has no dBm value"),
            # channels of the launch the shape-only inverse finds at 50 dBm underflow
            ("preemph_multi_span_clu", "preemph",
             _set("launch", total_launch_power_dbm=50.0),
             "the launch for the shape-only target at 50 dBm total over 50 km leaves "
             "139 of 333 channels at 0 W (their powers underflow)"),
            ("fig7_osnr_flat_clu", "osnr-target",
             _set("osnr_target", total_launch_power_dbm=50.0),
             "the launch for the shape-only target at 50 dBm total over 50 km leaves "
             "139 of 333 channels at 0 W (their powers underflow)"),
            ("preemph_single_span_clu", "preemph",
             _set(None, launch={"mode": "preemphasis",
                                "target": {"shape": "flat", "power_dbm_per_channel": 10.0}}),
             "the launch for the absolute target (35.2244 dBm output total) over 100 km "
             "with a span loss of 19.6198 dB overflows"),
        ],
        ids=["name-list", "name-escapes", "name-dotdot", "no-bands", "launch-file-is-a-directory",
             "no-band-plans", "closed-form-at-0-W", "multispan-at-0-W", "preemph-at-0-W",
             "osnr-target-at-50-dBm", "preemph-absolute-overflow"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, config, command,
                                        edit, message, fmt):
        data = json.loads((CONFIG_DIR / f"{config}.json").read_text())
        edit(data)
        work = tmp_path / "a" / "b"
        (work / "tables").mkdir(parents=True)
        (work / "bad.json").write_text(json.dumps(data))
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(work)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", "bad.json", "--output", "out", "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert sorted(p for p in tmp_path.rglob("*") if p.name != "out") == before
        assert not (work / "out").exists() or not any((work / "out").iterdir())

    def test_a_config_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        assert main(["validate-config", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: config file {tmp_path}: Is a directory\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["closed-form", "--config", str(path), "--output", str(out)]) == 0
            assert main(["solve", "--config", str(path), "--output", str(out)]) == 0
        for name in ("small_closedform_spectrum.csv", "small_closedform_longitudinal.csv",
                     "small_solve_spectrum.csv", "small_solve_longitudinal.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def tree_bytes(root):
    """Every file under ``root`` by its path relative to ``root``."""
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


class TestOneProcessManyCalls:
    """The parser and the span-term caches are shared by every call in a process."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_options_do_not_leak_into_the_next_call(self, tmp_path):
        path = small_config(tmp_path)
        runs = [
            ("plain", []),
            ("flagged", ["--order", "1", "--steps", "4", "--format", "json"]),
            ("steps", ["--steps", "7"]),
        ]
        first, second = {}, {}
        for k, trees in enumerate((first, second)):
            for name, flags in runs:
                out = tmp_path / f"{name}-{k}"
                assert main(["closed-form", "--config", str(path), "--output", str(out),
                             *flags]) == 0
                trees[name] = tree_bytes(out)
        assert first == second
        assert sorted(first["plain"]) == ["small_closedform_longitudinal.csv",
                                          "small_closedform_spectrum.csv"]
        assert sorted(first["flagged"]) == ["small_closedform_longitudinal.json",
                                            "small_closedform_spectrum.json"]
        rows = {name: first[name]["small_closedform_longitudinal.csv"].count(b"\n")
                for name in ("plain", "steps")}
        assert rows == {"plain": 1 + 21, "steps": 1 + 8}  # header + steps + 1 samples
        args = build_parser().parse_args(["solve", "--config", str(path)])
        assert (args.order, args.steps, args.format) == (None, None, "csv")

    def test_repeated_runs_write_identical_files(self, tmp_path):
        runs = [
            ("osnr-target", "fig7_osnr_flat_clu.json", []),
            ("preemph", "preemph_multi_span_clu.json", []),
        ]
        between = [
            ("closed-form", "fig5d_single_span_sclu.json", ["--order", "6", "--format", "json"]),
            ("preemph", "preemph_single_span_clu.json", ["--order", "1"]),
            ("osnr-target", "fig7_osnr_flat_clu.json", ["--order", "2"]),
        ]
        trees = []
        for k, sequence in enumerate((runs, between, runs)):
            out = tmp_path / str(k)
            for command, config, flags in sequence:
                assert main([command, "--config", str(CONFIG_DIR / config),
                             "--output", str(out), *flags]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[2]
        assert len(trees[0]) == 4  # three OSNR tables and one launch table


class TestShippedScenarios:
    """Every shipped scenario runs end to end through its subcommand."""

    @pytest.mark.parametrize(
        "config,commands",
        [
            ("fig4_single_span_clu.json", ("solve", "closed-form")),
            ("fig5a_single_span_c.json", ("closed-form",)),
            ("fig5b_single_span_cl.json", ("closed-form",)),
            ("fig5c_single_span_clu.json", ("closed-form",)),
            ("fig5d_single_span_sclu.json", ("closed-form", "solve")),
            ("fig6_multi_span_clu.json", ("multispan", "solve")),
            ("fig7_osnr_flat_clu.json", ("osnr-target",)),
            ("preemph_single_span_clu.json", ("preemph",)),
            ("preemph_multi_span_clu.json", ("preemph",)),
        ],
    )
    def test_runs_to_success(self, tmp_path, config, commands):
        for command in commands:
            code = main([command, "--config", str(CONFIG_DIR / config),
                         "--output", str(tmp_path)])
            assert code == 0, f"{command} failed on {config}"

    def test_every_figure_run_writes_only_finite_values(self, tmp_path):
        # the scripts/run_figures.py runs, each config through its own subcommands
        runs = runpy.run_path(str(CONFIG_DIR.parent / "scripts" / "run_figures.py"))["RUNS"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for config, commands in runs:
                for command in commands:
                    assert main([command, "--config", str(CONFIG_DIR / config),
                                 "--output", str(tmp_path), "--steps", "8"]) == 0
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        tables = sorted(tmp_path.glob("*.csv"))
        assert len(tables) == 26
        for table in tables:
            with open(table, newline="") as fh:
                for row in csv.reader(fh):
                    for cell in row:
                        try:
                            value = float(cell)
                        except ValueError:  # a band name, an error or a header
                            continue
                        assert math.isfinite(value), (table.name, row[0], cell)

    def test_sweep_scenario_smoke(self, tmp_path):
        # full sweep budget lives in the acceptance suite; shrink the axes here
        code = main(["sweep", "--config", str(CONFIG_DIR / "fig3_order_sweep.json"),
                     "--output", str(tmp_path), "--steps", "10"])
        assert code == 0
        lines = (tmp_path / "fig3_order_sweep_sweep_records.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 125 * 6


class TestOverrides:
    @pytest.mark.parametrize("command, name", [("closed-form", "fig4_single_span_clu"),
                                               ("multispan", "fig6_multi_span_clu"),
                                               ("preemph", "preemph_single_span_clu"),
                                               ("osnr-target", "fig7_osnr_flat_clu")])
    def test_an_order_whose_mean_attenuation_underflows_is_config_error(
            self, tmp_path, capsys, command, name):
        # alpha_i^250 underflows on the shipped CLU fibers; order 200 still runs
        argv = [command, "--config", str(CONFIG_DIR / f"{name}.json"), "--output"]
        assert main(argv + [str(tmp_path / "high"), "--order", "250"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: approximation order 250 is too high for this spectrum")
        assert not (tmp_path / "high").exists() or not list((tmp_path / "high").iterdir())
        assert main(argv + [str(tmp_path / "ok"), "--order", "200"]) == 0

    def test_a_sweep_cell_at_an_underflowing_order_records_the_error(self, tmp_path):
        path = small_config(tmp_path, name="sw", sweep=dict(TWO_BAND_SWEEP, orders=[3, 250]))
        assert main(["sweep", "--config", str(path), "--output", str(tmp_path)]) == 0
        with open(tmp_path / "sw_sweep_records.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert {r["order"] for r in records} == {"3", "250"}
        for r in records:
            assert ("approximation order 250 is too high" in r["error"]) == (r["order"] == "250")

    def test_order_override_changes_output(self, tmp_path):
        path = small_config(tmp_path, grid={"plan": "CLU", "spacing_ghz": 50})
        out1, out6 = tmp_path / "n3", tmp_path / "n6"
        assert main(["closed-form", "--config", str(path), "--output", str(out1)]) == 0
        assert main(["closed-form", "--config", str(path), "--output", str(out6),
                     "--order", "6"]) == 0
        a = (out1 / "small_closedform_spectrum.csv").read_bytes()
        b = (out6 / "small_closedform_spectrum.csv").read_bytes()
        assert a != b


class TestConfigKinds:
    def test_custom_bands_and_tabulated_profiles(self, tmp_path):
        path = small_config(
            tmp_path,
            name="tab",
            grid={"bands": [{"name": "X", "f_low_thz": 190.0, "f_high_thz": 192.0}],
                  "spacing_ghz": 50},
            fiber={
                "length_km": 60.0,
                "attenuation": {"kind": "tabulated",
                                "frequencies_thz": [189.0, 193.0],
                                "db_per_km": [0.20, 0.22]},
                "raman": {"kind": "tabulated",
                          "separations_thz": [0.0, 14.0, 15.5],
                          "gain_per_w_per_km": [0.0, 0.4, 0.0]},
            },
        )
        cfg = parse_config(path)
        assert cfg.grid.n_channels == 40
        assert cfg.fiber.attenuation.kind == "tabulated"
        assert cfg.fiber.raman.kind == "tabulated"
        assert main(["solve", "--config", str(path), "--output", str(tmp_path)]) == 0

    def test_constant_attenuation_config(self, tmp_path):
        path = small_config(
            tmp_path, name="const",
            fiber={"length_km": 60.0,
                   "attenuation": {"kind": "constant", "db_per_km": 0.2},
                   "raman": {"kind": "triangular", "peak_per_w_per_km": 0.4}},
        )
        cfg = parse_config(path)
        assert cfg.fiber.attenuation.kind == "constant"
        assert main(["closed-form", "--config", str(path), "--output", str(tmp_path)]) == 0


def _leaves(node, path=()):
    """(path, value) of every number, boolean and list in a parsed JSON config."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        yield path, node
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    elif isinstance(node, (bool, int, float)):
        yield path, node


def _fig7_with_values_db():
    data = json.loads((CONFIG_DIR / "fig7_osnr_flat_clu.json").read_text())
    _replace_shape_with_values_db(data, [0.01 * (i % 7) for i in range(333)])
    return data


PROPERTY_CONFIGS = [
    json.loads((CONFIG_DIR / name).read_text())
    for name in ("fig4_single_span_clu.json", "fig7_osnr_flat_clu.json",
                 "preemph_single_span_clu.json", "preemph_multi_span_clu.json")
] + [_fig7_with_values_db()]
BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), "1.0", "x", True, False]
BAD_FLAGS = ["false", "true", 0, 1, 0.0]


@st.composite
def _broken_config(draw):
    """A shipped config with one leaf mistyped, made non-finite or resized."""
    data = json.loads(json.dumps(draw(st.sampled_from(PROPERTY_CONFIGS))))
    path, value = draw(st.sampled_from(list(_leaves(data))))
    if isinstance(value, list):
        # a link takes any positive span count; every other list here is sized
        sizes = [0] if path[-1] == "span_lengths_km" else [0, len(value) - 1, len(value) + 1]
        size = draw(st.sampled_from(sizes))
        bad = (value * 2)[:size]
    else:
        bad = draw(st.sampled_from(BAD_FLAGS if isinstance(value, bool) else BAD_NUMBERS))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    return data


class TestBadValueProperty:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=_broken_config())
    def test_validate_config_exits_2_with_one_line(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("bad") / "bad.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["validate-config", "--config", str(path)])
        assert code == 2
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
