import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isrsprop import (
    ConfigurationError,
    PowerSpectrum,
    SweepConfig,
    run_order_sweep,
    total_power_error_ratio,
)
from isrsprop.bench import SweepRecord, SweepSummary, summarize
from isrsprop import bench, cli
from isrsprop.closedform import derive_params, power_profile
from isrsprop.errors import NumericalInstabilityError
from isrsprop.ode_oracle import SolverOptions, integrate_span
from isrsprop.profiles import Band, FiberSpec, RamanGainModel, build_channel_grid


class TestErrorRatio:
    def test_identical_spectra(self, c_grid):
        s = PowerSpectrum(c_grid, np.full(c_grid.n_channels, 1e-4))
        assert total_power_error_ratio(s, s) == pytest.approx(1.0)

    def test_uniform_one_percent_high(self, c_grid):
        base = np.full(c_grid.n_channels, 1e-4)
        a = PowerSpectrum(c_grid, base * 1.01)
        b = PowerSpectrum(c_grid, base)
        assert total_power_error_ratio(a, b) == pytest.approx(1.01)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, scale):
        from isrsprop import build_channel_grid

        grid = build_channel_grid("C")
        rng = np.random.default_rng(0)
        pa = rng.uniform(1e-5, 1e-3, grid.n_channels)
        pb = rng.uniform(1e-5, 1e-3, grid.n_channels)
        r1 = total_power_error_ratio(PowerSpectrum(grid, pa), PowerSpectrum(grid, pb))
        r2 = total_power_error_ratio(
            PowerSpectrum(grid, scale * pa), PowerSpectrum(grid, scale * pb)
        )
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_zero_oracle_rejected(self, c_grid):
        a = PowerSpectrum(c_grid, np.full(c_grid.n_channels, 1e-4))
        b = PowerSpectrum(c_grid, np.zeros(c_grid.n_channels))
        with pytest.raises(ConfigurationError, match="positive"):
            total_power_error_ratio(a, b)

    def test_grids_must_place_the_same_channels(self):
        # one channel at 193.25 THz on a 500 GHz and on a 250 GHz grid, and
        # two 81-channel grids 3 THz apart: equal counts, other channels
        wide = build_channel_grid([Band("X", 193.0, 193.5)], 0.5)
        narrow = build_channel_grid([Band("X", 193.125, 193.375)], 0.25)
        assert np.array_equal(wide.frequencies, narrow.frequencies)
        c = build_channel_grid("C")
        shifted = build_channel_grid([Band("C", 194.70, 198.75)], c.spacing)
        assert shifted.n_channels == c.n_channels
        for a, b in ((wide, narrow), (c, shifted)):
            pa = PowerSpectrum(a, np.full(a.n_channels, 1e-4))
            pb = PowerSpectrum(b, np.full(b.n_channels, 1e-4))
            with pytest.raises(ConfigurationError, match="share a grid"):
                total_power_error_ratio(pa, pb)
        rebuilt = PowerSpectrum(build_channel_grid("C"), np.full(c.n_channels, 1e-4))
        assert total_power_error_ratio(PowerSpectrum(c, 1.01 * rebuilt.powers), rebuilt) == (
            pytest.approx(1.01)
        )


SMALL = SweepConfig(
    band_plans=("C",),
    raman_peak_count=1,
    launch_power_count=1,
    length_count=2,
    orders=(1, 3),
    steps_per_span=30,
)


class TestSweepConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps_per_span", 2.5),
            ("steps_per_span", 0),
            ("length_count", 2.0),
            ("raman_peak_range", (0.3, float("nan"))),
            ("launch_power_dbm_range", (float("nan"), 0.0)),
            ("launch_power_dbm_range", (-5.0, float("inf"))),
            ("spacing", float("nan")),
            ("spacing", 0.0),
            ("orders", (3, 3)),
            ("orders", (2.5,)),
            ("orders", (float("nan"),)),
            ("raman_peak_range", (0.3,)),
            ("launch_power_dbm_range", (-5.0, -2.5, 0.0)),
            ("length_range_km", 100.0),
            ("band_plans", "CLU"),
        ],
    )
    def test_bad_field_is_rejected_at_construction(self, field, value):
        # each failed only once the sweep ran, in a message naming no sweep field
        with pytest.raises(ConfigurationError, match=f"^sweep {field} must be"):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"band_plans": ("C", "X")}, "unknown band plan 'X'"),
            ({"band_plans": ("C", 5)},
             r"^sweep band_plans must be a sequence of plan names, got \('C', 5\)$"),
            ({"band_plans": ("C", "CLU"), "spacing": 0.04},
             "^band 'C' width .* is not an integer multiple of the 0.04 THz spacing$"),
        ],
    )
    def test_band_plans_are_checked_at_construction(self, edit, match):
        # each failed only when its groups ran, after every plan before it
        with pytest.raises(ConfigurationError, match=match):
            SweepConfig(**edit)

    @pytest.mark.parametrize("orders", [(True, 2), (1, False)])
    def test_bool_order_is_rejected(self, orders):
        # bool is an int subclass, but True ran as order 1 and came back as order=True
        with pytest.raises(ConfigurationError,
                           match="^sweep orders must be an integer >= 1, got (True|False)$"):
            SweepConfig(orders=orders)

    @pytest.mark.parametrize("field", ["raman_peak_range", "launch_power_dbm_range",
                                       "length_range_km"])
    @pytest.mark.parametrize("bounds", [("a", 0.4), (None, 1.0), (True, 2.0), (1.0, np.False_)],
                             ids=["str", "None", "True", "np.False_"])
    def test_range_members_must_be_real_numbers(self, field, bounds):
        # a string reached math.isfinite and failed with a bare TypeError
        with pytest.raises(ConfigurationError, match=(
                f"^{re.escape(f'sweep {field} must be two real numbers, got {bounds!r}')}$")):
            SweepConfig(**{field: bounds})


class TestSweep:
    def test_degenerate_config_record_count(self):
        records, summaries = run_order_sweep(SMALL)
        # 1 band x 1 x 1 x 2 cells x 2 orders
        assert len(records) == 4
        assert {s.order for s in summaries} == {1, 3}
        assert all(s.count == 2 for s in summaries)

    def test_c_band_reference_point_accuracy(self):
        # peak gain 0.4, -1 dBm per channel, 100 km: the within-window case
        config = SweepConfig(
            band_plans=("C",),
            raman_peak_range=(0.4, 0.4), raman_peak_count=1,
            launch_power_dbm_range=(-1.0, -1.0), launch_power_count=1,
            length_range_km=(100.0, 100.0), length_count=1,
            orders=(3,),
        )
        records, _ = run_order_sweep(config)
        assert abs(records[0].eps_p - 1.0) < 1e-3
        assert records[0].max_deviation_db < 0.01

    def test_determinism(self):
        recs1, _ = run_order_sweep(SMALL)
        recs2, _ = run_order_sweep(SMALL)
        for a, b in zip(recs1, recs2):
            assert a.eps_p == b.eps_p
            assert a.max_deviation_db == b.max_deviation_db

    def test_parallel_matches_serial(self):
        serial, _ = run_order_sweep(SMALL)
        parallel, _ = run_order_sweep(SMALL, workers=2)
        # each group is the same batch either way, so even the last bits agree
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.band, a.raman_peak, a.launch_power_dbm, a.length_km, a.order,
                    a.eps_p, a.max_deviation_db, a.error) == (
                b.band, b.raman_peak, b.launch_power_dbm, b.length_km, b.order,
                b.eps_p, b.max_deviation_db, b.error)

    def test_summary_statistics(self):
        records, summaries = run_order_sweep(
            SweepConfig(
                band_plans=("C",), raman_peak_count=2, launch_power_count=2,
                length_count=2, orders=(3,), steps_per_span=20,
            )
        )
        s = summaries[0]
        eps = np.array([r.eps_p for r in records])
        q1, med, q3 = np.percentile(eps, [25, 50, 75])
        assert s.median == pytest.approx(med)
        assert s.q1 == pytest.approx(q1)
        assert s.q3 == pytest.approx(q3)
        assert s.whisker_low == pytest.approx(q1 - 1.5 * (q3 - q1))
        assert s.whisker_high == pytest.approx(q3 + 1.5 * (q3 - q1))
        assert s.mean_abs_error == pytest.approx(np.mean(np.abs(eps - 1)))

    def test_outlier_rule(self):
        from isrsprop.bench import SweepRecord

        eps_values = [1.0, 1.001, 0.999, 1.002, 0.998, 1.5]  # one far point
        records = [
            SweepRecord("C", 0.4, -1.0, 100.0, 3, e, 0.01) for e in eps_values
        ]
        s = summarize(records)[0]
        assert s.outlier_count == 1

    def test_csv_writers(self, tmp_path):
        records, summaries = run_order_sweep(SMALL)
        rec_path = tmp_path / "records.csv"
        sum_path = tmp_path / "summary.csv"
        cli._write_table(rec_path, *cli._dataclass_table(SweepRecord, records), "csv")
        cli._write_table(sum_path, *cli._dataclass_table(SweepSummary, summaries), "csv")
        lines = rec_path.read_text().splitlines()
        assert lines[0].startswith("band,raman_peak,")
        assert len(lines) == 5
        assert len(sum_path.read_text().splitlines()) == 3


def per_cell_reference(config):
    """(band, peak, power, length, order, eps_p, max_deviation_db, error) per record,
    one integrate_span call per cell."""
    out = []
    options = SolverOptions(steps_per_span=config.steps_per_span)
    for band in config.band_plans:
        grid = build_channel_grid(band, config.spacing)
        for peak in config.axis(config.raman_peak_range, config.raman_peak_count):
            raman = RamanGainModel.triangular(
                peak=peak, peak_separation=config.raman_peak_separation,
                window=config.raman_window,
            )
            for power in config.axis(config.launch_power_dbm_range, config.launch_power_count):
                for length in config.axis(config.length_range_km, config.length_count):
                    cell = (band, float(peak), float(power), float(length))
                    fiber = FiberSpec(config.attenuation, raman, float(length))
                    launch = PowerSpectrum.flat_dbm(grid, float(power))
                    try:
                        oracle = integrate_span(launch, fiber, options).final
                    except NumericalInstabilityError as exc:
                        out += [(*cell, n, np.nan, np.nan, repr(exc)) for n in config.orders]
                        continue
                    oracle_dbm = 10.0 * np.log10(oracle.powers / 1e-3)
                    for n in config.orders:
                        try:
                            params = derive_params(launch, fiber, n)
                        except Exception as exc:
                            out.append((*cell, n, np.nan, np.nan, repr(exc)))
                            continue
                        closed = power_profile(launch, params, raman.slope, float(length))
                        closed_dbm = 10.0 * np.log10(closed.powers / 1e-3)
                        dev = float(np.abs(closed_dbm - oracle_dbm).max())
                        out.append((*cell, n, total_power_error_ratio(closed, oracle), dev, ""))
    return out


class TestBatchedSweep:
    @staticmethod
    def assert_records_match(records, expected):
        assert len(records) == len(expected)
        for r, (band, peak, power, length, order, eps, dev, error) in zip(records, expected):
            assert (r.band, r.raman_peak, r.launch_power_dbm, r.length_km, r.order, r.error) == (
                band, peak, power, length, order, error
            )
            if error:
                assert np.isnan(r.eps_p) and np.isnan(r.max_deviation_db)
            else:  # a batch row matches integrate_span to a few ulps, not bit for bit
                np.testing.assert_allclose(r.eps_p, eps, rtol=1e-13)
                # a difference of two dB values of about -1 to -30 dBm: its
                # rounding is absolute, a few ulps of those (about 1e-15 dB)
                np.testing.assert_allclose(r.max_deviation_db, dev, rtol=0, atol=1e-13)

    def test_records_match_per_cell_integration(self):
        # the CL cells at 12 dBm go unstable at 8 steps, the rest of their group does not
        config = SweepConfig(
            band_plans=("C", "CL"), raman_peak_count=2,
            launch_power_dbm_range=(-1.0, 12.0), launch_power_count=2,
            length_range_km=(60.0, 150.0), length_count=2,
            orders=(1, 4), steps_per_span=8,
        )
        records, _ = run_order_sweep(config)
        expected = per_cell_reference(config)
        assert len(records) == 32
        assert sum(1 for e in expected if e[-1]) == 8
        self.assert_records_match(records, expected)

    def test_sclu_records_match_per_cell_and_per_order_derivation(self):
        # SCLU's 528 channels in one batch, and each cell derives all six
        # orders' closed-form parameters at once
        config = SweepConfig(
            band_plans=("SCLU",), raman_peak_range=(0.35, 0.35), raman_peak_count=1,
            launch_power_dbm_range=(-4.0, 0.0), launch_power_count=2,
            length_range_km=(60.0, 150.0), length_count=2, steps_per_span=8,
        )
        records, _ = run_order_sweep(config)
        expected = per_cell_reference(config)
        assert len(records) == 24 and not any(e[-1] for e in expected)
        self.assert_records_match(records, expected)

    def test_alpha_is_evaluated_once_per_group(self, alpha_calls):
        # two (band, peak) groups of 25 cells and 6 orders: the oracle operator and
        # the closed form of a group take alpha(f_i) from one span model
        config = SweepConfig(
            band_plans=("C",), raman_peak_count=2, launch_power_count=5, length_count=5,
            steps_per_span=4,
        )
        records, _ = run_order_sweep(config)
        assert len(records) == 300
        assert alpha_calls == ["isrsprop.closedform"] * 2
        self.assert_records_match(records, per_cell_reference(config))

    def test_closed_form_rows_keep_the_bits_of_one_spectrum_each(self, monkeypatch):
        # a group's closed form runs as one (B, n) pass per order, yet each row
        # gets the bits of the one-spectrum path on that row's oracle output:
        # its scalars come from Python math and its sums run in channel order
        config = SweepConfig(
            band_plans=("CLU",), raman_peak_count=1, launch_power_count=3, length_count=3,
            orders=(1, 3, 6), steps_per_span=8,
        )
        batches = []
        integrate = bench._integrate_batch
        monkeypatch.setattr(bench, "_integrate_batch",
                            lambda *args: batches.append(integrate(*args)) or batches[-1])
        records, _ = run_order_sweep(config)
        (outputs, _), = batches
        grid = build_channel_grid("CLU", config.spacing)
        raman = RamanGainModel.triangular(peak=config.raman_peak_range[0],
                                          peak_separation=config.raman_peak_separation,
                                          window=config.raman_window)
        cells = [(float(p), float(km))
                 for p in config.axis(config.launch_power_dbm_range, config.launch_power_count)
                 for km in config.axis(config.length_range_km, config.length_count)]
        expected = []
        for (power, length), output in zip(cells, outputs):
            launch = PowerSpectrum.flat_dbm(grid, power)
            oracle = PowerSpectrum(grid, output)
            fiber = FiberSpec(config.attenuation, raman, length)
            for n in config.orders:
                closed = power_profile(launch, derive_params(launch, fiber, n), raman.slope, length)
                dev = np.abs(10.0 * np.log10(closed.powers / 1e-3)
                             - 10.0 * np.log10(oracle.powers / 1e-3)).max()
                expected.append((total_power_error_ratio(closed, oracle), float(dev)))
        assert [(r.eps_p, r.max_deviation_db) for r in records] == expected

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_an_order_that_fails_alone_fails_only_itself(self):
        # alpha ** 300 underflows, so order 300 has no alpha0; orders 1 and 3 still derive
        config = SweepConfig(
            band_plans=("C",), raman_peak_count=1, launch_power_count=1, length_count=1,
            orders=(1, 300, 3), steps_per_span=8,
        )
        records, _ = run_order_sweep(config)
        expected = per_cell_reference(config)
        assert [bool(e[-1]) for e in expected] == [False, True, False]
        self.assert_records_match(records, expected)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_an_order_free_failure_fails_every_order_of_its_cell_only(self):
        # -4000 dBm underflows to 0 W: the oracle integrates the zeros, then the
        # shaping function has no total power, for every order of that cell alike
        config = SweepConfig(
            band_plans=("C",), raman_peak_count=1,
            launch_power_dbm_range=(-4000.0, -1.0), launch_power_count=2, length_count=1,
            orders=(1, 3), steps_per_span=8,
        )
        records, _ = run_order_sweep(config)
        expected = per_cell_reference(config)
        failed = repr(ConfigurationError("shaping function needs positive total power"))
        assert [e[-1] for e in expected] == [failed, failed, "", ""]
        self.assert_records_match(records, expected)


class TestFailedCells:
    def test_unstable_cell_is_recorded_and_sweep_continues(self):
        # 20 dBm per channel at one integration step destabilizes the solver;
        # the cell must land in the records with its error, not abort the run
        config = SweepConfig(
            band_plans=("C",),
            raman_peak_range=(0.4, 0.4), raman_peak_count=1,
            launch_power_dbm_range=(20.0, 20.0), launch_power_count=1,
            length_range_km=(150.0, 150.0), length_count=1,
            orders=(3,),
            steps_per_span=1,
        )
        records, summaries = run_order_sweep(config)
        assert len(records) == 1
        assert records[0].error != ""
        assert np.isnan(records[0].eps_p)
        assert summaries == []


def csv_writer_reference(header, rows) -> str:
    """The table as csv.writer writes it with each cell formatted by
    ``f"{v:.9g}"`` for floats and ``str`` otherwise, the writers' old path."""
    def fmt(value):
        return f"{value:.9g}" if isinstance(value, float) else str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buffer.getvalue()


QUOTING_TEXT = st.text(alphabet='ab ,"\r\n%', max_size=6)
# one strategy per cell type, so a row's strategies fix its cell types
CELL_KINDS = [
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e308, -1e308]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    QUOTING_TEXT,
    st.text(max_size=4),
]


@st.composite
def tables(draw):
    """A header and rows drawn from a few cell-type patterns, so that one
    table reuses a pattern, switches to another and back."""
    patterns = draw(st.lists(st.lists(st.sampled_from(CELL_KINDS), max_size=5),
                             min_size=1, max_size=3))
    rows = [[draw(kind) for kind in pattern]
            for pattern in draw(st.lists(st.sampled_from(patterns), max_size=8))]
    return draw(st.lists(QUOTING_TEXT, max_size=5)), rows


class TestCsvLines:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tables())
    def test_matches_csv_writer(self, table):
        header, rows = table
        assert "".join(cli._csv_lines(header, rows)) == csv_writer_reference(header, rows)

    @pytest.mark.parametrize("row", [[""], ["a,b"], ["a"], ['"'], [], ["", ""], [1.5, "x\ny"]])
    def test_quoting_edge_rows(self, row):
        for header, rows in ((row, []), (["h"], [row, [0.1, 2], row])):
            assert "".join(cli._csv_lines(header, rows)) == csv_writer_reference(header, rows)

    def test_records_with_an_instability_error(self, tmp_path):
        message = "negative channel power at z = 1.500 km; increase steps_per_span (currently 8)"
        nan = float("nan")
        records = [
            SweepRecord("C", 0.4, -1.0, 100.0, 3, 1.0001, 0.0125),
            SweepRecord("CL", 0.35, 12.0, 150.0, 3, nan, nan,
                        error=repr(NumericalInstabilityError(message))),
            SweepRecord("CL", 0.35, 12.0, 150.0, 4, nan, nan,
                        error=repr(ValueError("bad cell, 'quoted', \"twice\"\nagain"))),
            SweepRecord("C", np.float64(0.3), -5.0, 50.0, np.int64(6), np.float64(0.99), 0.5),
        ]
        path = tmp_path / "records.csv"
        cli._write_table(path, *cli._dataclass_table(SweepRecord, records), "csv")
        header = [f.name for f in dataclasses.fields(SweepRecord)]
        rows = [[getattr(r, c) for c in header] for r in records]
        assert path.read_bytes() == csv_writer_reference(header, rows).encode()
        with open(path, newline="") as fh:
            assert [row[-1] for row in csv.reader(fh)][1:] == [r.error for r in records]
