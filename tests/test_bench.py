import numpy as np
import pytest
from hypothesis import given, strategies as st

from isrsprop import (
    ConfigurationError,
    PowerSpectrum,
    SweepConfig,
    run_order_sweep,
    total_power_error_ratio,
)
from isrsprop.bench import summarize, write_records_csv, write_summary_csv
from isrsprop.closedform import derive_params, power_profile
from isrsprop.errors import NumericalInstabilityError
from isrsprop.ode_oracle import SolverOptions, integrate_span
from isrsprop.profiles import FiberSpec, RamanGainModel, build_channel_grid


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


SMALL = SweepConfig(
    band_plans=("C",),
    raman_peak_count=1,
    launch_power_count=1,
    length_count=2,
    orders=(1, 3),
    steps_per_span=30,
)


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
        for a, b in zip(serial, parallel):
            assert a.band == b.band and a.order == b.order
            assert a.eps_p == b.eps_p

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
            SweepRecord("C", 0.4, -1.0, 100.0, 3, e, 0.01, 0.0, 0.0) for e in eps_values
        ]
        s = summarize(records)[0]
        assert s.outlier_count == 1

    def test_csv_writers(self, tmp_path):
        records, summaries = run_order_sweep(SMALL)
        rec_path = tmp_path / "records.csv"
        sum_path = tmp_path / "summary.csv"
        write_records_csv(records, rec_path)
        write_summary_csv(summaries, sum_path)
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
                        params = derive_params(launch, fiber, n)
                        closed = power_profile(launch, params, raman.slope, float(length))
                        closed_dbm = 10.0 * np.log10(closed.powers / 1e-3)
                        dev = float(np.abs(closed_dbm - oracle_dbm).max())
                        out.append((*cell, n, total_power_error_ratio(closed, oracle), dev, ""))
    return out


class TestBatchedSweep:
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
        assert len(records) == len(expected) == 32
        assert sum(1 for e in expected if e[-1]) == 8
        for r, (band, peak, power, length, order, eps, dev, error) in zip(records, expected):
            assert (r.band, r.raman_peak, r.launch_power_dbm, r.length_km, r.order, r.error) == (
                band, peak, power, length, order, error
            )
            if error:
                assert np.isnan(r.eps_p) and np.isnan(r.max_deviation_db)
            else:  # the batch rows are bit-identical to integrate_span
                assert (r.eps_p, r.max_deviation_db) == (eps, dev)


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
