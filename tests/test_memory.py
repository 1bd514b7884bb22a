"""Memory budgets of the oracle's coupling operators, the sweep's closed form and the table writer.

Measured with tracemalloc (numpy reports its buffers to it), never with
timing, so the checks are deterministic: a change that brings back n x n
temporaries in the K build, an n x n array in the triangular operator,
out-of-place (B, n) temporaries in a sweep group's closed form, or a
whole-table row list at the write, fails here.
"""

import tracemalloc

import numpy as np

from isrsprop import FiberSpec, SolverOptions, SweepConfig, build_channel_grid
from isrsprop import bench
from isrsprop.cli import _longitudinal_table, _write_table
from isrsprop.closedform import _SpanModel
from isrsprop.ode_oracle import _coupling_matrix, _span_operator
from isrsprop.profiles import default_attenuation, default_raman

# A fig6-sized longitudinal table: 5 spans x 51 samples + the launch, 333 channels.
# Its rows as one list of Python floats held 2.8 MB (CSV) and, dumped as one
# JSON string, 22 MB at the write; written as float blocks of at most 2048
# values, one at a time, the traced peak is 223 KB (CSV, the block encoder's
# arrays) and 267 KB (JSON).
TABLE_BUDGET_BYTES = 512 * 1024


def traced_memory(run):
    """``(high-water mark, bytes still live, result)`` of run(), above what was live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - before, held - before, result


def test_coupling_matrix_is_built_in_one_buffer():
    # K plus two boolean masks is 1.25 times K's bytes on SCLU (528 channels);
    # each extra float temporary of K's size would add 1.0
    grid = build_channel_grid("SCLU")
    fiber = FiberSpec(default_attenuation(), default_raman(0.4), 100.0)
    peak, _, k = traced_memory(lambda: _coupling_matrix(grid, fiber, SolverOptions()))
    assert k.shape == (528, 528)
    assert peak <= 1.3 * k.nbytes


def test_triangular_operator_holds_no_n_by_n_array():
    # SCLU at 12.5 GHz: K would be 2112^2 floats (35.7 MB); the operator holds
    # an 871 x 871 corner (6.1 MB, 0.17 of K), 55 x 2112 rank-2 vectors
    # (1, g, alpha and four per row panel: 0.9 MB, 0.026 of K) and the
    # small-batch path's 2112 x 3 weights (0.0014 of K), 0.198 of K in all,
    # so even an n x n boolean (0.125) fails.  The corner is built from its
    # float differences, one boolean mask beside them (peak 0.37 of K).
    grid = build_channel_grid("SCLU", 0.0125)
    fiber = FiberSpec(default_attenuation(), default_raman(0.4), 100.0)
    k_bytes = grid.n_channels ** 2 * 8
    model = _SpanModel(grid, fiber)
    peak, held, _ = traced_memory(lambda: _span_operator(model, SolverOptions()))
    assert held < 0.2 * k_bytes
    assert peak < 0.5 * k_bytes


def test_sweep_group_closed_form_is_built_in_place(monkeypatch):
    # one SCLU group, 25 cells of 528 channels and six orders, with the oracle's
    # outputs handed in.  The group holds five (B, n) arrays (launches, oracle
    # outputs and their dB values, shaping values, alpha_i L) and each order
    # about three more at once, built in place: the peak is 9.3 of them.  Each
    # out-of-place temporary of the exponent or the dB difference adds 1.
    config = SweepConfig(band_plans=("SCLU",), raman_peak_count=1)
    powers = config.axis(config.launch_power_dbm_range, config.launch_power_count)
    lengths = config.axis(config.length_range_km, config.length_count)
    group = (config, "SCLU", 0.35, [(float(p), float(km)) for p in powers for km in lengths])
    integrate = bench._integrate_batch
    done = []
    monkeypatch.setattr(bench, "_integrate_batch",
                        lambda *args: done.append(integrate(*args)) or done[0])
    bench._run_group(group)
    monkeypatch.setattr(bench, "_integrate_batch",
                        lambda *args: (done[0][0].copy(), done[0][1]))
    peak, _, records = traced_memory(lambda: bench._run_group(group))
    assert len(records) == 150 and not any(r.error for r in records)
    assert peak <= 10 * done[0][0].nbytes


def test_longitudinal_table_is_written_row_by_row(tmp_path):
    # the samples are held span by span, as the commands hold them; the writer
    # takes one float block of rows at a time
    grid = build_channel_grid("CLU")
    rng = np.random.default_rng(0)
    powers = rng.uniform(1e-5, 1e-3, (5 * 51 + 1, grid.n_channels))
    z = np.arange(len(powers), dtype=float)
    samples = [(z[k:k + 51], powers[k:k + 51]) for k in range(0, len(z), 51)]
    for fmt in ("csv", "json"):
        path = tmp_path / "fig6_sized.csv"
        peak, _, _ = traced_memory(
            lambda: _write_table(path, *_longitudinal_table(grid, samples), fmt))
        written = path.with_suffix(".json") if fmt == "json" else path
        assert written.stat().st_size > 500_000
        assert peak < TABLE_BUDGET_BYTES, fmt
