"""Memory budgets of the oracle's coupling operators and of the table writer.

Measured with tracemalloc (numpy reports its buffers to it), never with
timing, so the checks are deterministic: a change that brings back n x n
temporaries in the K build, an n x n array in the triangular operator, or a
whole-table row list at the write, fails here.
"""

import tracemalloc

import numpy as np

from isrsprop import FiberSpec, PowerSpectrum, SolverOptions, build_channel_grid
from isrsprop.cli import _longitudinal_table, _write_table
from isrsprop.ode_oracle import _coupling_matrix, _span_operator
from isrsprop.profiles import default_attenuation, default_raman

# A fig6-sized longitudinal table: 5 spans x 51 samples + the launch, 333 channels.
# Its rows as one list of Python floats held 2.8 MB (CSV) and, dumped as one
# JSON string, 22 MB at the write; written row by row the traced peak is
# 85 KB (CSV) and 186 KB (JSON).
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
    # an 871 x 871 corner (6.1 MB, 0.17 of K), built in place beside one
    # boolean mask (peak 0.19 of K), so even an n x n boolean (0.125) fails
    grid = build_channel_grid("SCLU", 0.0125)
    fiber = FiberSpec(default_attenuation(), default_raman(0.4), 100.0)
    k_bytes = grid.n_channels ** 2 * 8
    peak, held, _ = traced_memory(lambda: _span_operator(grid, fiber, SolverOptions()))
    assert held < 0.2 * k_bytes
    assert peak < 0.5 * k_bytes


def test_longitudinal_table_is_written_row_by_row(tmp_path):
    grid = build_channel_grid("CLU")
    rng = np.random.default_rng(0)
    spectra = [PowerSpectrum(grid, rng.uniform(1e-5, 1e-3, grid.n_channels), z=float(i))
               for i in range(5 * 51 + 1)]
    for fmt in ("csv", "json"):
        path = tmp_path / "fig6_sized.csv"
        peak, _, _ = traced_memory(lambda: _write_table(path, *_longitudinal_table(spectra), fmt))
        written = path.with_suffix(".json") if fmt == "json" else path
        assert written.stat().st_size > 500_000
        assert peak < TABLE_BUDGET_BYTES, fmt
