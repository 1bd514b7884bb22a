"""Memory budgets of the oracle's coupling matrix and of the table writer.

Measured with tracemalloc (numpy reports its buffers to it), never with
timing, so the checks are deterministic: a change that brings back n x n
temporaries in the K build, or a whole-table row list at the write, fails here.
"""

import tracemalloc

import numpy as np

from isrsprop import FiberSpec, PowerSpectrum, SolverOptions, build_channel_grid
from isrsprop.cli import _longitudinal_table, _write_table
from isrsprop.ode_oracle import _coupling_matrix
from isrsprop.profiles import default_attenuation, default_raman

# A fig6-sized longitudinal table: 5 spans x 51 samples + the launch, 333 channels.
# Its rows as one list of Python floats held 2.8 MB (CSV) and, dumped as one
# JSON string, 22 MB at the write; written row by row the traced peak is
# 85 KB (CSV) and 186 KB (JSON).
TABLE_BUDGET_BYTES = 512 * 1024


def traced_peak(run):
    """``(bytes at run()'s high-water mark above what was live before it, result)``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - before, result


def test_coupling_matrix_is_built_in_one_buffer():
    # K plus two boolean masks is 1.25 times K's bytes on SCLU (528 channels);
    # each extra float temporary of K's size would add 1.0
    grid = build_channel_grid("SCLU")
    fiber = FiberSpec(default_attenuation(), default_raman(0.4), 100.0)
    peak, k = traced_peak(lambda: _coupling_matrix(grid, fiber, SolverOptions()))
    assert k.shape == (528, 528)
    assert peak <= 1.3 * k.nbytes


def test_longitudinal_table_is_written_row_by_row(tmp_path):
    grid = build_channel_grid("CLU")
    rng = np.random.default_rng(0)
    spectra = [PowerSpectrum(grid, rng.uniform(1e-5, 1e-3, grid.n_channels), z=float(i))
               for i in range(5 * 51 + 1)]
    for fmt in ("csv", "json"):
        path = tmp_path / "fig6_sized.csv"
        peak, _ = traced_peak(lambda: _write_table(path, *_longitudinal_table(spectra), fmt))
        written = path.with_suffix(".json") if fmt == "json" else path
        assert written.stat().st_size > 500_000
        assert peak < TABLE_BUDGET_BYTES, fmt
