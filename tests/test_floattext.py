"""The float-block CSV encoder against ``'%.9g' % value``, value by value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isrsprop.floattext import csv_block


def percent_lines(block: np.ndarray) -> str:
    fmt = ",".join(["%.9g"] * block.shape[1]) + "\r\n"
    return "".join(fmt % tuple(row) for row in block.tolist())


def assert_encodes(values, cols=None):
    block = np.asarray(values, dtype=float).reshape(-1, cols or np.size(values))
    assert csv_block(block) == percent_lines(block)


EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
         1e-310, 1e-4, 1e-5, 9.99999999e-5, 9.999999995e-5, 0.0001, 0.00010000000005,
         99999999.95, 99999999.94, 999999999.4, 999999999.5, 1e9, 1e8, 123456789.5, 0.5, 1.5,
         2.5, 1.0, 10.0, 100.0, 1e16, -1e300, 1.7976931348623157e308]


class TestEncoder:
    def test_edge_values(self):
        assert_encodes(EDGES)
        assert_encodes(EDGES, cols=1)
        for value in EDGES:
            assert_encodes([value, 1.25, -3.0])

    @pytest.mark.parametrize("k", range(-12, 3))
    def test_ties_and_their_neighbours(self, k):
        # every m + 1/2 at 10^k, exactly as the double nearest it, and the doubles beside it
        m = np.random.default_rng(k + 12).integers(10**8, 10**9, 200)
        ties = (m + 0.5) * 10.0**k
        values = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
        assert_encodes(np.concatenate([values, -values]), cols=6)

    @pytest.mark.parametrize("k", range(-6, 11))
    def test_powers_of_ten_and_their_neighbours(self, k):
        p = 10.0**k
        factors = [1.0, 1 - 1e-9, 1 + 1e-9, 1 - 5e-10, 1 - 4.9e-10, 1 - 5.1e-10, 1 - 5e-11,
                   1 + 5e-10, 1 - 1e-16, 1 + 2e-16]
        values = np.array([p * f for f in factors])
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
        assert_encodes(values, cols=5)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        magnitudes = 10.0 ** rng.uniform(-6.0, 10.0, (7, 301))
        assert_encodes(magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape), cols=301)

    def test_rows_off_the_path_keep_their_place(self):
        # one value each written by % (0, nan, 1e-7, a tie): only its row leaves the block path
        block = np.random.default_rng(0).uniform(-30.0, 30.0, (9, 40))
        block[1, 3], block[4, 0], block[6, 39], block[8, 20] = 0.0, math.nan, 1e-7, 2.5
        assert csv_block(block) == percent_lines(block)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=24))
    def test_any_floats(self, values):
        assert_encodes(values)
        assert_encodes(values, cols=1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-5, max_value=1e9) | st.floats(max_value=-1e-5,
                                                                          min_value=-1e9),
                    min_size=1, max_size=24))
    def test_any_floats_in_the_fixed_notation_range(self, values):
        assert_encodes(values)
