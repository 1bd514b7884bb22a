import math

import numpy as np
import pytest

from isrsprop import (
    AmplifierSpec,
    AttenuationProfile,
    Band,
    ChannelGrid,
    ConfigurationError,
    FiberSpec,
    LinkSpec,
    NumericalInstabilityError,
    PowerSpectrum,
    RamanGainModel,
    SolverOptions,
    build_channel_grid,
    integrate_span,
    isrs_derivative,
    propagate_link_numerical,
)
from isrsprop import cli
from isrsprop.closedform import _SpanModel
from isrsprop.ode_oracle import (
    _NEGATIVE_FLOOR,
    _PANEL_MIN_ENTRIES,
    _PANEL_ROWS,
    _corner_panels,
    _coupling_matrix,
    _instability_message,
    _integrate_batch,
    _integrate_stack,
    _rk4,
    _span_operator,
    _triangular_coupling,
)
from isrsprop.profiles import attenuation_at, default_attenuation, default_raman, raman_gain_at

from conftest import constant_alpha_fiber, raman_free_fiber


def two_channel_grid(spacing=1.0):
    from isrsprop import Band

    return build_channel_grid([Band("X", 192.0, 192.0 + 2 * spacing)], spacing)


def link_samples(result):
    """The oracle's samples on link z, boundaries twice, boost sample last: z and a power matrix."""
    samples = cli._link_samples(result, [(r.z, r.powers) for r in result.span_results])
    return np.concatenate([z for z, _ in samples]), np.vstack([p for _, p in samples])


class TestDerivative:
    def test_zero_field_gives_zero_derivative(self, clu_grid, default_fiber_100):
        spectrum = PowerSpectrum(clu_grid, np.zeros(clu_grid.n_channels))
        assert np.all(isrs_derivative(spectrum, default_fiber_100) == 0.0)

    def test_single_channel_pure_attenuation(self):
        from isrsprop import Band

        grid = build_channel_grid([Band("X", 193.0, 193.05)], 0.05)
        fiber = constant_alpha_fiber(0.2, 100.0)
        spectrum = PowerSpectrum(grid, np.array([1e-3]))
        d = isrs_derivative(spectrum, fiber)
        assert d[0] == pytest.approx(-4.6052e-5, rel=1e-4)

    def test_two_channel_transfer_is_antisymmetric(self):
        grid = two_channel_grid(1.0)
        raman = RamanGainModel.triangular(slope=0.0286)
        fiber = FiberSpec(AttenuationProfile.constant(1e-12), raman, 10.0)
        # alpha ~ 0: keep the constructor happy but make loss negligible
        p = 1e-3
        spectrum = PowerSpectrum(grid, np.array([p, p]))
        d = isrs_derivative(spectrum, fiber)
        coupling = 0.0286 * 1.0 * p * p
        assert d[0] == pytest.approx(coupling, rel=1e-6)
        assert d[1] == pytest.approx(-coupling, rel=1e-6)

    def test_total_power_derivative_identity(self, clu_grid, default_fiber_100):
        # d(sum P)/dz must equal -sum(alpha P): the transfer terms cancel exactly
        rng = np.random.default_rng(7)
        powers = rng.uniform(0.2e-3, 2e-3, clu_grid.n_channels)
        spectrum = PowerSpectrum(clu_grid, powers)
        d = isrs_derivative(spectrum, default_fiber_100)
        alpha = attenuation_at(default_fiber_100.attenuation, clu_grid.frequencies)
        assert d.sum() == pytest.approx(-(alpha * powers).sum(), rel=1e-12)


    def test_span_operator_alpha_is_read_only(self, clu_grid, default_fiber_100):
        # alpha and every other array the operator keeps between calls, for the
        # triangular operator and the dense K
        alpha = attenuation_at(default_fiber_100.attenuation, clu_grid.frequencies)
        for options in (SolverOptions(), SolverOptions(photon_correction=True)):
            net = _span_operator(_SpanModel(clu_grid, default_fiber_100), options)
            kept = [cell.cell_contents for cell in net.__closure__
                    if isinstance(cell.cell_contents, np.ndarray)]
            assert kept and not any(array.flags.writeable for array in kept)
            np.testing.assert_array_equal(net(np.zeros(clu_grid.n_channels)), -alpha)


def elementwise_coupling_matrix(grid, fiber, options):
    """K from one full-size array per step: differences, gains, signs, photon ratios."""
    f = grid.frequencies
    model = fiber.raman.as_triangular() if options.raman_model == "triangular" else fiber.raman
    df = f[None, :] - f[:, None]
    g = raman_gain_at(model, np.abs(df))
    k = np.where(df > 0, g, -g)
    np.fill_diagonal(k, 0.0)
    if options.photon_correction:
        ratio = np.where(df < 0, f[:, None] / f[None, :], 1.0)
        k = k * ratio
    return k


# peaks at 13.2 THz and ends inside the 15.5 THz window, so its triangular fit differs
TABULATED_RAMAN = RamanGainModel.from_table([0.0, 5.0, 13.2, 15.0, 16.0], [0.0, 0.1, 0.4, 0.1, 0.0])


class TestCouplingMatrix:
    @pytest.mark.parametrize("spacing", [0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("plan", ["C", "CL", "CLU", "SCL", "SCLU"])
    def test_equals_the_elementwise_formula(self, plan, spacing):
        # the in-place build must give every entry's bits, signed zeros included
        # (+0.0 above the diagonal and -0.0 below it outside the window)
        grid = build_channel_grid(plan, spacing)
        cases = [(default_raman(0.4), "triangular"), (TABULATED_RAMAN, "tabulated"),
                 (TABULATED_RAMAN, "triangular"),
                 (RamanGainModel.triangular(slope=0.0), "triangular")]
        for raman, raman_model in cases:
            fiber = FiberSpec(default_attenuation(), raman, 50.0)
            for photon_correction in (False, True):
                options = SolverOptions(photon_correction=photon_correction,
                                        raman_model=raman_model)
                k = _coupling_matrix(grid, fiber, options)
                ref = elementwise_coupling_matrix(grid, fiber, options)
                case = (raman.kind, raman_model, photon_correction)
                assert np.array_equal(k, ref), case
                assert np.array_equal(np.signbit(k), np.signbit(ref)), case


def uniform_x_grid(n):
    """n channels 50 GHz apart from 190 THz in one band."""
    return ChannelGrid(190.0 + 0.05 * (np.arange(n) + 0.5), 0.05,
                       (Band("X", 190.0, 190.0 + 0.05 * n),))


class TestSpanOperator:
    """The triangular operator applies K P - alpha for the dense K it replaces.

    Other models apply K itself.
    """

    @staticmethod
    def assert_applies_k(grid):
        fiber = FiberSpec(default_attenuation(), default_raman(0.4), 50.0)
        options = SolverOptions()
        k = _coupling_matrix(grid, fiber, options)
        alpha = attenuation_at(fiber.attenuation, grid.frequencies)
        net = _span_operator(_SpanModel(grid, fiber), options)
        rng = np.random.default_rng(5)
        for batch in (1, 25):
            powers = rng.uniform(1e-5, 2e-3, (batch, grid.n_channels))
            kp = powers @ k.T
            np.testing.assert_allclose(net(powers), kp - alpha, rtol=0,
                                       atol=1e-13 * np.abs(kp).max())
        # K's own entries: a pair moved across the window edge is off by the
        # peak gain (about 0.44 /W/km), rounding by about 1e-15
        np.testing.assert_allclose(net(np.eye(grid.n_channels)) + alpha, k.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spacing", [0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("plan", ["C", "CL", "CLU", "SCL", "SCLU"])
    def test_triangular_operator_applies_k(self, plan, spacing):
        # C and CL fit inside the window (no corner); SCL and SCLU drop
        # pairs exactly one window apart, which must stay dropped
        self.assert_applies_k(build_channel_grid(plan, spacing))

    @pytest.mark.parametrize("n", [397, 354, 1000])
    def test_triangular_operator_applies_k_on_a_one_band_grid(self, n):
        # 1000 channels span 50 THz, over three windows: the corner then holds
        # pairs below the diagonal beyond the window, which its mirror takes out
        self.assert_applies_k(uniform_x_grid(n))

    @pytest.mark.parametrize(
        "raman, options, dense",
        [
            (default_raman(0.4), SolverOptions(), False),
            (TABULATED_RAMAN, SolverOptions(), False),  # its triangular fit
            (default_raman(0.4), SolverOptions(photon_correction=True), True),
            (TABULATED_RAMAN, SolverOptions(raman_model="tabulated"), True),
        ],
        ids=["triangular", "triangular-fit", "photon-correction", "tabulated"],
    )
    def test_only_other_models_build_the_dense_k(self, cl_grid, raman, options, dense,
                                                 monkeypatch):
        from isrsprop import ode_oracle

        calls = []
        build = ode_oracle._coupling_matrix
        monkeypatch.setattr(ode_oracle, "_coupling_matrix",
                            lambda *args: calls.append(1) or build(*args))
        fiber = FiberSpec(default_attenuation(), raman, 50.0)
        net = _span_operator(_SpanModel(cl_grid, fiber), options)
        assert len(calls) == dense
        powers = np.random.default_rng(6).uniform(1e-5, 2e-3, (5, cl_grid.n_channels))
        kp = powers @ build(cl_grid, fiber, options).T
        expected = kp - attenuation_at(fiber.attenuation, cl_grid.frequencies)
        if dense:
            assert np.array_equal(net(powers), expected)
        else:
            np.testing.assert_allclose(net(powers), expected, rtol=0,
                                       atol=1e-13 * np.abs(kp).max())


def windowed_corner(f, slope, window):
    """The triangular corner by a float test of its own: slope (f_j - f_i), +0.0 where <= window."""
    rows = int(np.count_nonzero(f[-1] - f > window))
    cols = int(np.count_nonzero(f - f[0] > window))
    corner = np.subtract(f[None, f.size - cols:], f[:rows, None])
    inside = corner <= window
    corner *= slope
    np.copyto(corner, 0.0, where=inside)
    return corner


class TestTriangularCorner:
    @pytest.mark.parametrize("spacing", [0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("plan", ["SCL", "SCLU"])
    @pytest.mark.parametrize("raman", [default_raman(0.4), RamanGainModel.triangular(peak=0.25)],
                             ids=["peak-0.4", "peak-0.25"])
    def test_corner_takes_its_window_from_the_gain_model(self, plan, spacing, raman):
        # the corner takes the gain model's slope and window, and its float test
        # leaves every entry and signed zero as the dense K's gain does
        f = build_channel_grid(plan, spacing).frequencies
        net = _triangular_coupling(f, raman.slope, raman.window, np.zeros_like(f))
        corner = net.__closure__[net.__code__.co_freevars.index("corner")].cell_contents
        expected = windowed_corner(f, raman.slope, raman.window)
        assert corner.size > 0 and not corner.flags.writeable
        assert np.array_equal(corner, expected)
        assert np.array_equal(np.signbit(corner), np.signbit(expected))


def one_corner_net(f, raman, alpha):
    """The triangular operator with its corner applied whole: rank-2 product, then c and c.T."""
    slope = raman.slope
    g = f - f.mean()
    weights = slope * np.stack([g, np.ones_like(g), np.zeros_like(g)], axis=1)
    basis = np.stack([np.ones_like(g), -g, -alpha])
    corner = windowed_corner(f, slope, raman.window)
    rows, cols = corner.shape

    def net(p):
        s = p @ weights
        s[..., 2] = 1.0
        kp = s @ basis
        if rows:
            kp[..., :rows] -= p[..., -cols:] @ corner.T
            kp[..., -cols:] += p[..., :rows] @ corner
        return kp

    return net


class TestCornerPanels:
    @pytest.mark.parametrize(
        "grid",
        [build_channel_grid(plan, spacing) for plan in ("SCL", "SCLU")
         for spacing in (0.05, 0.025, 0.0125)] + [uniform_x_grid(1000)],
        ids=[f"{plan}-{spacing}" for plan in ("SCL", "SCLU") for spacing in (0.05, 0.025, 0.0125)]
        + ["x1000"],
    )
    def test_tiles_and_rank_2_blocks_cover_each_pair_beyond_the_window_once(self, grid):
        f, raman = grid.frequencies, default_raman(0.4)
        net = _triangular_coupling(f, raman.slope, raman.window, np.zeros_like(f))
        corner = net.__closure__[net.__code__.co_freevars.index("corner")].cell_contents
        rows, cols = corner.shape
        panelled = rows >= 2 * _PANEL_ROWS
        assert panelled == ("panels" in net.__code__.co_freevars)
        # a short corner is one dense tile, applied whole
        panels = _corner_panels(corner != 0) if panelled else [(0, rows, 0, cols)]
        assert len(panels) == max(1, rows // _PANEL_ROWS)
        assert [a for a, _, _, _ in panels] == [0] + [b for _, b, _, _ in panels[:-1]]
        assert panels[-1][1] == rows
        covered = np.zeros(corner.shape, dtype=int)
        for a, b, lo, hi in panels:
            covered[a:b, lo:hi] += 1  # the dense staircase tile
            if panelled:
                # the rank-2 block: every pair beyond the window, at slope (f_j - f_i)
                block = corner[a:b, hi:]
                assert block.size and np.all(block != 0)
                d = f[None, f.size - cols + hi:] - f[a:b, None]
                assert np.array_equal(block, raman.slope * d)
                covered[a:b, hi:] += 1
        assert np.all(covered[corner != 0] == 1)
        assert np.all(covered <= 1)

    @pytest.mark.parametrize(
        "plan, spacing, count",
        [("CLU", 0.05, 0), ("SCL", 0.05, 0), ("SCLU", 0.05, 3), ("SCLU", 0.0125, 13)],
    )
    def test_panel_count_and_read_only_arrays(self, plan, spacing, count):
        f = build_channel_grid(plan, spacing).frequencies
        raman = default_raman(0.4)
        net = _triangular_coupling(f, raman.slope, raman.window, np.zeros_like(f))
        free = net.__code__.co_freevars
        panels = net.__closure__[free.index("panels")].cell_contents if "panels" in free else []
        assert len(panels) == count
        kept = [cell.cell_contents for cell in net.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert not any(array.flags.writeable for array in kept)

    @pytest.mark.parametrize("spacing, whole", [(0.05, 4), (0.025, 1)])
    def test_a_small_batch_takes_the_panelled_corner_whole(self, spacing, whole):
        # up to `whole` rows, bit for bit the unpanelled operator (a single
        # fig5d launch); one row more takes the panels, which apply K
        grid = build_channel_grid("SCLU", spacing)
        fiber = FiberSpec(default_attenuation(), default_raman(0.4), 50.0)
        model = _SpanModel(grid, fiber)
        net = _span_operator(model, SolverOptions())
        corner = net.__closure__[net.__code__.co_freevars.index("corner")].cell_contents
        assert _PANEL_MIN_ENTRIES // corner.size == whole
        unpanelled = one_corner_net(grid.frequencies, fiber.raman, model.alpha)
        rng = np.random.default_rng(8)
        powers = rng.uniform(1e-5, 2e-3, (whole + 1, grid.n_channels))
        for batch in range(1, whole + 1):
            assert np.array_equal(net(powers[:batch]), unpanelled(powers[:batch]))
        assert np.array_equal(net(powers[0]), unpanelled(powers[0]))
        kp = powers @ _coupling_matrix(grid, fiber, SolverOptions()).T
        np.testing.assert_allclose(net(powers), kp - model.alpha, rtol=0,
                                   atol=1e-13 * np.abs(kp).max())

    @pytest.mark.parametrize("plan", ["C", "CL", "CLU", "SCL"])
    def test_one_panel_keeps_the_whole_corner_bit_for_bit(self, plan):
        # the bytes of `figures` and of the fig4 and fig6 `solve` tables
        grid = build_channel_grid(plan)
        fiber = FiberSpec(default_attenuation(), default_raman(0.4), 50.0)
        model = _SpanModel(grid, fiber)
        net = _span_operator(model, SolverOptions())
        whole = one_corner_net(grid.frequencies, fiber.raman, model.alpha)
        rng = np.random.default_rng(7)
        for batch in (1, 25):
            powers = rng.uniform(1e-5, 2e-3, (batch, grid.n_channels))
            assert np.array_equal(net(powers), whole(powers))


def closure(net, name):
    return net.__closure__[net.__code__.co_freevars.index(name)].cell_contents


STACK_SLOPES = [0.0, 0.3 / 14.0, 0.35 / 14.0, 0.4 / 14.0]


class TestStackedOperator:
    """An operator of S slopes maps (S, B, n) with each slice's one-slope bits."""

    @pytest.mark.parametrize("plan, spacing", [("C", 0.05), ("CLU", 0.05), ("SCLU", 0.05),
                                               ("SCLU", 0.025)])
    @pytest.mark.parametrize("batch", [1, 4, 5, 25])
    def test_each_slice_is_the_one_slope_operator(self, plan, spacing, batch):
        # SCLU at 50 GHz takes the corner whole up to 4 launches a slice and the
        # panels from 5; a switch counting the whole stack would move 4 to panels
        f = build_channel_grid(plan, spacing).frequencies
        alpha = attenuation_at(default_attenuation(), f)
        net = _triangular_coupling(f, STACK_SLOPES, 15.5, alpha)
        rng = np.random.default_rng(9)
        p = np.empty((len(STACK_SLOPES), batch, f.size))
        p[...] = rng.uniform(1e-5, 2e-3, (len(STACK_SLOPES), batch, f.size))
        kp = net(p)
        assert kp.shape == p.shape
        for s, slope in enumerate(STACK_SLOPES):
            assert np.array_equal(kp[s], _triangular_coupling(f, slope, 15.5, alpha)(p[s]))

    def test_only_the_slope_scaled_arrays_are_stacked(self):
        f = build_channel_grid("SCLU").frequencies
        one = _triangular_coupling(f, 0.4 / 14.0, 15.5, np.zeros_like(f))
        net = _triangular_coupling(f, STACK_SLOPES, 15.5, np.zeros_like(f))
        size = len(STACK_SLOPES)
        # (S, 1, m) coefficients, one row of them per slice's (B, m) inner products
        assert closure(net, "coef").shape == (size, 1) + closure(one, "coef").shape
        assert closure(net, "corner").shape == (size,) + closure(one, "corner").shape
        weights = closure(closure(net, "whole"), "weights")
        assert weights.shape == (size,) + closure(closure(one, "whole"), "weights").shape
        for name in ("vectors", "swap", "panels"):
            assert np.array_equal(closure(net, name), closure(one, name))
        kept = [cell.cell_contents for f in (net, closure(net, "whole")) for cell in f.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        assert not any(array.flags.writeable for array in kept)


class TestIntegrateStack:
    @pytest.mark.parametrize("plan", ["CL", "SCLU"])
    def test_each_slice_is_its_slope_batch(self, plan):
        grid = build_channel_grid(plan)
        alpha = attenuation_at(default_attenuation(), grid.frequencies)
        powers, lengths = TestIntegrateBatch.mixed_launches(grid, 6)
        slopes = STACK_SLOPES[1:]
        net = _triangular_coupling(grid.frequencies, slopes, 15.5, alpha)
        out = _integrate_stack(powers, lengths, net, 8, len(slopes))
        assert out.shape == (len(slopes),) + powers.shape and out.flags.c_contiguous
        for s, slope in enumerate(slopes):
            one, errors = _integrate_batch(
                powers, lengths, _triangular_coupling(grid.frequencies, slope, 15.5, alpha), 8)
            assert errors == ("",) * 6
            assert np.array_equal(out[s], one)

    def test_an_unstable_row_stops_the_stack(self):
        # under the steepest slope only the 0.5 W launch goes negative at 5 steps
        grid = two_channel_grid(10.0)
        f = grid.frequencies
        powers = np.repeat(np.array([0.2, 0.5])[:, None], 2, axis=1)
        alpha = np.full(2, 1e-12)
        net = _triangular_coupling(f, [0.0, 0.03], 15.5, alpha)
        assert _integrate_stack(powers, [100.0, 100.0], net, 5, 2) is None
        _, errors = _integrate_batch(powers, [100.0, 100.0],
                                     _triangular_coupling(f, 0.03, 15.5, alpha), 5)
        assert errors[0] == "" and errors[1].startswith("negative")


def clamped_rk4_rows(launch, fiber, options):
    """A span's samples from ``_rk4`` one step at a time, each step clamped at 0 W."""
    net = _span_operator(_SpanModel(launch.grid, fiber), options)
    h = fiber.length / options.steps_per_span
    rows = [launch.powers]
    for _, p, unstable in _rk4(launch.powers[None, :], net, np.array([[h]]),
                               options.steps_per_span):
        assert not unstable[0]
        rows.append(np.maximum(p[0], 0.0))
    return rows


class TestIntegrateSpan:
    def test_raman_free_is_exponential_decay(self, clu_grid):
        # RK4 per-step error ~ (alpha h)^5 / 120, so keep alpha L modest to
        # land below 1e-10 relative with 50 steps
        fiber = raman_free_fiber(10.0, AttenuationProfile.constant_db(0.2))
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = integrate_span(launch, fiber, SolverOptions(steps_per_span=50))
        alpha = attenuation_at(fiber.attenuation, clu_grid.frequencies)
        expected = launch.powers * np.exp(-alpha * 10.0)
        assert np.max(np.abs(result.final.powers / expected - 1.0)) < 1e-10

    def test_raman_free_full_span_tracks_decay(self, clu_grid):
        fiber = raman_free_fiber(100.0)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = integrate_span(launch, fiber, SolverOptions(steps_per_span=50))
        alpha = attenuation_at(fiber.attenuation, clu_grid.frequencies)
        expected = launch.powers * np.exp(-alpha * 100.0)
        assert np.max(np.abs(result.final.powers / expected - 1.0)) < 1e-5

    def test_lossless_conserves_total_power(self, clu_grid):
        fiber = FiberSpec(AttenuationProfile.constant(1e-15), RamanGainModel.triangular(peak=0.4), 100.0)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = integrate_span(launch, fiber)
        assert result.final.total_power == pytest.approx(launch.total_power, rel=1e-9)

    def test_lossless_photon_count_conserved(self, clu_grid):
        fiber = FiberSpec(AttenuationProfile.constant(1e-15), RamanGainModel.triangular(peak=0.4), 100.0)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = integrate_span(launch, fiber, SolverOptions(photon_correction=True))
        photons0 = (launch.powers / clu_grid.frequencies).sum()
        photons1 = (result.final.powers / clu_grid.frequencies).sum()
        assert photons1 == pytest.approx(photons0, rel=1e-9)

    def test_photon_correction_dissipates_power(self, clu_grid):
        # frequency down-conversion loses energy even without attenuation
        fiber = FiberSpec(AttenuationProfile.constant(1e-15), RamanGainModel.triangular(peak=0.4), 100.0)
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        result = integrate_span(launch, fiber, SolverOptions(photon_correction=True))
        assert result.final.total_power < launch.total_power * (1 - 1e-6)

    def test_convergence_order_at_least_3_5(self, c_grid, default_fiber_100):
        launch = PowerSpectrum.flat_dbm(c_grid, 3.0)  # hot launch so the error is visible
        reference = integrate_span(launch, default_fiber_100, SolverOptions(steps_per_span=800)).final.powers

        def err(steps):
            out = integrate_span(launch, default_fiber_100, SolverOptions(steps_per_span=steps)).final.powers
            return np.max(np.abs(out / reference - 1.0))

        e1, e2 = err(8), err(16)
        order = math.log2(e1 / e2)
        assert order > 3.5

    def test_all_samples_recorded(self, c_grid, default_fiber_100):
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        result = integrate_span(launch, default_fiber_100, SolverOptions(steps_per_span=50))
        assert len(result.z) == len(result.powers) == 51
        assert result.z[0] == 0.0 and result.final.z == 100.0
        assert result.z == pytest.approx(np.linspace(0.0, 100.0, 51))
        # Raman transfer conserves the total, so loss makes it fall at every step
        assert np.all(np.diff(result.powers.sum(axis=1)) < 0)

    @pytest.mark.parametrize("length, steps", [(100.0, 50), (1.0, 49), (73.1, 7), (123.456, 17)])
    @pytest.mark.parametrize("raman, raman_model",
                             [(default_raman(0.4), "triangular"), (TABULATED_RAMAN, "tabulated")])
    def test_samples_are_one_read_only_matrix(self, cl_grid, length, steps, raman, raman_model):
        options = SolverOptions(steps_per_span=steps, raman_model=raman_model)
        fiber = FiberSpec(default_attenuation(), raman, length)
        launch = PowerSpectrum.flat_dbm(cl_grid, 2.0)
        result = integrate_span(launch, fiber, options)
        assert result.grid is cl_grid
        assert result.powers.shape == (steps + 1, cl_grid.n_channels)
        assert not result.powers.flags.writeable and not result.z.flags.writeable
        # bit for bit, so z = L exactly only where steps * (L / steps) rounds to L
        assert np.array_equal(result.z, np.arange(steps + 1) * (length / steps))
        assert np.array_equal(result.powers[0], launch.powers)
        assert np.array_equal(result.final.powers, result.powers[-1])
        assert result.final.z == result.z[-1]
        expected = clamped_rk4_rows(launch, fiber, options)
        assert len(expected) == len(result.powers)
        for row, want in zip(result.powers, expected):
            assert np.array_equal(row, want)

    def test_instability_is_reported_at_the_failing_step(self):
        # the fourth of five steps goes negative: the message names its z
        grid = two_channel_grid(10.0)
        raman = RamanGainModel.triangular(slope=0.03, window=15.5)
        fiber = FiberSpec(AttenuationProfile.constant(1e-12), raman, 100.0)
        launch = PowerSpectrum(grid, np.array([0.4, 0.4]))
        message = "negative channel power at z = 80.000 km; increase steps_per_span (currently 5)"
        with pytest.raises(NumericalInstabilityError) as raised:
            integrate_span(launch, fiber, SolverOptions(steps_per_span=5))
        assert str(raised.value) == message

    def test_launch_not_at_zero_rejected(self, c_grid, default_fiber_100):
        launch = PowerSpectrum(c_grid, np.full(c_grid.n_channels, 1e-3), z=5.0)
        with pytest.raises(ConfigurationError, match="z = 0"):
            integrate_span(launch, default_fiber_100)

    def test_instability_raises_with_advice(self):
        grid = two_channel_grid(10.0)
        raman = RamanGainModel.triangular(slope=5.0, window=15.5)
        fiber = FiberSpec(AttenuationProfile.constant(1e-12), raman, 100.0)
        launch = PowerSpectrum(grid, np.array([5.0, 5.0]))  # absurdly hot
        with pytest.raises(NumericalInstabilityError, match="steps_per_span"):
            integrate_span(launch, fiber, SolverOptions(steps_per_span=1))


class TestIntegrateBatch:
    """A batch row matches integrate_span on its own to a few ulps; one row, bit for bit."""

    @staticmethod
    def mixed_launches(grid, count):
        rng = np.random.default_rng(3)
        ripple = rng.uniform(-0.5, 0.5, (count, grid.n_channels))
        dbm = rng.uniform(-5.0, 2.0, count)[:, None] + ripple
        return 1e-3 * 10.0 ** (dbm / 10.0), rng.uniform(40.0, 150.0, count)

    @staticmethod
    def single(grid, powers, fiber, length, options):
        fiber = FiberSpec(fiber.attenuation, fiber.raman, length)
        return integrate_span(PowerSpectrum(grid, powers), fiber, options).final.powers

    @pytest.mark.parametrize(
        "raman, options",
        [
            (RamanGainModel.triangular(peak=0.4), SolverOptions(steps_per_span=30)),
            (RamanGainModel.triangular(peak=0.4),
             SolverOptions(steps_per_span=30, photon_correction=True)),
            (RamanGainModel.from_table([0.0, 7.0, 13.0, 14.5, 16.0], [0.0, 0.15, 0.42, 0.3, 0.0]),
             SolverOptions(steps_per_span=30, raman_model="tabulated")),
        ],
        ids=["triangular", "photon-correction", "tabulated"],
    )
    def test_rows_match_integrate_span(self, cl_grid, raman, options):
        powers, lengths = self.mixed_launches(cl_grid, 5)
        fiber = FiberSpec(AttenuationProfile.constant_db(0.2), raman, 1.0)
        net = _span_operator(_SpanModel(cl_grid, fiber), options)
        out, errors = _integrate_batch(powers, lengths, net, options.steps_per_span)
        assert errors == ("",) * 5
        for row, p, length in zip(out, powers, lengths):
            np.testing.assert_allclose(row, self.single(cl_grid, p, fiber, length, options),
                                       rtol=1e-13)

    @staticmethod
    def matvec_samples(powers, length, k, alpha, steps):
        """Every RK4 sample of one launch, each stage one matrix-vector ``K @ p`` of the dense K."""
        h = length / steps

        def deriv(p):
            return p * (k @ p) - alpha * p

        p, samples = powers, [powers]
        for _ in range(steps):
            k1 = deriv(p)
            k2 = deriv(p + 0.5 * h * k1)
            k3 = deriv(p + 0.5 * h * k2)
            k4 = deriv(p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            samples.append(np.maximum(p, 0.0))
        return samples

    GRIDS = pytest.mark.parametrize(
        "grid",
        [
            build_channel_grid("SCLU"),  # 528 channels
            uniform_x_grid(397),
            uniform_x_grid(354),
        ],
        ids=["SCLU", "397-channels", "354-channels"],
    )

    @staticmethod
    def batch_case(grid):
        options = SolverOptions(steps_per_span=8)
        powers, lengths = TestIntegrateBatch.mixed_launches(grid, 4)
        fiber = FiberSpec(default_attenuation(), RamanGainModel.triangular(peak=0.35), 1.0)
        return powers, lengths, fiber, options, _span_operator(_SpanModel(grid, fiber), options)

    @GRIDS
    def test_one_row_is_bit_identical_to_a_matrix_vector_rk4(self, grid):
        # a one-row batch is integrate_span, bit for bit; both agree with an
        # RK4 on the dense K's matrix-vector K @ p, the operator's reference
        powers, lengths, fiber, options, net = self.batch_case(grid)
        k = _coupling_matrix(grid, fiber, options)
        alpha = attenuation_at(fiber.attenuation, grid.frequencies)
        for p, length in zip(powers, lengths):
            expected = self.matvec_samples(p, length, k, alpha, options.steps_per_span)
            out, errors = _integrate_batch(p[None, :], [length], net, options.steps_per_span)
            span = integrate_span(PowerSpectrum(grid, p),
                                  FiberSpec(fiber.attenuation, fiber.raman, length), options)
            assert errors == ("",) and np.array_equal(out[0], span.final.powers)
            assert len(span.powers) == len(expected)
            for sample, powers_at_z in zip(span.powers, expected):
                np.testing.assert_allclose(sample, powers_at_z, rtol=1e-13)

    @GRIDS
    def test_batch_rows_are_repeatable_and_match_integrate_span(self, grid):
        # a row's last bits depend on its batch, never on the run
        powers, lengths, fiber, options, net = self.batch_case(grid)
        out, errors = _integrate_batch(powers, lengths, net, options.steps_per_span)
        again, _ = _integrate_batch(powers, lengths, net, options.steps_per_span)
        assert errors == ("",) * 4
        assert np.array_equal(out, again)
        for row, p, length in zip(out, powers, lengths):
            np.testing.assert_allclose(row, self.single(grid, p, fiber, length, options),
                                       rtol=1e-13)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_unstable_row_leaves_the_batch(self):
        grid = two_channel_grid(10.0)
        raman = RamanGainModel.triangular(slope=5.0, window=15.5)
        fiber = FiberSpec(AttenuationProfile.constant(1e-12), raman, 100.0)
        options = SolverOptions(steps_per_span=2)
        # rows 1 and 3 are absurdly hot: one goes negative, the other overflows
        powers = np.array([[1e-3, 1e-3], [5.0, 5.0], [2e-3, 1e-3], [1e200, 1e200]])
        lengths = [30.0, 100.0, 60.0, 100.0]
        net = _span_operator(_SpanModel(grid, fiber), options)
        out, errors = _integrate_batch(powers, lengths, net, 2)
        for b, kind in ((1, "negative"), (3, "non-finite")):
            with pytest.raises(NumericalInstabilityError, match=f"^{kind}") as raised:
                integrate_span(PowerSpectrum(grid, powers[b]), fiber, options)
            assert errors[b] == str(raised.value)
            assert np.all(np.isnan(out[b]))
        for b in (0, 2):
            assert errors[b] == ""
            np.testing.assert_allclose(
                out[b], self.single(grid, powers[b], fiber, lengths[b], options), rtol=1e-13
            )


def per_row_batch(launch_powers, lengths, net, steps):
    """``_integrate_batch`` with a per-row stability mask built after every step.

    The reference the batch-wide test must match: same arithmetic, same
    drops, same messages.
    """
    h = np.asarray(lengths, dtype=float)[:, None] / steps
    out = np.full(launch_powers.shape, np.nan)
    errors = [""] * len(h)
    rows, p, step = np.arange(launch_powers.shape[0]), launch_powers, h
    y = np.empty_like(p)
    half, sixth = 0.5 * step, step / 6.0
    for i in range(steps):
        total = net(p)
        total *= p
        np.multiply(half, total, out=y)
        y += p
        k = net(y)
        k *= y
        np.multiply(half, k, out=y)
        y += p
        k *= 2.0
        total += k
        k = net(y)
        k *= y
        np.multiply(step, k, out=y)
        y += p
        k *= 2.0
        total += k
        k = net(y)
        k *= y
        total += k
        total *= sixth
        total += p
        p = total
        unstable = ~((p.min(axis=1) >= _NEGATIVE_FLOOR) & (p.max(axis=1) < np.inf))
        for row, b in zip(p[unstable], rows[unstable]):
            errors[b] = _instability_message(row, (i + 1) * h[b, 0], steps)
        if unstable.any():
            rows, p, step = rows[~unstable], p[~unstable], step[~unstable]
            y = np.empty_like(p)
            half, sixth = 0.5 * step, step / 6.0
    out[rows] = np.maximum(p, 0.0)
    return out, tuple(errors)


class TestBatchStabilityTest:
    """One batch-wide test per step keeps every bit and message of a per-row test per step."""

    @staticmethod
    def hot_case(slope, steps):
        grid = two_channel_grid(10.0)
        fiber = FiberSpec(AttenuationProfile.constant(1e-12),
                          RamanGainModel.triangular(slope=slope, window=15.5), 100.0)
        options = SolverOptions(steps_per_span=steps)
        return grid, fiber, options, _span_operator(_SpanModel(grid, fiber), options)

    @staticmethod
    def healthy_case():
        grid = build_channel_grid("CL")
        powers, lengths = TestIntegrateBatch.mixed_launches(grid, 5)
        fiber = FiberSpec(default_attenuation(), RamanGainModel.triangular(peak=0.4), 1.0)
        options = SolverOptions(steps_per_span=30)
        return powers, lengths, options, _span_operator(_SpanModel(grid, fiber), options)

    def assert_matches_per_row(self, powers, lengths, net, steps):
        h = np.asarray(lengths, dtype=float)[:, None] / steps
        yielded = list(_rk4(powers, net, h, steps))
        assert len(yielded) == steps  # one yield per step, whatever leaves the batch
        for rows, p, unstable in yielded:
            assert unstable.dtype == bool and len(unstable) == len(rows) == len(p)
        out, errors = _integrate_batch(powers, lengths, net, steps)
        want, want_errors = per_row_batch(powers, lengths, net, steps)
        assert np.array_equal(out, want, equal_nan=True)
        assert errors == want_errors
        return errors

    def test_rows_going_negative_at_different_steps(self):
        grid, fiber, options, net = self.hot_case(0.03, 5)
        # 0.5 W fails at step 1, 0.45 at 3, 0.4 at 4 and 0.35 at the last; 0.2 and 0.3 finish
        watts = [0.2, 0.4, 0.3, 0.5, 0.45, 0.35]
        powers = np.repeat(np.array(watts)[:, None], 2, axis=1)
        errors = self.assert_matches_per_row(powers, [100.0] * 6, net, 5)
        for b, z in ((1, 80.0), (3, 20.0), (4, 60.0), (5, 100.0)):
            message = (f"negative channel power at z = {z:.3f} km; "
                       "increase steps_per_span (currently 5)")
            assert errors[b] == message
            # one launch alone still raises at the step its batch row failed
            with pytest.raises(NumericalInstabilityError) as raised:
                integrate_span(PowerSpectrum(grid, powers[b]), fiber, options)
            assert str(raised.value) == message
        assert errors[0] == errors[2] == ""

    def test_every_row_failing_leaves_an_empty_batch_stepping(self):
        _, _, _, net = self.hot_case(0.03, 5)
        powers = np.array([[0.5, 0.5], [0.6, 0.6]])
        errors = self.assert_matches_per_row(powers, [100.0, 100.0], net, 5)
        assert all(errors)
        steps = list(_rk4(powers, net, np.array([[20.0], [20.0]]), 5))
        assert len(steps) == 5
        assert [len(rows) for rows, _, _ in steps] == [2, 0, 0, 0, 0]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_a_row_going_non_finite(self):
        _, _, _, net = self.hot_case(5.0, 2)
        powers = np.array([[1e-3, 1e-3], [1e200, 1e200], [2e-3, 1e-3]])
        errors = self.assert_matches_per_row(powers, [30.0, 100.0, 60.0], net, 2)
        assert errors[1].startswith("non-finite") and errors[0] == errors[2] == ""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_a_row_overflowing_to_plus_inf_alone(self):
        # dP/dz = P: the 1e308 row reaches +inf with no NaN and no negative
        # power, so only the max catches it
        powers = np.array([[1e-3, 2e-3], [1e308, 1e308], [3e-3, 1e-3]])
        errors = self.assert_matches_per_row(powers, [2.0] * 3, np.ones_like, 2)
        assert errors == ("", "non-finite channel power at z = 1.000 km; "
                              "increase steps_per_span (currently 2)", "")

    def test_an_all_healthy_batch(self):
        powers, lengths, options, net = self.healthy_case()
        errors = self.assert_matches_per_row(powers, lengths, net, options.steps_per_span)
        assert errors == ("",) * 5

    def test_a_healthy_batch_yields_one_shared_all_false_mask_per_step(self):
        powers, lengths, options, net = self.healthy_case()
        h = np.asarray(lengths)[:, None] / options.steps_per_span
        masks = [unstable for _, _, unstable in _rk4(powers, net, h, options.steps_per_span)]
        assert len(masks) == options.steps_per_span
        assert all(mask is masks[0] for mask in masks)
        assert masks[0].shape == (5,) and not masks[0].any()
        assert not masks[0].flags.writeable


class TestPropagateLink:
    def test_single_span_equals_integrate_span(self, c_grid, default_fiber_100):
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        link = LinkSpec(spans=(default_fiber_100,), amplifiers=())
        a = propagate_link_numerical(launch, link)
        b = integrate_span(launch, default_fiber_100)
        assert np.array_equal(a.final.powers, b.final.powers)

    def test_coupling_matrix_built_once_per_fiber_model(
        self, c_grid, default_fiber_50, monkeypatch
    ):
        from isrsprop import ode_oracle

        calls = []
        build = ode_oracle._span_operator
        monkeypatch.setattr(ode_oracle, "_span_operator",
                            lambda *args: calls.append(1) or build(*args))
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        shared = LinkSpec.uniform(default_fiber_50, 3)
        other = FiberSpec(default_fiber_50.attenuation, RamanGainModel.triangular(peak=0.3), 50.0)
        mixed = LinkSpec(spans=(default_fiber_50, other, default_fiber_50),
                         amplifiers=(AmplifierSpec(),) * 2)
        propagate_link_numerical(launch, shared)
        assert len(calls) == 1
        result = propagate_link_numerical(launch, mixed)
        assert len(calls) == 3
        single = integrate_span(launch, default_fiber_50).final
        np.testing.assert_array_equal(result.span_outputs[0].powers, single.powers)

    def test_flat_gain_exactly_undoes_flat_loss(self, c_grid):
        fiber = constant_alpha_fiber(0.2, 50.0, peak=0.0)
        link = LinkSpec.uniform(fiber, 2)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        result = propagate_link_numerical(launch, link)
        # the input of the second span, right after the first amplifier, equals the launch
        start_2 = result.span_inputs[1]
        assert np.max(np.abs(start_2.powers / launch.powers - 1.0)) < 1e-12

    def test_span_start_totals_restored(self, clu_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(clu_grid, -1.0)
        link = LinkSpec.uniform(default_fiber_50, 5)
        z, powers = link_samples(propagate_link_numerical(launch, link))
        totals = powers.sum(axis=1)
        starts = [t for zi, t in zip(z[1:], totals[1:]) if zi in (50.0, 100.0, 150.0, 200.0)]
        post_amp = [t for t in starts if t > 0.5 * launch.total_power]
        assert len(post_amp) == 4
        for total in post_amp:
            assert total == pytest.approx(launch.total_power, rel=1e-12)

    def test_receiver_boost_restores_final_total(self, c_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        link = LinkSpec.uniform(default_fiber_50, 2, receiver_boost=True)
        result = propagate_link_numerical(launch, link)
        assert result.final.total_power == pytest.approx(launch.total_power, rel=1e-12)
        z, powers = link_samples(result)
        assert z[-1] == pytest.approx(100.0)
        assert powers[-1].sum() == pytest.approx(launch.total_power, rel=1e-12)

    def test_band_restore_policy_keeps_band_totals(self, cl_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(cl_grid, -1.0)
        amp = AmplifierSpec(gain_policy="restore-band-power")
        link = LinkSpec.uniform(default_fiber_50, 2, amplifier=amp)
        z, powers = link_samples(propagate_link_numerical(launch, link))
        start_2 = powers[51]
        assert z[51] == pytest.approx(50.0)
        for b in range(len(cl_grid.bands)):
            sel = cl_grid.band_index == b
            assert start_2[sel].sum() == pytest.approx(
                launch.powers[sel].sum(), rel=1e-12
            )


class TestTabulatedRamanModel:
    def test_dense_triangle_table_matches_triangular(self, c_grid):
        # a finely sampled triangle should reproduce the analytic triangle
        df = np.linspace(0.0, 15.5, 3101)
        slope = 0.4 / 14.0
        table = RamanGainModel.from_table(df, slope * df)
        tri = RamanGainModel.triangular(peak=0.4)
        attenuation = AttenuationProfile.constant_db(0.2)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        out_tab = integrate_span(
            launch, FiberSpec(attenuation, table, 80.0),
            SolverOptions(raman_model="tabulated"),
        ).final
        out_tri = integrate_span(
            launch, FiberSpec(attenuation, tri, 80.0),
            SolverOptions(raman_model="triangular"),
        ).final
        assert np.max(np.abs(out_tab.powers / out_tri.powers - 1.0)) < 1e-9

    def test_triangular_choice_coerces_table(self, c_grid):
        # under the triangular choice a tabulated fiber uses its peak-anchored fit
        df = np.array([0.0, 7.0, 14.0, 15.0, 15.5])
        table = RamanGainModel.from_table(df, [0.0, 0.12, 0.4, 0.2, 0.0])
        attenuation = AttenuationProfile.constant_db(0.2)
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        out_coerced = integrate_span(
            launch, FiberSpec(attenuation, table, 80.0),
            SolverOptions(raman_model="triangular"),
        ).final
        out_direct = integrate_span(
            launch, FiberSpec(attenuation, table.as_triangular(), 80.0),
            SolverOptions(raman_model="triangular"),
        ).final
        assert np.array_equal(out_coerced.powers, out_direct.powers)
