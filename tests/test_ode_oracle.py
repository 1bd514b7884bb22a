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
from isrsprop.ode_oracle import _coupling_matrix, _integrate_batch, _span_operator
from isrsprop.profiles import attenuation_at, default_attenuation, default_raman, raman_gain_at

from conftest import constant_alpha_fiber, raman_free_fiber


def two_channel_grid(spacing=1.0):
    from isrsprop import Band

    return build_channel_grid([Band("X", 192.0, 192.0 + 2 * spacing)], spacing)


def link_samples(result):
    """The oracle's span samples on link z, boundaries twice, boost sample last, as spectra."""
    samples = cli._link_samples(result, [cli._spectra_samples(r.spectra)
                                         for r in result.span_results])
    return [PowerSpectrum(result.final.grid, p, z=float(z))
            for zs, powers in samples for z, p in zip(zs, powers)]


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
            net = _span_operator(clu_grid, default_fiber_100, options)
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
        net = _span_operator(grid, fiber, options)
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
        net = _span_operator(cl_grid, fiber, options)
        assert len(calls) == dense
        powers = np.random.default_rng(6).uniform(1e-5, 2e-3, (5, cl_grid.n_channels))
        kp = powers @ build(cl_grid, fiber, options).T
        expected = kp - attenuation_at(fiber.attenuation, cl_grid.frequencies)
        if dense:
            assert np.array_equal(net(powers), expected)
        else:
            np.testing.assert_allclose(net(powers), expected, rtol=0,
                                       atol=1e-13 * np.abs(kp).max())


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
        assert len(result.spectra) == 51
        assert result.spectra[0].z == 0.0
        assert [s.z for s in result.spectra] == pytest.approx(np.linspace(0.0, 100.0, 51))
        # Raman transfer conserves the total, so loss makes it fall at every step
        assert np.all(np.diff([s.total_power for s in result.spectra]) < 0)

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
        net = _span_operator(cl_grid, fiber, options)
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
        return powers, lengths, fiber, options, _span_operator(grid, fiber, options)

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
            assert len(span.spectra) == len(expected)
            for sample, powers_at_z in zip(span.spectra, expected):
                np.testing.assert_allclose(sample.powers, powers_at_z, rtol=1e-13)

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
        out, errors = _integrate_batch(powers, lengths, _span_operator(grid, fiber, options), 2)
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
        spectra = link_samples(propagate_link_numerical(launch, link))
        starts = [s for s in spectra[1:] if s.z in (50.0, 100.0, 150.0, 200.0)]
        post_amp = [s for s in starts if s.total_power > 0.5 * launch.total_power]
        assert len(post_amp) == 4
        for s in post_amp:
            assert s.total_power == pytest.approx(launch.total_power, rel=1e-12)

    def test_receiver_boost_restores_final_total(self, c_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(c_grid, -1.0)
        link = LinkSpec.uniform(default_fiber_50, 2, receiver_boost=True)
        result = propagate_link_numerical(launch, link)
        assert result.final.total_power == pytest.approx(launch.total_power, rel=1e-12)
        last = link_samples(result)[-1]
        assert last.z == pytest.approx(100.0)
        assert last.total_power == pytest.approx(launch.total_power, rel=1e-12)

    def test_band_restore_policy_keeps_band_totals(self, cl_grid, default_fiber_50):
        launch = PowerSpectrum.flat_dbm(cl_grid, -1.0)
        amp = AmplifierSpec(gain_policy="restore-band-power")
        link = LinkSpec.uniform(default_fiber_50, 2, amplifier=amp)
        start_2 = link_samples(propagate_link_numerical(launch, link))[51]
        assert start_2.z == pytest.approx(50.0)
        for b in range(len(cl_grid.bands)):
            sel = cl_grid.band_index == b
            assert start_2.powers[sel].sum() == pytest.approx(
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
