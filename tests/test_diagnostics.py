"""Spectra, conservation integrals, series fits, and transition detection."""

import numpy as np
import pytest

from euler2d import diagnostics, runner, spectral
from euler2d.errors import InsufficientDataError


class TestVorticitySpectrum:
    def test_single_mode_shell(self):
        # sin a cos b: four modes of modulus 1/4 on the |k| = sqrt(2) shell,
        # so E(1) = (1/2) * 4 * (1/16) = 1/8
        shells = diagnostics.vorticity_spectrum(runner.make_ab_flow(64))
        assert shells[1] == pytest.approx(0.125, rel=1e-14)
        others = np.delete(shells, 1)
        assert np.max(np.abs(others)) < 1e-30

    def test_zero_field(self):
        shells = diagnostics.vorticity_spectrum(np.zeros((32, 17), dtype=complex))
        assert np.all(shells == 0.0)

    def test_shell_sum_is_enstrophy(self):
        omega = runner.make_four_mode(64)
        total = np.sum(diagnostics.vorticity_spectrum(omega))
        assert total == pytest.approx(0.5 * spectral.norm_l2(omega) ** 2, abs=1e-13)


class TestFitLogLinear:
    def test_synthetic_model_exact(self):
        s = np.arange(1, 41)
        values = 3.0 * s**-2.0 * np.exp(-0.5 * s)
        report = diagnostics.fit_log_linear(values, (1, 40))
        assert report.alpha == pytest.approx(-2.0, abs=1e-10)
        assert report.beta == pytest.approx(-0.5, abs=1e-10)
        assert report.gamma == pytest.approx(3.0, abs=1e-10)
        assert report.radius == pytest.approx(np.exp(0.5), abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            diagnostics.fit_log_linear(np.ones(10), (1, 3))

    def test_non_positive_rejected(self):
        values = np.ones(10)
        values[4] = 0.0
        with pytest.raises(InsufficientDataError):
            diagnostics.fit_log_linear(values, (1, 10))

    @pytest.mark.parametrize("s_min", [0, -2])
    def test_window_below_first_order_rejected(self, s_min):
        with pytest.raises(InsufficientDataError):
            diagnostics.fit_log_linear(np.ones(10), (s_min, 10))


class TestFitRadius:
    def test_window_stops_before_noise_transition(self):
        s = np.arange(1, 81)
        values = np.exp(-0.6 * s) + 1e-14 * 1.2**s
        transition = diagnostics.detect_transition(values)
        report = diagnostics.fit_radius(values)
        assert report.fit_window == (diagnostics.RADIUS_S_MIN, transition - 5)
        # the noise tail, fitted too, would pull R far below e^0.6
        full = diagnostics.fit_log_linear(values, (diagnostics.RADIUS_S_MIN, 80))
        assert abs(np.log(report.radius) - 0.6) < abs(np.log(full.radius) - 0.6)

    def test_explicit_s_max_wins(self):
        s = np.arange(1, 81)
        values = np.exp(-0.6 * s) + 1e-14 * 1.2**s
        assert diagnostics.fit_radius(values, 8, 70).fit_window == (8, 70)
        assert diagnostics.fit_radius(values, s_max=20).fit_window == (10, 20)

    def test_clean_sequence_fitted_to_its_end(self):
        values = np.exp(-0.4 * np.arange(1, 41))
        report = diagnostics.fit_radius(values)
        assert report.fit_window == (diagnostics.RADIUS_S_MIN, 40)
        assert report.radius == pytest.approx(np.exp(0.4), rel=1e-12)


class TestRadiusEstimators:
    def test_geometric(self):
        values = 2.0 ** -np.arange(1, 31)
        out = diagnostics.radius_estimators(values)
        assert out["hadamard"] == pytest.approx(2.0, rel=1e-10)
        assert out["ratio"] == pytest.approx(2.0, rel=1e-12)

    def test_polynomial_times_geometric(self):
        s = np.arange(1, 31)
        values = s * 2.0**-s
        out = diagnostics.radius_estimators(values)
        # finite-order ratio has a known bias: f_{S-1}/f_S = 2(S-1)/S
        assert out["ratio"] == pytest.approx(2.0 * 29 / 30, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            diagnostics.radius_estimators([1.0])


class TestAnalyticityStrip:
    def test_synthetic_exact(self):
        k = np.arange(0, 50, dtype=float)
        shells = np.zeros(50)
        shells[1:] = k[1:] ** 3 * np.exp(-0.2 * k[1:])
        delta, fit = diagnostics.fit_analyticity_delta(shells, (1, 49))
        assert delta == pytest.approx(0.1, abs=1e-12)
        assert fit.alpha == pytest.approx(3.0, abs=1e-10)
        assert fit.gamma == pytest.approx(1.0, rel=1e-10)
        assert fit.fit_window == (1, 49)

    def test_empty_shell_rejected(self):
        shells = np.arange(0, 20, dtype=float) ** 3
        shells[10] = 0.0
        with pytest.raises(InsufficientDataError):
            diagnostics.fit_analyticity_delta(shells, (1, 19))

    def test_strip_width_shrinks_in_time(self):
        deltas = []
        for t_end in (0.75, 1.5, 2.5):
            config = runner.RunConfig(method="CL", order=8, n=128, t_end=t_end)
            art = runner.run(config)
            shells = diagnostics.vorticity_spectrum(art.omega)
            deltas.append(diagnostics.fit_analyticity_delta(shells, (5, 20))[0])
        assert deltas[0] > deltas[1] > deltas[2] > 0.0


class TestConservedQuantities:
    def test_single_mode_values(self):
        omega = runner.make_ab_flow(64)
        # four vorticity modes of modulus 1/4 at |k|^2 = 2: enstrophy
        # (1/2)*4/16 = 1/8 and energy (1/2)*4/(16*2) = 1/16
        assert diagnostics.enstrophy(omega) == pytest.approx(0.125, rel=1e-14)
        assert diagnostics.energy(omega) == pytest.approx(0.0625, rel=1e-14)

    def test_zero_flow(self):
        omega = np.zeros((32, 17), dtype=complex)
        assert diagnostics.energy(omega) == 0.0
        assert diagnostics.enstrophy(omega) == 0.0


class TestMaxDiscrepancy:
    def test_identical(self):
        g = np.ones((16, 16))
        assert diagnostics.max_discrepancy(g, g) == 0.0

    def test_single_point(self):
        a = np.zeros((16, 16))
        b = a.copy()
        b[3, 7] = 1e-9
        assert diagnostics.max_discrepancy(a, b) == pytest.approx(1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            diagnostics.max_discrepancy(np.zeros((8, 8)), np.zeros((16, 16)))


class TestTransitionDetection:
    def test_noise_plateau_detected(self):
        s = np.arange(1, 81)
        # clean geometric decay meeting a slowly amplifying noise floor
        values = np.exp(-0.6 * s) + 1e-14 * 1.2**s
        got = diagnostics.detect_transition(values)
        # decay meets the plateau near s = 80 decades later; the 3-decade
        # departure lands a little past the minimum
        assert got is not None
        assert got > np.argmin(values)

    def test_clean_decay_none(self):
        values = np.exp(-0.4 * np.arange(1, 41))
        assert diagnostics.detect_transition(values) is None

    def test_short_sequence_none(self):
        assert diagnostics.detect_transition(np.array([1.0])) is None

    def test_probe_on_steady_flow(self):
        out = diagnostics.coefficient_norm_probe(runner.make_ab_flow(64), 8, 8)
        assert len(out["lagrangian_norms"]) == 8
        assert len(out["eulerian_norms"]) == 8
        assert out["lagrangian_transition"] is None
