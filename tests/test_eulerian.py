"""Reference Eulerian steppers: RK2, RK4, and the vorticity Taylor series."""

import numpy as np
import pytest

from euler2d import diagnostics, eulerian, runner, series, spectral


def _ab(n=64):
    return runner.make_ab_flow(n)


def _et_coefficients_loop(omega0, order):
    """et_coefficients as two lists of grids and a product loop: the reference
    for the one contraction per order that the module forms."""
    coeffs = [omega0]
    v_grids = []
    grads = []
    for s in range(order):
        v_grids.append(
            spectral.inverse(spectral.velocity_from_vorticity(coeffs[s]), check=False)
        )
        grads.append(spectral.inverse(spectral.gradient(coeffs[s]), check=False))
        acc = v_grids[0][0] * grads[s][0] + v_grids[0][1] * grads[s][1]
        for m in range(1, s + 1):
            g = grads[s - m]
            acc += v_grids[m][0] * g[0] + v_grids[m][1] * g[1]
        w_next = spectral.dealias(spectral.forward(acc))
        w_next /= -(s + 1)
        w_next[0, 0] = 0.0
        coeffs.append(w_next)
    return coeffs


class TestRhs:
    def test_steady_single_mode(self):
        # sin a cos b advects itself along its own streamlines
        assert np.max(np.abs(eulerian.rhs(_ab()))) < 1e-15

    def test_zero(self):
        out = eulerian.rhs(np.zeros((32, 17), dtype=complex))
        assert np.all(out == 0.0)

    def test_parallel_shear(self):
        a, _ = spectral.grid_coordinates(64)
        omega = spectral.forward(np.cos(a))
        assert np.max(np.abs(eulerian.rhs(omega))) < 1e-15

    @pytest.mark.parametrize("n", [32, 33, 48])
    def test_alias_free(self, n):
        # -(v . grad) omega of a dealiased omega, formed on a grid of 2n
        # points so that no product mode aliases, then cut to the kept modes
        omega = spectral.dealias(spectral.forward(
            np.random.default_rng(n).normal(size=(n, n))))
        omega[0, 0] = 0.0
        full = np.fft.fft2(spectral.inverse(omega), norm="forward")
        k = np.fft.fftfreq(n, 1.0 / n)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        lap = k1 * k1 + k2 * k2
        lap[0, 0] = 1.0
        psi = -full / lap
        m = 2 * n
        pos = np.arange(n) + (m - n) * (k < 0)  # index of each k on the fine grid
        idx = np.ix_(pos, pos)

        def fine(c):
            padded = np.zeros((m, m), dtype=complex)
            padded[idx] = c
            return np.fft.ifft2(padded, norm="forward").real

        prod = (fine(-1j * k2 * psi) * fine(1j * k1 * full)
                + fine(1j * k1 * psi) * fine(1j * k2 * full))
        want = -np.fft.fft2(prod, norm="forward")[idx][:, : n // 2 + 1]
        kc = (n - 1) // 3  # largest K with 3K < n: products of kept modes do not alias
        want *= ((np.abs(k1) <= kc) & (np.abs(k2) <= kc))[:, : n // 2 + 1]
        got = eulerian.rhs(omega)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestRungeKutta:
    def test_fixed_point(self):
        omega = _ab()
        for stepper in (eulerian.rk2_step, eulerian.rk4_step):
            out = stepper(omega, 0.3)
            assert np.max(np.abs(out - omega)) < 1e-14

    def test_zero_dt_identity(self):
        omega = runner.make_four_mode(64)
        out = eulerian.rk4_step(omega, 0.0)
        np.testing.assert_allclose(out, omega, atol=1e-16)

    def test_rk4_richardson(self):
        """Halving dt cuts the RK4 error roughly 16x (dt/4 as reference)."""
        omega = runner.make_four_mode(64)
        t_end = 0.2

        def advance(dt):
            w = omega
            for _ in range(round(t_end / dt)):
                w = eulerian.rk4_step(w, dt)
            return w

        ref = advance(0.0125)
        err_coarse = np.max(np.abs(advance(0.05) - ref))
        err_fine = np.max(np.abs(advance(0.025) - ref))
        assert 10.0 < err_coarse / err_fine < 25.0


class TestTaylorCoefficients:
    def test_steady_flow_vanishes(self):
        coeffs = eulerian.et_coefficients(_ab(), 6)
        for s in range(1, 7):
            assert np.max(np.abs(coeffs[s])) < 1e-15

    def test_first_coefficient_is_rhs(self):
        omega = runner.make_four_mode(64)
        coeffs = eulerian.et_coefficients(omega, 1)
        np.testing.assert_allclose(coeffs[1], eulerian.rhs(omega), atol=1e-16)

    def test_norm_sequence_shape(self):
        omega = runner.make_four_mode(64)
        coeffs = eulerian.et_coefficients(omega, 5)
        assert len(coeffs) == 6
        np.testing.assert_array_equal(coeffs[0], omega)
        # the norms of w_1..w_S, s-indexed from 1 as for displacements
        probe = diagnostics.coefficient_norm_probe(omega, 5, 5)
        assert len(probe["eulerian_norms"]) == 5
        assert probe["eulerian_norms"][0] == spectral.norm_l2(coeffs[1])

    def test_et8_matches_fine_rk4(self):
        """Cross-method oracle: one order-8 Taylor step against RK4 with an
        8x finer grid of substeps."""
        omega = runner.make_four_mode(256)
        dt = 0.0025
        et = eulerian.et_step(omega, dt, 8)
        rk = omega
        for _ in range(8):
            rk = eulerian.rk4_step(rk, dt / 8)
        grid_et = spectral.inverse(et, check=False)
        grid_rk = spectral.inverse(rk, check=False)
        assert np.max(np.abs(grid_et - grid_rk)) < 1e-11

    @pytest.mark.parametrize("initial", ["four_mode", "random:3"])
    def test_first_coefficient_matches_loop_bitwise(self, initial):
        omega = runner.initial_vorticity(runner.RunConfig(n=64, initial=initial))
        got = eulerian.et_coefficients(omega, 1)[1]
        want = _et_coefficients_loop(omega, 1)[1]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("initial", ["four_mode", "random:3"])
    def test_et8_step_matches_loop(self, initial, n):
        """The contraction sums the orders' products in another order than
        the loop, so the step agrees to rounding, 1e-15 relative."""
        omega = runner.initial_vorticity(runner.RunConfig(n=n, initial=initial))
        got = eulerian.et_step(omega, 0.01, 8)
        want = series.horner(_et_coefficients_loop(omega, 8), 0.01)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_et_zero_dt_identity(self):
        omega = runner.make_four_mode(64)
        out = eulerian.et_step(omega, 0.0, 4)
        np.testing.assert_allclose(out, omega, atol=1e-16)

