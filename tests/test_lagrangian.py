"""Displacement Taylor coefficients, step selection, and series evaluation."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from euler2d import eulerian, lagrangian, runner, spectral
from euler2d.errors import StateError, StepTooLargeError


def _fourier_eval(s, x, y):
    """Direct Fourier-series evaluation of a spectral field at one point."""
    n = s.shape[-2]
    k1, k2 = spectral.wavegrid(n)
    w = spectral.half_plane_weights(n)
    return np.real(np.sum(w * s * np.exp(1j * (k1 * x + k2 * y))))


class TestBuildStack:
    def test_zero_velocity(self):
        n = 32
        omega = np.zeros((n, n // 2 + 1), dtype=complex)
        coeffs, _, _ = lagrangian.build_stack(omega, 6)
        assert len(coeffs) == 6
        for c in coeffs:
            assert np.all(c == 0.0)

    def test_first_order_is_velocity(self):
        omega = runner.make_four_mode(64)
        v = spectral.velocity_from_vorticity(omega)
        coeffs, _, norms = lagrangian.build_stack(omega, 1)
        assert norms[0] == pytest.approx(spectral.norm_l2(v), rel=1e-14)
        np.testing.assert_array_equal(coeffs[0], v)

    def test_out_of_sequence_rejected(self):
        omega = runner.make_four_mode(64)
        _, grads, _ = lagrangian.build_stack(omega, 3)
        with pytest.raises(StateError):
            lagrangian.next_coefficient(grads, omega, 6)

    def test_norms_only_stack_matches_full_stack(self):
        omega = runner.make_four_mode(64)
        _, _, full = lagrangian.build_stack(omega, 40)
        lean_coeffs, lean_grads, lean_norms = lagrangian.build_stack(
            omega, 40, keep_coeffs=False
        )
        assert lean_coeffs == []
        assert len(lean_grads) == 40
        np.testing.assert_array_equal(lean_norms, full)
        _, probe_norms = runner.radius_probe(omega, 40)
        np.testing.assert_array_equal(probe_norms, full)

    def test_steady_flow_norms_decay(self):
        omega = runner.make_ab_flow(64)
        _, _, norms = lagrangian.build_stack(omega, 8)
        assert np.all(np.isfinite(norms))
        # geometric decay: every ratio well below 1 on this smooth flow
        assert np.all(norms[1:] / norms[:-1] < 0.75)

    def test_coefficients_solve_their_sources(self):
        """Independent curl/div assembly for orders 2..5 on the 4-mode flow."""
        n = 64
        omega = runner.make_four_mode(n)
        coeffs, _, _ = lagrangian.build_stack(omega, 5)
        for s in range(2, 6):
            curl_src = np.zeros((n, n))
            div_src = np.zeros((n, n))
            for m in range(1, s):
                gm = [
                    spectral.inverse(spectral.gradient(coeffs[m - 1][k]))
                    for k in (0, 1)
                ]
                gc = [
                    spectral.inverse(spectral.gradient(coeffs[s - m - 1][k]))
                    for k in (0, 1)
                ]
                for k in (0, 1):
                    curl_src -= (m / s) * (gm[k][0] * gc[k][1] - gm[k][1] * gc[k][0])
                div_src -= gm[0][0] * gc[1][1] - gm[0][1] * gc[1][0]
            want_curl = spectral.dealias(spectral.forward(curl_src))
            want_div = spectral.dealias(spectral.forward(div_src))
            got_curl = spectral.curl(coeffs[s - 1])
            got_div = spectral.divergence(coeffs[s - 1])
            np.testing.assert_allclose(got_curl, want_curl, atol=1e-13)
            np.testing.assert_allclose(got_div, want_div, atol=1e-13)

    def test_series_matches_characteristics(self):
        """Particle positions from the summed series agree with a
        high-accuracy integration of dx/dt = v(x, t), the velocity coming
        from an independent Eulerian Taylor solution of the same flow."""
        n = 64
        dt = 0.05
        omega = runner.make_four_mode(n)
        coeffs, _, _ = lagrangian.build_stack(omega, 12)
        et = eulerian.et_coefficients(omega, 12)

        def velocity_at(t, pos):
            w = np.zeros_like(omega)
            for c in reversed(et):
                w = w * t + c
            vs = spectral.velocity_from_vorticity(w)
            return [_fourier_eval(vs[0], *pos), _fourier_eval(vs[1], *pos)]

        positions = lagrangian.evaluate_displacement(coeffs, dt)
        a1, a2 = spectral.grid_coordinates(n)
        rng = np.random.default_rng(11)
        for _ in range(6):
            i, j = rng.integers(0, n, size=2)
            sol = solve_ivp(
                velocity_at,
                (0.0, dt),
                [a1[i, j], a2[i, j]],
                method="DOP853",
                rtol=1e-13,
                atol=1e-13,
            )
            got = positions[:, i, j]
            assert np.max(np.abs(got - sol.y[:, -1])) < 1e-10


def _unpaired_coefficient(grads, omega, s):
    """xi^(s) from the recurrence with every m = 1..s-1 of the curl sum
    formed on its own, as written in the lagrangian module docstring;
    grads[m - 1] holds the grid gradients of order m."""
    n = omega.shape[-2]
    ik1, ik2 = spectral.derivative_multipliers(n)
    curl_src = np.zeros((n, n))
    div_src = np.zeros((n, n))
    for m in range(1, s):
        gm = grads[m - 1]
        gc = grads[s - m - 1]
        w = m / s
        for k in (0, 1):
            curl_src -= w * (gm[k, 0] * gc[k, 1] - gm[k, 1] * gc[k, 0])
        div_src -= gm[0, 0] * gc[1, 1] - gm[0, 1] * gc[1, 0]
    curl_hat = spectral.dealias(spectral.forward(curl_src))
    div_hat = spectral.dealias(spectral.forward(div_src))
    psi = spectral.inverse_laplacian(curl_hat)
    phi = spectral.inverse_laplacian(div_hat)
    return np.stack([ik1 * phi - ik2 * psi, ik1 * psi + ik2 * phi])


@pytest.mark.parametrize("flow", ["four_mode", "random"])
def test_paired_recurrence_matches_unpaired_oracle(flow):
    """Every coefficient of the stack equals the unpaired m-sum on the
    stack's own lower orders, orders 2..40 at n = 64, to 1e-13 relative
    in L2."""
    n = 64
    omega = runner.make_four_mode(n) if flow == "four_mode" else runner.make_random_flow(n, 5)
    coeffs, grads, _ = lagrangian.build_stack(omega, 40)
    for s in range(2, 41):
        got = coeffs[s - 1]
        want = _unpaired_coefficient(grads[: s - 1], omega, s)
        rel = spectral.norm_l2(got - want) / spectral.norm_l2(want)
        assert rel <= 1e-13, f"order {s}: relative L2 distance {rel:.2e}"


class TestChooseStep:
    def test_direct_formula(self):
        norms = np.zeros(8)
        norms[-1] = 1.0
        dt = lagrangian.choose_step(norms, 1e-12)
        assert dt == pytest.approx(10.0 ** (-12 / 8), rel=1e-6)
        # the criterion itself holds strictly after the safety shave
        assert norms[-1] * dt**8 < 1e-12

    def test_cap_applies(self):
        norms = np.zeros(8)
        norms[-1] = 1.0
        assert lagrangian.choose_step(norms, 1e-12, dt_cap=0.01) == 0.01

    def test_zero_top_norm(self):
        assert lagrangian.choose_step(np.zeros(4), 1e-12, dt_cap=0.5) == 0.5
        with pytest.raises(ValueError):
            lagrangian.choose_step(np.zeros(4), 1e-12)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            lagrangian.choose_step(np.ones(4), 0.0)


class TestEvaluateDisplacement:
    def _stack(self, n=64, order=8):
        return lagrangian.build_stack(runner.make_four_mode(n), order)

    def test_zero_dt(self):
        coeffs, _, _ = self._stack()
        positions = lagrangian.evaluate_displacement(coeffs, 0.0)
        a1, a2 = spectral.grid_coordinates(64)
        np.testing.assert_array_equal(positions[0], a1)
        np.testing.assert_array_equal(positions[1], a2)

    def test_single_term(self):
        n = 64
        omega = runner.make_four_mode(n)
        v = spectral.velocity_from_vorticity(omega)
        coeffs, _, _ = lagrangian.build_stack(omega, 1)
        dt = 0.2
        positions = lagrangian.evaluate_displacement(coeffs, dt)
        a1, a2 = spectral.grid_coordinates(n)
        vg = spectral.inverse(v, check=False)
        np.testing.assert_allclose(positions[0], a1 + dt * vg[0], atol=1e-13)
        np.testing.assert_allclose(positions[1], a2 + dt * vg[1], atol=1e-13)

    def test_huge_step_rejected(self):
        coeffs, _, _ = self._stack()
        with pytest.raises(StepTooLargeError):
            lagrangian.evaluate_displacement(coeffs, 20.0)

    def test_no_coefficients_rejected(self):
        # a stack built with keep_coeffs=False has no coefficients to sum
        coeffs, _, _ = lagrangian.build_stack(runner.make_four_mode(32), 2, keep_coeffs=False)
        with pytest.raises(StateError):
            lagrangian.evaluate_displacement(coeffs, 0.1)

    def test_steady_flow_trajectories(self):
        """On the steady single-mode flow the trajectories are closed orbits
        of a fixed velocity field; compare with a stiff-accuracy ODE solve."""
        n = 128
        dt = 0.1
        omega = runner.make_ab_flow(n)
        coeffs, _, _ = lagrangian.build_stack(omega, 16)
        positions = lagrangian.evaluate_displacement(coeffs, dt)

        def velocity_at(_t, pos):
            x, y = pos
            return [
                -0.5 * np.sin(x) * np.sin(y),
                -0.5 * np.cos(x) * np.cos(y),
            ]

        a1, a2 = spectral.grid_coordinates(n)
        rng = np.random.default_rng(12)
        for _ in range(6):
            i, j = rng.integers(0, n, size=2)
            sol = solve_ivp(
                velocity_at,
                (0.0, dt),
                [a1[i, j], a2[i, j]],
                method="DOP853",
                rtol=1e-13,
                atol=1e-13,
            )
            got = positions[:, i, j]
            assert np.max(np.abs(got - sol.y[:, -1])) < 1e-9

    def test_jacobian_near_one(self):
        _, grads, _ = self._stack()
        jac = lagrangian.jacobian_determinant(grads, 0.05)
        assert np.max(np.abs(jac - 1.0)) < 1e-8
        assert np.all(jac > 0.0)


class TestOrderController:
    def test_auto_bracket(self):
        eps = 1e-12
        amp = 1.0
        order = lagrangian.step_order_controller(eps, amp)
        lo = -np.log(eps / amp) / 2.0
        hi = -np.log(eps / amp)
        assert lo <= order <= np.ceil(hi)

    def test_order_floor_of_two(self):
        # where the bracket lies below 2 (A < e^2 eps, a rest state included)
        # the order stays at 2, so the step's stack is never empty
        assert lagrangian.step_order_controller(1e-12, 0.0) == 2
        assert lagrangian.step_order_controller(1e-12, 2e-12) == 2
