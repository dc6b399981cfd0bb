"""Displacement Taylor coefficients, step selection, and series evaluation."""

import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from euler2d import diagnostics, eulerian, lagrangian, runner, series, spectral
from euler2d.errors import StepTooLargeError


def _fourier_eval(s, x, y):
    """Direct Fourier-series evaluation of a spectral field at one point."""
    n = s.shape[-2]
    k1, k2 = spectral.wavegrid(n)
    w = spectral.half_plane_weights(n)
    return np.real(np.sum(w * s * np.exp(1j * (k1 * x + k2 * y))))


def _coefficients(omega, order):
    """The spectral xi^(1..order) that build_stack drops, each rebuilt by
    next_coefficient from the stack's own lower-order gradients."""
    grads, _ = lagrangian.build_stack(omega, order)
    return [lagrangian.next_coefficient(grads[: s - 1], omega, s) for s in range(1, order + 1)]


def _flow(name, n):
    if name == "four_mode":
        return runner.make_four_mode(n)
    return runner.initial_vorticity(runner.RunConfig(initial="random:5", n=n))


class TestBuildStack:
    def test_zero_velocity(self):
        n = 32
        omega = np.zeros((n, n // 2 + 1), dtype=complex)
        grads, norms = lagrangian.build_stack(omega, 6)
        assert len(grads) == 6
        for g in grads:
            assert np.all(g == 0.0)
        np.testing.assert_array_equal(norms, np.zeros(6))

    def test_first_order_is_velocity(self):
        omega = runner.make_four_mode(64)
        v = spectral.velocity_from_vorticity(omega)
        _, norms = lagrangian.build_stack(omega, 1)
        assert norms[0] == pytest.approx(spectral.norm_l2(v), rel=1e-14)
        np.testing.assert_array_equal(lagrangian.next_coefficient([], omega, 1), v)

    def test_out_of_sequence_rejected(self):
        omega = runner.make_four_mode(64)
        grads, _ = lagrangian.build_stack(omega, 3)
        with pytest.raises(ValueError, match="must be present"):
            lagrangian.next_coefficient(grads, omega, 6)

    def test_probe_norms_match_coefficient_norms(self):
        """The step's stack, the radius probe and the norm probe report the
        L2 norms of the coefficients themselves, bit for bit, against an
        oracle that chains next_coefficient with gradients transformed one
        component at a time and stacked."""
        omega = runner.make_four_mode(64)
        grads, want = [], []
        for s in range(1, 41):
            xi = lagrangian.next_coefficient(grads, omega, s)
            grads.append(np.stack(
                [spectral.inverse(spectral.gradient(xi[k]), check=False) for k in (0, 1)]
            ))
            want.append(spectral.norm_l2(xi))
        step_grads, norms = lagrangian.build_stack(omega, 40)
        for got, g in zip(step_grads, grads):
            np.testing.assert_array_equal(got, g)
        np.testing.assert_array_equal(norms, want)
        _, probe_norms, _ = runner.radius_probe(omega, 40)
        np.testing.assert_array_equal(probe_norms, want)
        lag = diagnostics.coefficient_norm_probe(omega, 40, 2)["lagrangian_norms"]
        np.testing.assert_array_equal(lag, want)

    def test_no_coefficient_outlives_the_build(self, monkeypatch):
        refs = []
        build = lagrangian.next_coefficient

        def tracked(grads, omega, s):
            xi = build(grads, omega, s)
            refs.append(weakref.ref(xi))
            return xi

        monkeypatch.setattr(lagrangian, "next_coefficient", tracked)
        grads, _ = lagrangian.build_stack(runner.make_four_mode(32), 6)
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)
        assert len(grads) == 6

    def test_steady_flow_norms_decay(self):
        omega = runner.make_ab_flow(64)
        _, norms = lagrangian.build_stack(omega, 8)
        assert np.all(np.isfinite(norms))
        # geometric decay: every ratio well below 1 on this smooth flow
        assert np.all(norms[1:] / norms[:-1] < 0.75)

    def test_coefficients_solve_their_sources(self):
        """Independent curl/div assembly for orders 2..5 on the 4-mode flow."""
        n = 64
        omega = runner.make_four_mode(n)
        coeffs = _coefficients(omega, 5)
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
        grads, _ = lagrangian.build_stack(omega, 12)
        et = eulerian.et_coefficients(omega, 12)

        def velocity_at(t, pos):
            w = np.zeros_like(omega)
            for c in reversed(et):
                w = w * t + c
            vs = spectral.velocity_from_vorticity(w)
            return [_fourier_eval(vs[0], *pos), _fourier_eval(vs[1], *pos)]

        positions, _ = lagrangian.evaluate_displacement(grads, dt)
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
    grads, _ = lagrangian.build_stack(omega, 40)
    for s in range(2, 41):
        got = lagrangian.next_coefficient(grads[: s - 1], omega, s)
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
        # the criterion gives 10^-1.5 = 0.0316; R e^-2 binds only below it
        norms = np.zeros(8)
        norms[-1] = 1.0
        free = lagrangian.choose_step(norms, 1e-12)
        assert lagrangian.choose_step(norms, 1e-12, radius=0.1) == 0.1 * np.exp(-2.0)
        assert 1.0 * np.exp(-2.0) > free
        assert lagrangian.choose_step(norms, 1e-12, radius=1.0) == free
        # an infinite radius is no cap at all
        assert lagrangian.choose_step(norms, 1e-12, radius=np.inf) == free

    def test_zero_top_norm(self):
        # a rest state sets no bound, unless a radius is given
        assert lagrangian.choose_step(np.zeros(4), 1e-12) == np.inf
        assert lagrangian.choose_step(np.zeros(4), 1e-12, radius=np.inf) == np.inf
        assert lagrangian.choose_step(np.zeros(4), 1e-12, radius=0.5) == 0.5 * np.exp(-2.0)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            lagrangian.choose_step(np.ones(4), 0.0)


class TestEvaluateDisplacement:
    def _grads(self, n=64, order=8):
        return lagrangian.build_stack(runner.make_four_mode(n), order)[0]

    def test_zero_dt(self):
        positions, jac = lagrangian.evaluate_displacement(self._grads(), 0.0)
        a1, a2 = spectral.grid_coordinates(64)
        np.testing.assert_array_equal(positions[0], a1)
        np.testing.assert_array_equal(positions[1], a2)
        np.testing.assert_array_equal(jac, 1.0)

    def test_rest_state_is_identity(self):
        n = 32
        grads, _ = lagrangian.build_stack(np.zeros((n, n // 2 + 1), dtype=complex), 4)
        positions, jac = lagrangian.evaluate_displacement(grads, 0.3)
        np.testing.assert_array_equal(positions, spectral.grid_coordinates(n))
        np.testing.assert_array_equal(jac, 1.0)

    @pytest.mark.parametrize("flow", ["four_mode", "random"])
    @pytest.mark.parametrize("dt", [0.05, 0.17])
    def test_matches_coefficient_sum(self, flow, dt):
        """Positions from the summed gradient equal the truncated series of
        the coefficients themselves, inverse(sum_s dt^s xi^(s)), to rounding
        at 2 pi."""
        n = 128
        omega = _flow(flow, n)
        coeffs = _coefficients(omega, 16)
        want = spectral.inverse(dt * series.horner(coeffs, dt), check=False)
        want += spectral.grid_coordinates(n)
        grads, _ = lagrangian.build_stack(omega, 16)
        positions, _ = lagrangian.evaluate_displacement(grads, dt)
        assert np.max(np.abs(positions - want)) <= 2e-15

    def test_single_term(self):
        n = 64
        omega = runner.make_four_mode(n)
        v = spectral.velocity_from_vorticity(omega)
        grads, _ = lagrangian.build_stack(omega, 1)
        dt = 0.2
        positions, _ = lagrangian.evaluate_displacement(grads, dt)
        a1, a2 = spectral.grid_coordinates(n)
        vg = spectral.inverse(v, check=False)
        np.testing.assert_allclose(positions[0], a1 + dt * vg[0], atol=1e-13)
        np.testing.assert_allclose(positions[1], a2 + dt * vg[1], atol=1e-13)

    def test_huge_step_rejected(self):
        with pytest.raises(StepTooLargeError):
            lagrangian.evaluate_displacement(self._grads(), 20.0)

    def test_no_coefficients_rejected(self):
        # an empty stack has no gradients to sum
        with pytest.raises(ValueError, match="no displacement gradients"):
            lagrangian.evaluate_displacement([], 0.1)

    def test_steady_flow_trajectories(self):
        """On the steady single-mode flow the trajectories are closed orbits
        of a fixed velocity field; compare with a stiff-accuracy ODE solve."""
        n = 128
        dt = 0.1
        omega = runner.make_ab_flow(n)
        grads, _ = lagrangian.build_stack(omega, 16)
        positions, _ = lagrangian.evaluate_displacement(grads, dt)

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
        grads = self._grads()
        _, jac = lagrangian.evaluate_displacement(grads, 0.05)
        g = 0.05 * series.horner(grads, 0.05)
        np.testing.assert_array_equal(lagrangian.jacobian_determinant(g), jac)
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
