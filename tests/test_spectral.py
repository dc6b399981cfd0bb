"""Transform conventions, multiplier operators, and their invariants."""

import numpy as np
import pytest

from euler2d import diagnostics, interpolation, spectral
from conftest import random_band_limited


class TestForward:
    def test_constant_field(self):
        s = spectral.forward(np.ones((32, 32)))
        assert s[0, 0] == pytest.approx(1.0, abs=1e-15)
        s[0, 0] = 0.0
        assert np.max(np.abs(s)) < 1e-15

    def test_cos_a(self):
        a, _ = spectral.grid_coordinates(32)
        s = spectral.forward(np.cos(a))
        assert s[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert s[-1, 0] == pytest.approx(0.5, abs=1e-14)
        s[1, 0] = s[-1, 0] = 0.0
        assert np.max(np.abs(s)) < 1e-14

    def test_round_trip_random(self):
        g = random_band_limited(64, 10, seed=1)
        err = np.max(np.abs(spectral.inverse(spectral.forward(g)) - g))
        assert err <= 1e-13


class TestInverse:
    def test_zero_spectrum(self):
        assert np.all(spectral.inverse(np.zeros((16, 9), dtype=complex)) == 0.0)

    def test_cos_mode(self):
        s = np.zeros((32, 17), dtype=complex)
        s[1, 0] = s[-1, 0] = 0.5
        a, _ = spectral.grid_coordinates(32)
        assert np.max(np.abs(spectral.inverse(s) - np.cos(a))) < 1e-14

    def test_non_hermitian_rejected(self):
        s = np.zeros((16, 9), dtype=complex)
        s[1, 0] = 1.0  # missing the conjugate partner s[-1, 0] in the k2=0 column
        with pytest.raises(ValueError, match="Hermitian"):
            spectral.inverse(s)
        # the unchecked path is available for internal use
        spectral.inverse(s, check=False)

    def test_nyquist_column_checked(self):
        s = np.zeros((16, 9), dtype=complex)
        s[3, 8] = 1.0j  # k2 = n/2 holds its own partner s[-3, 8]
        with pytest.raises(ValueError, match="Hermitian"):
            spectral.inverse(s)
        s[-3, 8] = -1.0j
        spectral.inverse(s)

    @pytest.mark.parametrize("shape", [(16, 16), (2, 16, 16), (16, 8), (16,)])
    def test_full_layout_rejected(self, shape):
        s = np.zeros(shape, dtype=complex)
        for op in (spectral.inverse, spectral.dealias, spectral.norm_l2,
                   spectral.inverse_laplacian):
            with pytest.raises(ValueError, match="half spectrum"):
                op(s)


class TestDealias:
    def test_cutoff_value(self):
        assert spectral.dealias_cutoff(1024) == 341
        assert spectral.dealias_cutoff(64) == 21

    def test_low_mode_unchanged(self):
        s = np.zeros((64, 33), dtype=complex)
        s[1, 1] = 1.0 + 2.0j
        assert spectral.dealias(s)[1, 1] == 1.0 + 2.0j

    def test_projection_non_increasing(self):
        g = random_band_limited(64, 30, seed=2)
        s = spectral.forward(g)
        assert spectral.norm_l2(spectral.dealias(s)) <= spectral.norm_l2(s)

    def test_idempotent(self):
        g = random_band_limited(64, 30, seed=3)
        once = spectral.dealias(spectral.forward(g))
        np.testing.assert_array_equal(spectral.dealias(once), once)

    def test_returns_a_new_array(self):
        # callers write the k = 0 mode of the result in place
        s = spectral.forward(random_band_limited(64, 30, seed=4))
        before = s.copy()
        spectral.dealias(s)[...] = 7.0
        np.testing.assert_array_equal(s, before)


class TestTruncate:
    @pytest.mark.parametrize("m", [32, 33, 48])
    def test_keeps_exactly_the_modes_within_the_cutoff(self, m):
        n = 64
        s = spectral.forward(random_band_limited(n, 31, seed=11))
        got = spectral.truncate(s, m)
        assert got.shape == (m, m // 2 + 1)
        kc = spectral.dealias_cutoff(m)
        k1, k2 = spectral.wavegrid(m)
        inside = (np.abs(k1) <= kc) & (k2 <= kc)
        np.testing.assert_array_equal(got[inside], s[k1[inside] % n, k2[inside]])
        assert np.all(got[~inside] == 0.0)

    @pytest.mark.parametrize("m", [32, 33, 64])
    def test_vector_components_truncate_as_scalars(self, m):
        # the (2, n, n//2+1) path of lagrangian._solve_curl_div
        n = 64
        v = spectral.forward(np.stack([random_band_limited(n, 31, seed=13),
                                       random_band_limited(n, 31, seed=14)]))
        got = spectral.truncate(v, m)
        assert got.shape == (2, m, m // 2 + 1)
        for c in range(2):
            np.testing.assert_array_equal(got[c], spectral.truncate(v[c], m))

    def test_same_grid_returns_a_dealiased_field(self):
        s = spectral.dealias(spectral.forward(random_band_limited(64, 31, seed=12)))
        np.testing.assert_array_equal(spectral.truncate(s, 64), s)

    def test_finer_grid_rejected(self):
        with pytest.raises(ValueError, match="finer grid"):
            spectral.truncate(np.zeros((32, 17), dtype=complex), 64)


class TestGradient:
    def test_cos_a(self):
        a, _ = spectral.grid_coordinates(64)
        grad = spectral.inverse(spectral.gradient(spectral.forward(np.cos(a))))
        assert np.max(np.abs(grad[0] + np.sin(a))) < 1e-13
        assert np.max(np.abs(grad[1])) < 1e-13

    def test_constant(self):
        grad = spectral.gradient(spectral.forward(np.full((32, 32), 7.0)))
        assert np.max(np.abs(grad)) < 1e-14

    def test_matches_finite_differences(self):
        n = 256
        g = random_band_limited(n, 8, seed=4)
        grad = spectral.inverse(spectral.gradient(spectral.forward(g)))
        h = 2.0 * np.pi / n
        fd_a = (np.roll(g, -1, axis=0) - np.roll(g, 1, axis=0)) / (2.0 * h)
        fd_b = (np.roll(g, -1, axis=1) - np.roll(g, 1, axis=1)) / (2.0 * h)
        # centered differences err by at most (h^2/6) sup|third derivative|,
        # bounded here by the spectral sum of |k|^3 |coeff|
        s = spectral.forward(g)
        k1, k2 = spectral.wavegrid(n)
        w = spectral.half_plane_weights(n)
        tol_a = h**2 / 6.0 * np.sum(w * np.abs(k1) ** 3 * np.abs(s))
        tol_b = h**2 / 6.0 * np.sum(w * np.abs(k2) ** 3 * np.abs(s))
        assert np.max(np.abs(grad[0] - fd_a)) < tol_a
        assert np.max(np.abs(grad[1] - fd_b)) < tol_b
        # and the error really is second order: kmax=8 at n=256 sits in the
        # asymptotic regime, so the bound is not vacuous
        assert np.max(np.abs(grad[0] - fd_a)) > 1e-6

    def test_vector_input_rejected(self):
        v = np.zeros((2, 16, 9), dtype=complex)
        with pytest.raises(ValueError, match="scalar"):
            spectral.gradient(v)


class TestInverseLaplacian:
    def test_eigenfunction(self):
        a, b = spectral.grid_coordinates(64)
        g = np.sin(a) * np.cos(b)
        out = spectral.inverse(spectral.inverse_laplacian(spectral.forward(g)))
        assert np.max(np.abs(out + 0.5 * g)) < 1e-14

    def test_zero(self):
        out = spectral.inverse_laplacian(np.zeros((16, 9), dtype=complex))
        assert np.all(out == 0.0)

    def test_laplacian_round_trip(self):
        g = random_band_limited(64, 15, seed=5)
        s = spectral.forward(g)
        k1, k2 = spectral.wavegrid(64)
        lap = -(k1**2 + k2**2) * spectral.inverse_laplacian(s)
        back = spectral.inverse(lap)
        assert np.max(np.abs(back - (g - np.mean(g)))) < 1e-12


class TestCalderonZygmund:
    def test_c11_on_cos_a(self):
        a, _ = spectral.grid_coordinates(64)
        s = spectral.forward(np.cos(a))
        out = spectral.inverse(spectral.calderon_zygmund(s, 0, 0))
        assert np.max(np.abs(out - np.cos(a))) < 1e-14

    def test_c12_on_cos_a(self):
        a, _ = spectral.grid_coordinates(64)
        s = spectral.forward(np.cos(a))
        out = spectral.calderon_zygmund(s, 0, 1)
        assert np.max(np.abs(out)) < 1e-15

    def test_trace_identity(self):
        g = random_band_limited(64, 20, seed=6)
        s = spectral.forward(g)
        total = spectral.calderon_zygmund(s, 0, 0) + spectral.calderon_zygmund(s, 1, 1)
        back = spectral.inverse(total)
        assert np.max(np.abs(back - (g - np.mean(g)))) < 1e-12


class TestVelocityFromVorticity:
    def test_single_mode_vorticity(self):
        # omega = sin a cos b has stream function -(1/2) sin a cos b, so
        # v = (-(1/2) sin a sin b, -(1/2) cos a cos b); curl(v) recovers omega.
        a, b = spectral.grid_coordinates(64)
        omega = spectral.forward(np.sin(a) * np.cos(b))
        v = spectral.inverse(spectral.velocity_from_vorticity(omega))
        assert np.max(np.abs(v[0] + 0.5 * np.sin(a) * np.sin(b))) < 1e-14
        assert np.max(np.abs(v[1] + 0.5 * np.cos(a) * np.cos(b))) < 1e-14

    def test_curl_recovers_vorticity(self):
        g = random_band_limited(64, 12, seed=7)
        omega = spectral.forward(g - np.mean(g))
        v = spectral.velocity_from_vorticity(omega)
        assert np.max(np.abs(spectral.curl(v) - omega)) < 1e-13

    def test_zero(self):
        v = spectral.velocity_from_vorticity(np.zeros((16, 9), dtype=complex))
        assert np.all(v == 0.0)

    def test_divergence_free(self):
        g = random_band_limited(64, 12, seed=8)
        omega = spectral.forward(g - np.mean(g))
        v = spectral.velocity_from_vorticity(omega)
        assert np.max(np.abs(spectral.divergence(v))) < 1e-14

    def test_nonzero_mean_rejected(self):
        omega = spectral.forward(np.sin(spectral.grid_coordinates(32)[0]) + 0.3)
        with pytest.raises(ValueError, match="mean vorticity"):
            spectral.velocity_from_vorticity(omega)


class TestNorms:
    def test_parseval(self):
        g = random_band_limited(64, 18, seed=9)
        a = spectral.norm_l2(spectral.forward(g))
        b = spectral.grid_norm_l2(g)
        assert a == pytest.approx(b, rel=1e-12)

    def test_vector_norm(self):
        v = np.zeros((2, 32, 32))
        v[0] = 3.0
        v[1] = 4.0
        assert spectral.grid_norm_l2(v) == pytest.approx(5.0, rel=1e-14)

    def test_gradient_dealias_commute(self):
        g = random_band_limited(64, 30, seed=10)
        s = spectral.forward(g)
        a = spectral.dealias(spectral.gradient(s)[0])
        b = spectral.gradient(spectral.dealias(s))[0]
        np.testing.assert_allclose(a, b, atol=1e-15)


class TestFullLatticeOracle:
    """Every half-spectrum operator against the same computation written on
    the full fft2 lattice, for random real fields at an even and an odd n."""

    RTOL = 1e-13

    @staticmethod
    def _full(g):
        n = g.shape[-1]
        k = np.fft.fftfreq(n, 1.0 / n)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        return np.fft.fft2(g) / (n * n), k1, k2

    @staticmethod
    def _real_inverse(s):
        n = s.shape[-1]
        return np.real(np.fft.ifft2(s * (n * n)))

    @staticmethod
    def _field(n, seed):
        g = np.random.default_rng(seed).normal(size=(n, n))
        return g - np.mean(g)

    def _close(self, got, want):
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) <= self.RTOL * scale

    @pytest.mark.parametrize("n", [32, 33])
    def test_transforms(self, n):
        g = self._field(n, 50 + n)
        s = spectral.forward(g)
        full, _, _ = self._full(g)
        assert s.shape == (n, n // 2 + 1)
        self._close(s, full[:, : n // 2 + 1])
        self._close(spectral.inverse(s), g)

    @pytest.mark.parametrize("n", [32, 33])
    def test_multipliers(self, n):
        g = self._field(n, 60 + n)
        s = spectral.forward(g)
        full, k1, k2 = self._full(g)
        kc = (n - 1) // 3  # largest K with 3K < n: products of kept modes do not alias
        lap = (k1 * k1 + k2 * k2).astype(float)
        lap[0, 0] = 1.0
        psi = -full / lap
        psi[0, 0] = 0.0
        inv = self._real_inverse
        self._close(spectral.inverse(spectral.gradient(s)),
                    np.stack([inv(1j * k1 * full), inv(1j * k2 * full)]))
        self._close(spectral.inverse(spectral.inverse_laplacian(s)), inv(psi))
        self._close(spectral.inverse(spectral.velocity_from_vorticity(s)),
                    np.stack([inv(-1j * k2 * psi), inv(1j * k1 * psi)]))
        mask = (np.abs(k1) <= kc) & (np.abs(k2) <= kc)
        self._close(spectral.inverse(spectral.dealias(s)), inv(full * mask))

    @pytest.mark.parametrize("n", [32, 33])
    def test_sums(self, n):
        g = self._field(n, 70 + n)
        s = spectral.forward(g)
        full, k1, k2 = self._full(g)
        assert spectral.norm_l2(s) == pytest.approx(
            np.sqrt(np.sum(np.abs(full) ** 2)), rel=self.RTOL)
        v_grid = spectral.inverse(spectral.velocity_from_vorticity(s))
        v_full = self._full(v_grid)[0]
        assert diagnostics.energy(s) == pytest.approx(
            0.5 * np.sum(np.abs(v_full) ** 2), rel=self.RTOL)
        assert diagnostics.enstrophy(s) == pytest.approx(
            0.5 * np.sum(np.abs(full) ** 2), rel=self.RTOL)
        shell = np.floor(np.sqrt(k1 * k1 + k2 * k2)).astype(np.int64)
        want = np.bincount(shell.ravel(), weights=0.5 * np.abs(full.ravel()) ** 2)
        self._close(diagnostics.vorticity_spectrum(s), want)

    @pytest.mark.parametrize("n", [32, 33])
    def test_slow_fourier_check(self, n):
        g = self._field(n, 80 + n)
        full, k1, k2 = self._full(g)
        if n % 2 == 0:
            # between grid points a Nyquist mode's value depends on which of
            # k = +-n/2 stands for it, so the even case compares without them
            full[n // 2, :] = 0.0
            full[:, n // 2] = 0.0
            g = self._real_inverse(full)
        a, b = spectral.grid_coordinates(n)
        rng = np.random.default_rng(n)
        positions = np.stack([a, b]) + rng.uniform(-0.1, 0.1, size=(2, n, n))
        carried = rng.normal(size=(n, n))
        points = [(0, 0), (3, n - 1), (n // 2, 7), (n - 1, n // 3)]
        want = max(
            abs(np.real(np.sum(full * np.exp(
                1j * (k1 * positions[0][i, j] + k2 * positions[1][i, j]))))
                - carried[i, j])
            for i, j in points
        )
        got = interpolation.slow_fourier_check(
            spectral.forward(g), positions, carried, points
        )
        assert got == pytest.approx(want, rel=self.RTOL)
