"""The cascade interpolation kernel and the reversion wrapper."""

import warnings

import numpy as np
import pytest

from euler2d import _cascade_py, interpolation, lagrangian, runner, spectral
from euler2d.errors import NumericalError, ReversionError


def _deformed(n, amp, field):
    a, b = spectral.grid_coordinates(n)
    x = np.ascontiguousarray(a + amp * np.sin(b))
    y = np.ascontiguousarray(b + amp * np.sin(a))
    w = np.ascontiguousarray(field(x, y))
    return x, y, w, field(a, b)


class TestMonotonicity:
    """The kernel's one rule, reached through the reversion layer."""

    def test_identity(self):
        # neither sweep's lines fold, and every target is a node
        n = 32
        a, b = spectral.grid_coordinates(n)
        w = np.random.default_rng(25).normal(size=(n, n))
        assert np.array_equal(interpolation.cascade_revert(np.stack([a, b]), w), w)

    def test_folded_map(self):
        n = 32
        a, b = spectral.grid_coordinates(n)
        y = b + 2.0 * np.sin(b)  # dy/db changes sign: folds every vertical line
        with pytest.raises(ReversionError, match="vertical") as info:
            interpolation.cascade_revert(np.stack([a, y]), a)
        assert info.value.report == list(range(n))
        # line 5 increases along its length but overruns one period, so it
        # folds across the wrap
        y = b.copy()
        y[5] *= 1.1
        with pytest.raises(ReversionError, match="1 vertical") as info:
            interpolation.cascade_revert(np.stack([a, y]), a)
        assert info.value.report == [5]

    def test_revert_raises_on_fold(self):
        # vertical lines intact, so the hybrid abscissae are x itself, which
        # folds along every horizontal line
        n = 32
        a, b = spectral.grid_coordinates(n)
        with pytest.raises(ReversionError, match="horizontal") as info:
            interpolation.cascade_revert(np.stack([a + 2.0 * np.sin(a), b]), a)
        assert info.value.report == list(range(n))


class TestCascadeKernel:
    def test_identity_map(self):
        n = 64
        a, b = spectral.grid_coordinates(n)
        rng = np.random.default_rng(21)
        w = rng.normal(size=(n, n))
        out = _cascade_py.cascade(
            np.ascontiguousarray(a), np.ascontiguousarray(b), np.ascontiguousarray(w)
        )
        assert np.max(np.abs(out - w)) <= 1e-14

    def test_rigid_translation(self):
        n = 64
        a, b = spectral.grid_coordinates(n)
        h = 2.0 * np.pi / n
        rng = np.random.default_rng(22)
        w = rng.normal(size=(n, n))
        # grid particles moved 3 cells right, 5 cells up; reverting the carried
        # values must reproduce the circular shift of the original field
        out = _cascade_py.cascade(
            np.ascontiguousarray(a + 3 * h), np.ascontiguousarray(b + 5 * h),
            np.ascontiguousarray(w),
        )
        assert np.max(np.abs(out - np.roll(w, (3, 5), axis=(0, 1)))) <= 1e-13

    def test_smooth_deformation(self):
        x, y, w, want = _deformed(128, 0.05, lambda x, y: np.sin(x) * np.cos(y))
        out = _cascade_py.cascade(x, y, w)
        assert np.max(np.abs(out - want)) < 1e-10

    def test_hybrid_monotonicity_failure(self):
        n = 64
        a, b = spectral.grid_coordinates(n)
        x = np.ascontiguousarray(a + 2.0 * np.sin(a))  # folds along rows
        with pytest.raises(ReversionError) as info:
            _cascade_py.cascade(x, np.ascontiguousarray(b), np.ascontiguousarray(a))
        assert info.value.report


def _plain_line(nodes, values, targets, width=12):
    """Lagrange product formula on the width nodes centred on each target."""
    n = nodes.shape[0]
    out = np.empty(len(targets))
    for i, t in enumerate(targets):
        t = nodes[0] + np.mod(t - nodes[0], 2.0 * np.pi)
        n0 = np.searchsorted(nodes, t, side="right")
        wrap, base = np.divmod(n0 - width // 2 + np.arange(width), n)
        xs = nodes[base] + 2.0 * np.pi * wrap
        out[i] = sum(
            values[base[k]] * np.prod((t - np.delete(xs, k)) / (xs[k] - np.delete(xs, k)))
            for k in range(width)
        )
    return out


def test_python_kernel_matches_plain_twelve_point():
    n = 48
    x, y, w, _ = _deformed(n, 0.1, lambda x, y: np.sin(3 * x) * np.cos(5 * y))
    b = 2.0 * np.pi * np.arange(n) / n
    width = _cascade_py.STENCIL
    x_hybrid = np.array([_plain_line(y[i], x[i], b, width) for i in range(n)])
    w_hybrid = np.array([_plain_line(y[i], w[i], b, width) for i in range(n)])
    want = np.array(
        [_plain_line(x_hybrid[:, j], w_hybrid[:, j], b, width) for j in range(n)]
    ).T
    assert np.max(np.abs(_cascade_py.cascade(x, y, w) - want)) <= 1e-13


def test_exact_and_inexact_hits_in_one_call():
    """Lines whose nodes are the targets return their values bit for bit,
    while lines shifted by 0.3 cells in the same call match the plain
    twelve-point formula."""
    n, m = 48, 8
    b = 2.0 * np.pi * np.arange(n) / n
    nodes = np.array([b] * (m // 2) + [b + 0.3 * (b[1] - b[0])] * (m // 2))
    values = np.random.default_rng(24).normal(size=(2, m, n))
    out = _cascade_py._interp_periodic_lines(nodes, values, b)
    assert np.max(np.abs(out[:, : m // 2] - values[:, : m // 2])) == 0.0
    want = [
        [_plain_line(nodes[i], values[c, i], b, _cascade_py.STENCIL) for i in range(m // 2, m)]
        for c in (0, 1)
    ]
    assert np.max(np.abs(out[:, m // 2 :] - want)) <= 1e-13


@pytest.mark.parametrize("axis", [0, 1])
def test_targets_within_overflow_range_of_a_node(axis):
    """A map that moves nodes by 1e-300 leaves some targets so close to a
    node, without being on it, that their weights overflow: in the second
    sweep when x moves, in the first when y does.  Such a target takes its
    nearest node's value, so both revert to the carried field, with no
    overflow warning."""
    n = 256
    a, b = spectral.grid_coordinates(n)
    w = np.sin(a) * np.cos(b) + 0.3 * np.cos(3 * a + 2 * b)
    pos = [a, b]
    pos[axis] = pos[axis] + 1e-300 * np.sin(pos[1 - axis])
    assert not np.array_equal(pos[axis], (a, b)[axis])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _cascade_py.cascade(*(np.ascontiguousarray(p) for p in pos), w)
    assert np.max(np.abs(out - w)) <= 1e-15


@pytest.mark.parametrize("amp", [0.0, 0.1])
def test_nan_vorticity_stays_non_finite(amp):
    """The exact-node fallback must not hide a NaN in the carried field,
    on the identity map (all targets hit nodes) or off it."""
    x, y, w, _ = _deformed(32, amp, lambda x, y: np.sin(x) * np.cos(y))
    w[5, 7] = np.nan
    assert not np.all(np.isfinite(_cascade_py.cascade(x, y, w)))


def test_nan_vorticity_fails_the_run(monkeypatch, tmp_path):
    revert = interpolation.cascade_revert

    def poisoned(positions, vorticity):
        vorticity = vorticity.copy()
        vorticity[3, 4] = np.nan
        return revert(positions, vorticity)

    monkeypatch.setattr(interpolation, "cascade_revert", poisoned)
    config = runner.RunConfig(method="CL", n=32, t_end=0.05, radius_cadence=0)
    with pytest.raises(NumericalError):
        runner.run(config, output_dir=str(tmp_path / "run"))


def test_folds_in_both_sweeps_are_rejected(monkeypatch):
    """CL order 2 at epsilon = 1 takes steps that fold the map; the run
    halves dt until the reversion succeeds.  Both sweeps reject a step on
    the way, and every rejection reports the lines that fold."""
    errors = []
    revert = interpolation.cascade_revert

    def recording(positions, vorticity):
        try:
            return revert(positions, vorticity)
        except ReversionError as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(interpolation, "cascade_revert", recording)
    config = runner.RunConfig(
        method="CL", order=2, epsilon=1.0, n=32, t_end=2.0, radius_cadence=0
    )
    art = runner.run(config)
    assert art.t == pytest.approx(2.0, abs=1e-12)
    kinds = {kind for exc in errors for kind in ("vertical", "horizontal") if kind in str(exc)}
    assert kinds == {"vertical", "horizontal"}
    assert all(exc.report for exc in errors)


def test_chunk_size_does_not_change_the_result(monkeypatch):
    n = 96  # not a multiple of the default LINES: the last chunk is short
    x, y, w, _ = _deformed(n, 0.1, lambda x, y: np.sin(3 * x) * np.cos(5 * y))
    want = _cascade_py.cascade(x, y, w)
    for lines in (1, 8, n):
        monkeypatch.setattr(_cascade_py, "LINES", lines)
        assert np.array_equal(_cascade_py.cascade(x, y, w), want)


class TestSlowFourierCheck:
    def test_identity(self):
        n = 64
        a, b = spectral.grid_coordinates(n)
        g = np.sin(a) * np.cos(b)
        reverted = spectral.forward(g)
        points = [(0, 0), (5, 9), (31, 63)]
        got = interpolation.slow_fourier_check(reverted, np.stack([a, b]), g, points)
        assert got <= 1e-13

    def test_empty_sample(self):
        n = 16
        a, b = spectral.grid_coordinates(n)
        got = interpolation.slow_fourier_check(spectral.forward(a), np.stack([a, b]), a, [])
        assert got == 0.0

    def test_after_real_step(self):
        """One converged Lagrangian step: the reverted spectral field,
        re-evaluated at the distorted positions, matches the carried
        vorticity to the interpolation accuracy."""
        n = 256
        omega = runner.make_four_mode(n)
        grads, norms = lagrangian.build_stack(omega, 8)
        dt = lagrangian.choose_step(norms, 1e-12)
        positions, _ = lagrangian.evaluate_displacement(grads, dt)
        grid = spectral.inverse(omega, check=False)
        reverted = spectral.forward(interpolation.cascade_revert(positions, grid))
        rng = np.random.default_rng(23)
        points = [tuple(p) for p in rng.integers(0, n, size=(32, 2))]
        got = interpolation.slow_fourier_check(reverted, positions, grid, points)
        assert got < 1e-9
