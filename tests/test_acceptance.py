"""End-to-end acceptance runs at desk scale (N in {128, 256}).

Each test is one criterion.  The runs are shared through module-scoped
fixtures; the whole module takes ~50-60 s single-threaded.
"""

import pathlib
import warnings

import numpy as np
import pytest

from euler2d import _cascade_py, cli, diagnostics, io, runner, spectral
from euler2d.errors import NumericalError

EPSILON = 1e-12
# the benchmark's ET12 dt=0.005 reference field at t=1 (read only)
REFERENCE_T1 = pathlib.Path(__file__).parents[1] / "perfbench" / "reference" / "omega_t1.0.npy"


def _run(**kwargs):
    return runner.run(runner.RunConfig(**kwargs))


def _grid(artifacts):
    return spectral.inverse(artifacts.omega, check=False)


def _conservation_drift(artifacts):
    _, _, e0, z0 = artifacts.conservation[0]
    e1 = diagnostics.energy(artifacts.omega)
    z1 = diagnostics.enstrophy(artifacts.omega)
    return abs(e1 - e0) / e0, abs(z1 - z0) / z0


@pytest.fixture(scope="module")
def ab_cl8():
    return _run(method="CL", order=8, n=128, epsilon=EPSILON, t_end=1.0,
                initial="ab", radius_cadence=0)


@pytest.fixture(scope="module")
def cl8_t1():
    return _run(method="CL", order=8, n=256, epsilon=EPSILON, t_end=1.0,
                radius_cadence=0)


@pytest.fixture(scope="module")
def cl8_t3():
    return _run(method="CL", order=8, n=256, epsilon=EPSILON, t_end=3.0,
                radius_cadence=5, radius_depth=40)


@pytest.fixture(scope="module")
def cl16_t1():
    return _run(method="CL", order=16, n=256, epsilon=EPSILON, t_end=1.0,
                radius_cadence=10, radius_depth=40)


@pytest.fixture(scope="module")
def rk4_t1():
    return _run(method="RK4", dt=0.01, n=256, t_end=1.0)


@pytest.fixture(scope="module")
def rk4_t1_half_dt():
    return _run(method="RK4", dt=0.005, n=256, t_end=1.0)


@pytest.fixture(scope="module")
def rk4_t3():
    return _run(method="RK4", dt=0.01, n=256, t_end=3.0)


@pytest.fixture(scope="module")
def et8_t1():
    return _run(method="ET", order=8, dt=0.01, n=256, t_end=1.0)


@pytest.fixture(scope="module")
def et8_t3():
    return _run(method="ET", order=8, dt=0.01, n=256, t_end=3.0)


@pytest.fixture(scope="module")
def rk2_t1():
    # RK2 at dt=1e-3 is 1.17e-6 from the true solution, above the 1e-6 budget
    return _run(method="RK2", dt=5e-4, n=256, t_end=1.0)


def test_c01_steady_flow_fixed_point(ab_cl8):
    a, b = spectral.grid_coordinates(128)
    err = np.max(np.abs(_grid(ab_cl8) - np.sin(a) * np.cos(b)))
    assert err < 1e-8, f"steady-flow drift {err:.3e}"


def test_c02_cross_method_agreement(cl8_t1, rk4_t1, rk4_t1_half_dt, et8_t1, rk2_t1):
    # RK4 at dt=0.01 alone is 7.7e-9 from the true solution; the Richardson
    # extrapolation of the dt=0.01 and dt=0.005 runs is ~1e-11 from it
    ref = (16.0 * _grid(rk4_t1_half_dt) - _grid(rk4_t1)) / 15.0
    for name, art, budget in (("CL8", cl8_t1, 1e-8), ("ET8", et8_t1, 1e-9),
                              ("RK2", rk2_t1, 1e-6)):
        dist = np.max(np.abs(_grid(art) - ref))
        assert dist < budget, f"{name}-RK4 {dist:.3e} exceeds {budget:.0e}"


def test_c03_conservation(cl8_t1, rk4_t1, et8_t1, cl8_t3, rk4_t3, et8_t3):
    for runs, budget in (((cl8_t1, rk4_t1, et8_t1), 1e-10),
                         ((cl8_t3, rk4_t3, et8_t3), 1e-8)):
        for art in runs:
            de, dz = _conservation_drift(art)
            cfg = art.config
            name = cfg.method + (str(cfg.order) if cfg.method in ("CL", "ET") else "")
            msg = f"{name} t={cfg.t_end:g} drift E {de:.3e} Z {dz:.3e} (budget {budget:.0e})"
            assert de < budget and dz < budget, msg


def test_c04_initial_radius_of_convergence():
    report, _, _ = runner.radius_probe(runner.make_four_mode(256), depth=40)
    assert report is not None
    assert 1.0 <= report.radius <= 1.4, f"R = {report.radius:.4f}"
    # and the fitting machinery itself is exact on its own model
    s = np.arange(1, 41)
    synth = diagnostics.fit_log_linear(1.7 * s**-1.3 * np.exp(-0.25 * s), (1, 40))
    assert synth.alpha == pytest.approx(-1.3, abs=1e-10)
    assert synth.beta == pytest.approx(-0.25, abs=1e-10)
    assert synth.gamma == pytest.approx(1.7, abs=1e-10)


def test_c05_truncation_criterion_honored(cl8_t3):
    worst = max(rec["truncation_term"] for rec in cl8_t3.steps)
    assert worst < EPSILON, f"worst truncation term {worst:.3e}"


def test_c06_monotonicity_and_jacobian(cl8_t3):
    assert all(rec["rejections"] == 0 for rec in cl8_t3.steps)
    worst = min(rec["jacobian_min"] for rec in cl8_t3.steps)
    assert worst > 0.0, f"Jacobian determinant dipped to {worst:.3e}"


def test_c07_rounding_noise_asymmetry():
    probe = diagnostics.coefficient_norm_probe(
        runner.make_four_mode(256), s_max_lagrangian=70, s_max_eulerian=30
    )
    s_lag = probe["lagrangian_transition"]
    s_et = probe["eulerian_transition"]
    assert s_lag is not None and s_et is not None
    assert s_et < s_lag, f"transitions: Eulerian {s_et}, Lagrangian {s_lag}"
    assert s_lag / s_et > 2.0


def test_c08_step_count_efficiency(cl16_t1, rk4_t1):
    n_cl = len(cl16_t1.steps)
    n_rk = len(rk4_t1.steps)
    assert n_cl < n_rk / 10, f"CL16 took {n_cl} steps vs RK4 {n_rk}"
    # accepted step sizes change very moderately (final clipped step aside)
    dts = [rec["dt_unclipped"] for rec in cl16_t1.steps]
    jumps = np.abs(np.diff(dts)) / np.array(dts[:-1])
    assert np.max(jumps, initial=0.0) < 0.2


def test_c09_radius_trend(cl8_t3):
    radii = [r for _, _, r in cl8_t3.radius_series]
    assert len(radii) >= 5
    assert min(radii) > 0.5 * radii[0], "radius lost more than half its value"
    for prev, cur in zip(radii, radii[1:]):
        assert cur < 1.1 * prev, f"radius jumped {prev:.3f} -> {cur:.3f}"


def test_c10_interpolation_order_property():
    """Halving the deformation and the spacing drops the cascade error by at
    least 2^11, which the 12-point stencil meets and an 8-point one cannot."""
    field = lambda x, y: np.sin(8 * x) * np.cos(8 * y)
    errors = []
    for n, amp in ((64, 0.1), (128, 0.05), (256, 0.025)):
        a, b = spectral.grid_coordinates(n)
        x = np.ascontiguousarray(a + amp * np.sin(b))
        y = np.ascontiguousarray(b + amp * np.sin(a))
        out = _cascade_py.cascade(x, y, np.ascontiguousarray(field(x, y)))
        errors.append(np.max(np.abs(out - field(a, b))))
    assert errors[0] / errors[1] >= 2.0**11, f"error ratio {errors[0] / errors[1]:.3e}"
    assert errors[1] / errors[2] >= 2.0**11, f"error ratio {errors[1] / errors[2]:.3e}"


def test_c11_property_suites(tmp_path):
    # Parseval and round-trip
    rng = np.random.default_rng(41)
    g = rng.normal(size=(64, 64))
    s = spectral.forward(g)
    assert spectral.norm_l2(s) == pytest.approx(spectral.grid_norm_l2(g), rel=1e-12)
    assert np.max(np.abs(spectral.inverse(s) - g)) < 1e-13
    # dealias idempotence and gradient commutation
    np.testing.assert_array_equal(spectral.dealias(spectral.dealias(s)),
                                  spectral.dealias(s))
    np.testing.assert_allclose(
        spectral.gradient(spectral.dealias(s))[0],
        spectral.dealias(spectral.gradient(s)[0]), atol=1e-15,
    )
    # fit exactness on a synthetic model
    seq = np.arange(1, 31)
    fit = diagnostics.fit_log_linear(0.4 * seq**2.0 * np.exp(-0.7 * seq), (1, 30))
    assert fit.radius == pytest.approx(np.exp(0.7), abs=1e-10)
    # bit-exact file round-trip
    path = tmp_path / "w.field"
    io.write_field(path, g, 2.5)
    back, t = io.read_field(path)
    assert t == 2.5
    np.testing.assert_array_equal(back, g)
    # deterministic seeding
    np.testing.assert_array_equal(
        runner.make_random_flow(64, seed=3), runner.make_random_flow(64, seed=3)
    )


def test_c12_time_reversal_round_trip(cl8_t1, tmp_path):
    """-omega(-t) solves the Euler equation too, so CL8 run forward from
    -omega(T) returns to -omega(0); its error there is of the forward run's
    (measured 7.1e-13 against 1.4e-12)."""
    forward = _grid(cl8_t1)
    forward_err = np.max(np.abs(forward - np.load(REFERENCE_T1)))
    path = str(tmp_path / "reversed.field")
    io.write_field(path, -forward, 0.0)
    back = _run(method="CL", order=8, n=256, epsilon=EPSILON, t_end=1.0,
                radius_cadence=0, initial=path)
    omega0 = spectral.inverse(runner.initial_vorticity(cl8_t1.config), check=False)
    round_trip = np.max(np.abs(_grid(back) + omega0))
    ratio = round_trip / forward_err
    msg = f"round trip {round_trip:.3e}, forward {forward_err:.3e}"
    assert 0.3 <= ratio <= 4.0, msg


def test_c13_pi_rotation_symmetry(cl8_t1):
    """The four-mode flow is even in (a, b), and a rotation by pi maps Euler
    solutions to solutions: omega(-a, -b, t) = omega(a, b, t)."""
    grid = _grid(cl8_t1)
    rotated = np.roll(grid[::-1, ::-1], 1, axis=(0, 1))
    asym = np.max(np.abs(grid - rotated))
    assert asym <= 1e-13, f"pi-rotation asymmetry {asym:.3e}"


def test_c14_steps_beyond_the_cfl_limit(cl8_t1, tmp_path, capsys):
    """RK4 at dt=0.02 is past its stability limit on the four-mode flow at
    N=256: it blows up, and says so by NumericalError alone (exit 3 from the
    CLI), with no numpy warning.  Every CL8 step is larger (0.0589-0.0603,
    the clipped last one 0.0451)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            _run(method="RK4", dt=0.02, n=256, t_end=1.0)
        code = cli.main(["run", "--method", "RK4", "--dt", "0.02", "--n", "256",
                         "--t-end", "1", "--output-dir", str(tmp_path / "rk4")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "RuntimeWarning" not in err
    assert min(row["dt"] for row in cl8_t1.steps) > 0.02
