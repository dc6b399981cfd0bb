"""Initial conditions, the run loop, run comparison, and the CLI."""

import argparse
import dataclasses
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from euler2d import (
    cli, diagnostics, eulerian, interpolation, io, lagrangian, runner, spectral,
)
from euler2d.errors import ConfigError, Euler2DError, ReversionError


class TestInitialConditions:
    def test_four_mode_grid_values(self):
        a, b = spectral.grid_coordinates(64)
        want = np.cos(a) + np.cos(b) + 0.6 * np.cos(2 * a) + 0.2 * np.cos(3 * a)
        got = spectral.inverse(runner.make_four_mode(64))
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.max(np.abs(got)) == pytest.approx(2.8, abs=1e-12)

    def test_ab_flow_grid_values(self):
        a, b = spectral.grid_coordinates(64)
        omega = runner.make_ab_flow(64)
        got = spectral.inverse(omega)
        assert np.max(np.abs(got - np.sin(a) * np.cos(b))) < 1e-15
        assert abs(omega[0, 0]) == 0.0
        assert np.max(np.abs(eulerian.rhs(omega))) < 1e-15

    def test_random_flow_shell_modulus(self):
        n = 64
        s = runner.make_random_flow(n, seed=5)
        # brute-force lattice count of the K=2 shell
        count = 0
        for k1 in range(-21, 22):
            for k2 in range(-21, 22):
                if 2.0 <= np.hypot(k1, k2) < 3.0:
                    count += 1
        want = 2.0 * 2.0**3.5 * np.exp(-1.0) / count
        for k1, k2 in ((2, 0), (2, 1), (-2, -2), (1, 2)):
            if k2 < 0:  # stored as its conjugate partner, of equal modulus
                k1, k2 = -k1, -k2
            assert abs(s[k1 % n, k2]) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_random_flow_matches_brute_force_count(self, n):
        # shells counted by a loop over the fixed lattice square (the n = 256
        # dealias square), phases drawn in the same lattice order, modes kept
        # within the dealias square of n: the field must agree bit for bit
        kc = 85
        kn = spectral.dealias_cutoff(n)
        count = {}
        for k1 in range(-kc, kc + 1):
            for k2 in range(-kc, kc + 1):
                shell = int(np.floor(np.hypot(k1, k2)))
                count[shell] = count.get(shell, 0) + 1
        rng = np.random.Generator(np.random.PCG64(9))
        want = np.zeros((n, n // 2 + 1), dtype=np.complex128)
        for k1 in range(0, kc + 1):
            for k2 in range(-kc, kc + 1):
                shell = int(np.floor(np.hypot(k1, k2)))
                if (k1 == 0 and k2 <= 0) or not 1 <= shell <= kc:
                    continue
                modulus = 2.0 * shell**3.5 * np.exp(-(shell**2) / 4.0) / count[shell]
                value = modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                if modulus < 1e-18 or k1 > kn or abs(k2) > kn:
                    continue
                if k2 >= 0:
                    want[k1 % n, k2] = value
                if k2 <= 0:
                    want[(-k1) % n, -k2] = np.conj(value)
        np.testing.assert_array_equal(runner.make_random_flow(n, seed=9), want)

    def test_random_flow_is_real(self):
        s = runner.make_random_flow(64, seed=6)
        # the half layout leaves only the k2=0 and Nyquist columns free to
        # break the symmetry; a real grid field transforms back to s
        assert spectral.is_hermitian(s)
        back = spectral.forward(spectral.inverse(s))
        assert np.max(np.abs(back - s)) < 1e-13

    def test_random_flow_is_one_field_truncated(self):
        # the flow at n is the flow at 512 truncated, so a probe's coarse grid
        # m starts from the flow at m
        for seed in (0, 3):
            fine = runner.make_random_flow(512, seed)
            for n in (16, 24, 32, 48, 64, 128, 256):
                np.testing.assert_array_equal(
                    spectral.truncate(fine, n), runner.make_random_flow(n, seed))

    def test_random_flow_deterministic(self):
        a = runner.make_random_flow(64, seed=7)
        b = runner.make_random_flow(64, seed=7)
        np.testing.assert_array_equal(a, b)
        c = runner.make_random_flow(64, seed=8)
        assert np.max(np.abs(a - c)) > 0.0

    def test_random_seed_in_initial(self):
        # random:<k> is the random flow drawn with seed k, and random is random:0
        def initial(value):
            return runner.initial_vorticity(runner.RunConfig(initial=value, n=64))

        want = spectral.dealias(runner.make_random_flow(64, 3))
        want[0, 0] = 0.0
        np.testing.assert_array_equal(initial("random:3"), want)
        np.testing.assert_array_equal(initial("random"), initial("random:0"))

    def test_file_initial(self, tmp_path, monkeypatch):
        g = spectral.inverse(runner.make_four_mode(48))
        path = tmp_path / "ic.field"
        io.write_field(path, g, 0.0)
        config = runner.RunConfig(initial=str(path), n=48)
        omega = runner.initial_vorticity(config)
        np.testing.assert_allclose(omega, runner.make_four_mode(48), atol=1e-15)
        # a flow wins over a file of that name; "./ab" reads the file
        os.rename(path, tmp_path / "ab")
        os.link(tmp_path / "ab", tmp_path / "random:2")
        monkeypatch.chdir(tmp_path)
        for initial, want in (
            ("ab", runner.make_ab_flow(48)), ("./ab", omega),
            ("random:2", runner.make_random_flow(48, 2)), ("./random:2", omega),
        ):
            config = runner.RunConfig(initial=initial, n=48)
            config.validate()
            np.testing.assert_allclose(runner.initial_vorticity(config), want, atol=1e-15)

    def test_file_initial_shape_mismatch(self, tmp_path):
        path = tmp_path / "ic.field"
        io.write_field(path, np.zeros((32, 32)), 0.0)
        config = runner.RunConfig(initial=str(path), n=48)
        with pytest.raises(ConfigError):
            runner.initial_vorticity(config)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "XX"},
            {"initial": "vortex"},
            {"n": 8},
            {"epsilon": 0.0},
            {"t_end": -1.0},
            {"method": "RK4", "dt": None},
            {"initial": "file"},
            {"order": 0},
            {"method": "ET", "order": 0, "dt": 0.05},
            {"dt": -0.05},
            {"method": "RK4", "dt": -0.1},
            {"output_cadence": -1},
            {"radius_cadence": -1},
            {"method": "RK4", "dt": 0.0},  # a zero fixed step
            {"t_end": float("nan")},
            {"method": "RK4", "t_end": float("inf"), "dt": 0.01},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
            {"method": "RK4", "dt": float("nan")},
            {"dt": float("inf")},
            {"initial": "random:-1"},
            {"radius_depth": -3},
            {"method": "ET", "order": "auto", "dt": 0.05},
            {"method": "RK4", "order": "auto", "dt": 0.05},
            {"order": "x"},
            {"initial": os.curdir},  # a path that exists but is no file
            {"method": "CL", "dt": 0.01},
            {"initial": "random:"},
            {"initial": "random:x"},
            {"initial": "ab:1"},
            {"method": "RK4", "dt": 1e-6, "t_end": 1.0},  # 1e6 steps, past MAX_STEPS
            # a bool or a float where an integer belongs
            {"order": True},
            {"order": 8.0},
            {"n": 32.0},
            {"n": True},
            {"output_cadence": 1.5},
            {"radius_cadence": True},
            {"radius_depth": 40.0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            runner.RunConfig(**kwargs).validate()

    def test_zero_cadences_accepted(self):
        runner.RunConfig(output_cadence=0, radius_cadence=0).validate()


# Run in a fresh interpreter, so that neither an earlier test's call of the
# helper nor the heap state earlier tests leave behind decides the count.
# The helper's own result, asked for after the count, says whether the
# policy can hold on this libc at all.
_FAULTS_PER_STEP = """
import resource
from euler2d import eulerian, runner
runner.run(runner.RunConfig(method="RK4", n=16, dt=0.1, t_end=0.0))
omega = runner.make_four_mode(256)
for _ in range(3):
    omega = eulerian.rk4_step(omega, 0.01)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    omega = eulerian.rk4_step(omega, 0.01)
faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10
print(faults, runner._hold_freed_heap())
"""


class _FakeLibc:
    """Stands in for ctypes.CDLL(None) and records each mallopt call."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


class TestHeapPolicy:
    def test_step_loop_does_not_fault(self):
        # without the policy glibc trims the freed FFT and product arrays
        # back to the kernel after every step: ~2800 faults per RK4 step at
        # n=256, against none with it
        src = os.path.dirname(os.path.dirname(runner.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _FAULTS_PER_STEP],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        faults, held = out.stdout.split()
        if held != "True":
            pytest.skip("mallopt does not hold the policy on this libc")
        assert float(faults) < 100

    def test_repeat_sets_the_same_values(self, monkeypatch):
        libc = _FakeLibc()
        monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: libc)
        assert runner._hold_freed_heap()
        assert runner._hold_freed_heap()
        policy = [(-3, 32 << 20), (-1, 64 << 20)]
        assert libc.calls == policy + policy

    def test_failed_mallopt_warns(self, monkeypatch):
        monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: _FakeLibc(result=0))
        with pytest.warns(RuntimeWarning, match="mallopt") as record:
            assert not runner._hold_freed_heap()
        assert len(record) == 1

    def test_without_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: object())
        assert not runner._hold_freed_heap()
        art = runner.run(runner.RunConfig(method="RK4", n=16, dt=0.1, t_end=0.2))
        assert len(art.steps) == 2


class TestRunLoop:
    def test_zero_time_is_identity(self):
        config = runner.RunConfig(method="CL", n=64, t_end=0.0)
        art = runner.run(config)
        np.testing.assert_array_equal(art.omega, runner.initial_vorticity(config))
        assert art.steps == []

    def test_cl_step_records(self):
        config = runner.RunConfig(method="CL", order=8, n=64, t_end=0.3)
        art = runner.run(config)
        assert art.t == pytest.approx(0.3, abs=1e-12)
        for rec in art.steps:
            assert rec["truncation_term"] < config.epsilon
            assert rec["jacobian_min"] > 0.0
            assert abs(rec["jacobian_min"] - 1.0) < 1e-8  # the map keeps area
            assert rec["rejections"] == 0

    def test_eulerian_step_count(self):
        config = runner.RunConfig(method="RK4", dt=0.05, n=64, t_end=0.5)
        art = runner.run(config)
        assert len(art.steps) == 10
        assert art.t == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "settings, capped",
        [
            ({"method": "CL"}, False),
            ({"method": "RK4", "dt": 0.05}, False),
            # at epsilon = 1e-6 the order-8 truncation step exceeds R e^-2, so
            # the radius fitted by the probe before each step sets that step
            ({"method": "CL", "epsilon": 1e-6, "radius_cadence": 1}, True),
        ],
        ids=["CL", "RK4", "CL-capped"],
    )
    def test_output_directory_contents(self, tmp_path, settings, capped):
        # both methods go through one loop: one field, spectrum and
        # conservation row per step, and the newest field file holds the final state
        out = tmp_path / "run"
        config = runner.RunConfig(**{
            "order": 8, "n": 64, "t_end": 0.3,
            "output_cadence": 1, "radius_cadence": 2, "radius_depth": 25, **settings,
        })
        art = runner.run(config, output_dir=str(out))
        assert (out / "config.txt").exists()
        steps = len(art.steps)
        assert steps >= 2
        fields = sorted(os.listdir(out / "fields"))
        assert fields == [f"omega_{step:06d}.field" for step in range(steps + 1)]
        spectra = sorted(f for f in os.listdir(out) if f.startswith("spectrum_"))
        assert spectra == [f"spectrum_{step:06d}.csv" for step in range(steps + 1)]
        _, kept = io.read_csv(str(out / "conservation.csv"))
        assert [row[0] for row in kept] == list(range(steps + 1))
        _, rows = io.read_csv(str(out / "steps.csv"))
        assert [row[0] for row in rows] == list(range(1, steps + 1))
        # each step record's t is the loop's t after that step
        assert [row[1] for row in rows] == [row[1] for row in kept[1:]]
        assert io.read_field(str(out / "fields" / fields[-1]))[1] == art.t
        assert art.t == pytest.approx(0.3, abs=1e-12)
        # every whole-file write goes to <name>.tmp and is renamed: none is left
        assert not list(out.rglob("*.tmp"))
        norms = sorted(f for f in os.listdir(out) if f.startswith("norms_"))
        if config.method == "CL":
            probes = range(0, steps, config.radius_cadence)
            assert norms == [f"norms_{step:06d}.csv" for step in probes]
            _, radii = io.read_csv(str(out / "radius.csv"))
            assert radii
            # each step is capped by R e^-2 for the latest radius fitted before it
            for step, _, _, dt_unclipped, *_ in rows:
                cap = ([np.inf] + [R for p, _, R in radii if p < step])[-1] * np.exp(-2.0)
                assert dt_unclipped <= cap
                assert (dt_unclipped == pytest.approx(cap, rel=1e-14)) == capped
        else:
            assert not norms

    def test_returned_rows_are_the_csv_rows(self, tmp_path):
        # run returns the record that wrote the directory: its rows are the files' rows
        out = tmp_path / "run"
        config = runner.RunConfig(n=32, t_end=0.3, radius_cadence=2, radius_depth=20)
        art = runner.run(config, output_dir=str(out))
        assert len(art.radius_series) >= 2
        for name, rows in (
            ("steps.csv", [list(row.values()) for row in art.steps]),
            ("conservation.csv", [list(row) for row in art.conservation]),
            ("radius.csv", [list(row) for row in art.radius_series]),
        ):
            assert io.read_csv(str(out / name))[1] == rows

    @pytest.mark.parametrize(
        "method, order",
        [
            ({"method": "CL"}, None),
            ({"method": "RK4", "dt": 0.05}, 4),
            ({"method": "ET", "order": 6, "dt": 0.05}, 6),
            ({"method": "RK2", "dt": 0.05}, 2),
        ],
        ids=["CL", "RK4", "ET", "RK2"],
    )
    def test_step_rows_share_one_schema(self, tmp_path, method, order):
        # an Eulerian row takes the loop's defaults for what only CL
        # measures, and records the order of its own method
        out = tmp_path / "run"
        config = runner.RunConfig(**method, n=32, t_end=0.1, radius_cadence=0)
        runner.run(config, output_dir=str(out))
        header, rows = io.read_csv(str(out / "steps.csv"))
        assert header == [
            "step", "t", "dt", "dt_unclipped", "order",
            "truncation_term", "jacobian_min", "rejections",
        ]
        if order is None:
            return
        for row in rows:
            got = dict(zip(header, row))
            assert got["order"] == order
            assert got["truncation_term"] == 0.0
            assert got["jacobian_min"] == 1.0
            assert got["rejections"] == 0

    def test_auto_order_run(self):
        # the first step's order is the controller's choice for the initial
        # amplitude (14 for the four-mode flow at epsilon = 1e-12)
        config = runner.RunConfig(
            method="CL", n=64, t_end=0.5, order="auto", radius_cadence=0
        )
        art = runner.run(config)
        omega0 = runner.initial_vorticity(config)
        amplitude = spectral.norm_l2(spectral.velocity_from_vorticity(omega0))
        want = lagrangian.step_order_controller(config.epsilon, amplitude)
        assert art.steps[0]["order"] == want
        assert art.t == pytest.approx(0.5, abs=1e-12)

    def test_auto_order_records(self, tmp_path):
        # config.txt keeps the setting, the step rows the orders chosen
        config = runner.RunConfig(method="CL", n=32, t_end=0.1, order="auto")
        runner.run(config, output_dir=str(tmp_path))
        lines = (tmp_path / "config.txt").read_text().splitlines()
        assert "order=auto" in lines
        assert not any(line.startswith("auto_order") for line in lines)
        header, rows = io.read_csv(str(tmp_path / "steps.csv"))
        orders = [row[header.index("order")] for row in rows]
        assert orders and all(o == int(o) >= 2 for o in orders)

    def test_radius_cap_binds(self, monkeypatch):
        # a reported radius of 0.05 caps every step at 0.05 e^-2, well below
        # the truncation step of the four-mode flow
        report = diagnostics.FitReport(
            alpha=0.0, beta=-np.log(0.05), gamma=1.0, radius=0.05, fit_window=(1, 2)
        )
        monkeypatch.setattr(runner, "radius_probe", lambda omega, depth, grid: (report, [], grid))
        config = runner.RunConfig(method="CL", n=32, t_end=0.03, radius_cadence=1)
        art = runner.run(config)
        assert len(art.steps) == 5
        for rec in art.steps:
            assert rec["dt_unclipped"] == pytest.approx(0.05 * np.exp(-2.0), rel=1e-14)

    def test_radius_cap_outlives_failed_fits(self, monkeypatch):
        # only the probe at step 0 fits; the later probes return no report,
        # so every step stays capped by that first radius
        report = diagnostics.FitReport(
            alpha=0.0, beta=-np.log(0.05), gamma=1.0, radius=0.05, fit_window=(1, 2)
        )
        probes = []

        def probe(omega, depth, grid):
            probes.append(None)
            return (report if len(probes) == 1 else None), [1.0], grid

        monkeypatch.setattr(runner, "radius_probe", probe)
        config = runner.RunConfig(method="CL", n=32, t_end=0.03, radius_cadence=1)
        art = runner.run(config)
        assert len(art.steps) == len(probes) == 5
        assert [step for step, _, _ in art.radius_series] == [0]
        for rec in art.steps:
            assert rec["dt_unclipped"] == 0.05 * np.exp(-2.0)

    def test_failed_run_keeps_records(self, tmp_path, monkeypatch):
        # from the 4th call on every reversion fails, so step 4 is rejected
        # until MAX_REJECTIONS halvings are spent and the run fails
        calls = []
        revert = interpolation.cascade_revert

        def failing_revert(positions, vorticity):
            calls.append(None)
            if len(calls) >= 4:
                raise ReversionError("forced failure")
            return revert(positions, vorticity)

        monkeypatch.setattr(interpolation, "cascade_revert", failing_revert)
        out = tmp_path / "run"
        config = runner.RunConfig(method="CL", n=32, t_end=1.0, radius_cadence=0)
        with pytest.raises(ReversionError):
            runner.run(config, output_dir=str(out))
        header, rows = io.read_csv(str(out / "steps.csv"))
        assert [row[header.index("step")] for row in rows] == [1, 2, 3]
        assert (out / "conservation.csv").exists()

    def test_killed_run_keeps_its_rows(self, tmp_path):
        # each row is appended when it is made, so a SIGKILL, which gives
        # the process no chance to clean up, leaves every row written before it
        out = tmp_path / "killed"
        src = os.path.dirname(os.path.dirname(runner.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "euler2d.cli", "run", "--n", "32", "--t-end", "50",
             "--output-cadence", "1", "--output-dir", str(out)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        steps = out / "steps.csv"
        try:
            deadline = time.monotonic() + 60
            while not steps.exists() or steps.read_text().count("\n") < 4:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        whole = tmp_path / "whole"
        runner.run(runner.RunConfig(n=32, t_end=1.0, output_cadence=1), output_dir=str(whole))
        for name in ("steps.csv", "conservation.csv"):
            header, rows = io.read_csv(str(out / name))
            whole_header, whole_rows = io.read_csv(str(whole / name))
            assert header == whole_header
            assert all(len(row) == len(header) for row in rows)
            assert rows[-1][header.index("t")] < 50  # killed before its end
            # the whole run's last row is its step clipped at t_end = 1
            count = min(len(rows), len(whole_rows) - 1)
            assert count >= 3 and rows[:count] == whole_rows[:count]

    def test_record_csvs_start_afresh(self, tmp_path):
        # a directory with no fields/ holds no run; its old record files are
        # replaced, not appended to
        config = runner.RunConfig(method="RK4", dt=0.05, n=16, t_end=0.1)
        runner.run(config, output_dir=str(tmp_path / "new"))
        old = tmp_path / "old"
        old.mkdir()
        for name in ("steps.csv", "conservation.csv", "radius.csv"):
            (old / name).write_text("stale,header\n1,2\n")
        runner.run(config, output_dir=str(old))
        for name in ("steps.csv", "conservation.csv", "radius.csv"):
            assert (old / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    def test_one_taylor_stack_alive_at_a_time(self, monkeypatch):
        # at every build, the stacks of earlier steps and probes are gone
        built = []
        alive_at_entry = []
        build = lagrangian.build_stack

        def tracked(*args, **kwargs):
            alive_at_entry.append(
                sum(any(ref() is not None for ref in refs) for refs in built)
            )
            stack = build(*args, **kwargs)
            grads, _ = stack
            built.append([weakref.ref(g) for g in grads])
            return stack

        monkeypatch.setattr(lagrangian, "build_stack", tracked)
        config = runner.RunConfig(
            method="CL", order=8, n=64, t_end=0.25, radius_cadence=2, radius_depth=20
        )
        art = runner.run(config)
        probes = len(range(0, len(art.steps), 2))
        assert len(art.steps) >= 4
        assert len(built) == len(art.steps) + probes
        assert alive_at_entry == [0] * len(built)

    def test_compare_resolution_mismatch(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        runner.run(runner.RunConfig(method="CL", n=64, t_end=0.0), output_dir=a)
        runner.run(runner.RunConfig(method="CL", n=48, t_end=0.0), output_dir=b)
        with pytest.raises(ConfigError):
            runner.compare_dirs(a, b)

    def test_compare_dirs(self, tmp_path):
        config = runner.RunConfig(method="RK4", dt=0.05, n=64, t_end=0.2,
                                  output_cadence=2)
        runner.run(config, output_dir=str(tmp_path / "a"))
        runner.run(config, output_dir=str(tmp_path / "b"))
        header, rows = runner.compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert header[0] == "t"
        assert all(row[1] == 0.0 for row in rows)

    def test_compare_skips_partial_field(self, tmp_path):
        # a run killed mid-write leaves "<name>.field.tmp" in fields/
        config = runner.RunConfig(method="RK4", dt=0.05, n=32, t_end=0.1)
        for side in "ab":
            runner.run(config, output_dir=str(tmp_path / side))
        (tmp_path / "a" / "fields" / "omega_000004.field.tmp").write_bytes(b"EULER2D1 n=32")
        _, rows = runner.compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert [row[0] for row in rows] == [0.0, pytest.approx(0.1)]


class TestCli:
    def test_run_and_spectrum(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main([
            "run", "--method", "RK4", "--dt", "0.05", "--n", "64",
            "--t-end", "0.2", "--output-cadence", "2", "--output-dir", out,
        ])
        assert code == 0
        field = os.path.join(out, "fields", "omega_000000.field")
        code = cli.main(["spectrum", field, "--output-dir", str(tmp_path / "sp")])
        assert code == 0
        header, rows = io.read_csv(str(tmp_path / "sp" / "spectrum.csv"))
        assert header == ["K", "E_omega"]
        assert len(rows) > 3
        # the run's own spectrum of that state, up to the grid round trip,
        # shell by shell relative to the spectrum's largest shell
        run_header, run_rows = io.read_csv(os.path.join(out, "spectrum_000000.csv"))
        assert run_header == header
        run_rows = np.array(run_rows)
        np.testing.assert_allclose(rows, run_rows, rtol=0,
                                   atol=1e-12 * np.max(run_rows[:, 1]))

    def test_multi_component_field_exit_code(self, tmp_path, capsys):
        path = tmp_path / "v.field"
        header = "EULER2D1 n=16 c=2 t=+0.0".ljust(io.HEADER_LEN - 1) + "\n"
        path.write_bytes(header.encode() + bytes(8 * 2 * 16 * 16))
        code = cli.main(["spectrum", str(path), "--output-dir", str(tmp_path / "sp")])
        assert code == 2
        assert "c must be 1" in capsys.readouterr().err

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(lagrangian, "build_stack", exhausted)
        code = cli.main([
            "run", "--method", "CL", "--n", "32", "--order", "6", "--t-end", "0.1",
            "--radius-depth", "20", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 6
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "n=32" in err and "order 6" in err and "radius depth 20" in err
        # with no probe the depth plays no part, so the message leaves it out
        code = cli.main([
            "run", "--method", "CL", "--n", "32", "--order", "6", "--t-end", "0.1",
            "--radius-depth", "20", "--radius-cadence", "0",
            "--output-dir", str(tmp_path / "y"),
        ])
        assert code == 6
        err = capsys.readouterr().err
        assert "n=32" in err and "order 6" in err and "radius depth" not in err

    def test_compare_command(self, tmp_path):
        args = ["run", "--method", "RK4", "--dt", "0.05", "--n", "64",
                "--t-end", "0.2", "--output-cadence", "2"]
        assert cli.main(args + ["--output-dir", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--output-dir", str(tmp_path / "b")]) == 0
        code = cli.main([
            "compare", str(tmp_path / "a"), str(tmp_path / "b"),
            "--output-dir", str(tmp_path / "cmp"),
        ])
        assert code == 0
        assert (tmp_path / "cmp" / "discrepancy.csv").exists()

    def test_radius_command(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main([
            "run", "--method", "CL", "--n", "64", "--t-end", "0.1",
            "--radius-cadence", "1", "--radius-depth", "30",
            "--output-dir", out,
        ])
        assert code == 0
        norms_csv = os.path.join(out, "norms_000000.csv")
        assert cli.main(["radius", norms_csv, "--s-min", "8"]) == 0
        assert cli.main(["radius", norms_csv, "--s-max", "20"]) == 0

    def test_radius_matches_run_probe(self, tmp_path, capsys):
        # the offline fit reads the same orders as the run's own probe
        out = str(tmp_path / "cl")
        assert cli.main([
            "run", "--method", "CL", "--n", "32", "--t-end", "0.1", "--output-dir", out,
        ]) == 0
        _, rows = io.read_csv(os.path.join(out, "radius.csv"))
        assert rows[0][0] == 0
        capsys.readouterr()
        assert cli.main(["radius", os.path.join(out, "norms_000000.csv")]) == 0
        assert f"radius={rows[0][2]:.6f} " in capsys.readouterr().out

    def test_run_defaults_are_run_configs(self, tmp_path):
        cli_dir = tmp_path / "cli"
        assert cli.main(["run", "--t-end", "0", "--output-dir", str(cli_dir)]) == 0
        runner.run(runner.RunConfig(t_end=0.0), str(tmp_path / "lib"))
        want = (tmp_path / "lib" / "config.txt").read_text()
        assert (cli_dir / "config.txt").read_text() == want

    def test_run_flags_are_the_config_fields(self, tmp_path, capsys):
        sub = argparse.ArgumentParser().add_subparsers()
        cli._add_run_parser(sub)
        flags = {flag for action in sub.choices["run"]._actions for flag in action.option_strings}
        fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(runner.RunConfig)}
        assert flags - {"-h", "--help"} == fields | {"--output-dir"}
        # the fields/ files are the run's restart points: there is no checkpoint setting
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--t-end", "0.05", "--checkpoint-cadence", "1",
                      "--output-dir", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--checkpoint-cadence" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_radius_non_positive_norm_exit_code(self, tmp_path, capsys):
        norms_csv = str(tmp_path / "norms.csv")
        norms = [0.5, 0.25, 0.0, 0.0625, 0.03125, 0.015625]
        io.write_csv(norms_csv, ["s", "norm"], [[s + 1, f] for s, f in enumerate(norms)])
        assert cli.main(["radius", norms_csv, "--s-min", "1"]) == 2
        assert "non-positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window", [["--s-min", "0"], ["--s-min", "-2"], ["--s-max", "0"]],
        ids=["s_min_0", "s_min_negative", "s_max_0"],
    )
    def test_radius_window_exit_code(self, tmp_path, capsys, window):
        norms_csv = str(tmp_path / "norms.csv")
        io.write_csv(norms_csv, ["s", "norm"], [[s, 2.0**-s] for s in range(1, 13)])
        assert cli.main(["radius", norms_csv, *window]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        code = cli.main([
            "run", "--method", "RK4", "--t-end", "1.0",
            "--output-dir", str(tmp_path / "x"),
        ])  # RK4 without dt
        assert code == 2

    def test_negative_cadence_exit_code(self, tmp_path):
        code = cli.main([
            "run", "--method", "CL", "--n", "32", "--t-end", "0.1",
            "--output-cadence", "-1", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2
        assert not (tmp_path / "x").exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        code = cli.main([
            "run", "--method", "CL", "--n", "32", "--t-end", "0.1",
            "--initial", "random:-1", "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "'random:-1'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_recorded_in_initial(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["run", "--n", "32", "--t-end", "0.05", "--initial", "random:3",
                         "--output-dir", str(out)])
        assert code == 0
        lines = (out / "config.txt").read_text().splitlines()
        assert "initial=random:3" in lines
        assert not [line for line in lines if line.startswith("seed")]
        # the seed is no setting of its own
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--t-end", "0.05", "--seed", "3",
                      "--output-dir", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--seed 3" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "CL", "--t-end", "nan"],
            ["--method", "RK4", "--t-end", "inf", "--dt", "0.01"],
            ["--method", "CL", "--t-end", "0.1", "--epsilon", "nan"],
            ["--method", "RK4", "--t-end", "0.1", "--dt", "nan"],
        ],
    )
    def test_non_finite_setting_exit_code(self, tmp_path, args):
        code = cli.main(["run", "--n", "32", *args, "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x").exists()

    def test_output_dir_is_a_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        code = cli.main([
            "run", "--method", "RK4", "--dt", "0.1", "--n", "16", "--t-end", "0.1",
            "--output-dir", str(path),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_files_exit_code(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("")
        code = cli.main([
            "compare", str(path), str(path), "--output-dir", str(tmp_path / "cmp"),
        ])
        assert code == 2
        assert not (tmp_path / "cmp").exists()
        # a run against a directory that does not exist: both are read first
        run = str(tmp_path / "run")
        runner.run(runner.RunConfig(method="RK4", dt=0.05, n=16, t_end=0.1), output_dir=run)
        code = cli.main([
            "compare", run, str(tmp_path / "missing"), "--output-dir", str(tmp_path / "cmp"),
        ])
        assert code == 2
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize(
        "text", ["s,norm\n1,0.5\n2,abc\n", "s\n1\n2\n", ""],
        ids=["not_numeric", "missing_column", "empty"],
    )
    def test_radius_bad_csv_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert cli.main(["radius", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_order_zero_exit_code(self, tmp_path):
        code = cli.main([
            "run", "--method", "CL", "--order", "0", "--n", "32", "--t-end", "0.1",
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--method", "ET", "--order", "auto", "--dt", "0.05"], "order=auto"),
            (["--method", "CL", "--dt", "0.01"], "CL chooses its own steps"),
        ],
    )
    def test_inconsistent_setting_exit_code(self, tmp_path, capsys, args, message):
        # an order or a dt that the run would not use
        code = cli.main(["run", "--n", "32", "--t-end", "0.05", *args,
                         "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_initial_exit_code(self, tmp_path, capsys):
        code = cli.main(["run", "--n", "32", "--t-end", "0.05", "--initial", "no-such-flow",
                         "--output-dir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'no-such-flow'" in err and "four_mode" in err
        assert not (tmp_path / "x").exists()

    def test_file_initial_recorded(self, tmp_path):
        zero = str(tmp_path / "zero.field")
        io.write_field(zero, np.zeros((32, 32)), 0.0)
        out = tmp_path / "run"
        code = cli.main(["run", "--n", "32", "--t-end", "0.05", "--initial", zero,
                         "--output-dir", str(out)])
        assert code == 0
        # one line for the initial condition: the path as given
        lines = (out / "config.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("initial")] == [f"initial={zero}"]

    def test_output_dir_holding_a_run_exit_code(self, tmp_path, capsys):
        # a second run into the directory would mix its files with the first's
        out = tmp_path / "run"
        args = ["run", "--method", "RK4", "--dt", "0.1", "--n", "32", "--output-cadence", "2",
                "--output-dir", str(out)]
        assert cli.main(args + ["--t-end", "0.5"]) == 0
        before = {name: (out / name).read_bytes() for name in ("config.txt", "steps.csv")}
        assert cli.main(args + ["--t-end", "0.2"]) == 2
        assert f"{out} already holds a run" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_bad_order_names_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--order", "x", "--t-end", "0.1",
                      "--output-dir", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--order" in err and "'x'" in err

    def test_oversized_step_is_halved(self, tmp_path):
        # at epsilon=10 the order-2 step moves particles past half a period;
        # the step is halved as for a failed reversion
        out = tmp_path / "run"
        code = cli.main([
            "run", "--method", "CL", "--order", "2", "--epsilon", "10",
            "--n", "32", "--t-end", "5", "--radius-cadence", "0",
            "--output-dir", str(out),
        ])
        assert code == 0
        header, rows = io.read_csv(str(out / "steps.csv"))
        rejections = [row[header.index("rejections")] for row in rows]
        assert max(rejections) > 0

    def test_step_too_large_exit_code(self, tmp_path, capsys):
        # a dt of ~1000 stays beyond half a period after MAX_REJECTIONS halvings
        code = cli.main([
            "run", "--method", "CL", "--order", "2", "--epsilon", "1e8",
            "--n", "32", "--t-end", "1000", "--radius-cadence", "0",
            "--output-dir", str(tmp_path / "run"),
        ])
        assert code == 3
        assert "half a period" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_run_that_cannot_finish_exit_code(self, tmp_path, capsys, order):
        # at the default epsilon the first step is 9.8e-13 (order 1) or
        # 1.6e-6 (order 2): ~1e12 or ~6e5 steps to t_end, past MAX_STEPS
        out = tmp_path / "run"
        start = time.monotonic()
        code = cli.main([
            "run", "--order", order, "--n", "32", "--t-end", "1", "--output-dir", str(out),
        ])
        assert time.monotonic() - start < 1.0
        assert code == 3
        assert "MAX_STEPS" in capsys.readouterr().err
        _, rows = io.read_csv(str(out / "steps.csv"))
        assert len(rows) == 1

    def test_truncated_field_exit_code(self, tmp_path):
        path = tmp_path / "cut.field"
        io.write_field(path, np.zeros((16, 16)), 0.0)
        path.write_bytes(path.read_bytes()[:500])
        code = cli.main(["spectrum", str(path), "--output-dir", str(tmp_path / "sp")])
        assert code == 2

    def test_non_finite_field_exit_code(self, tmp_path, capsys):
        # a field holding a NaN is an input error: run stops before it makes
        # the output directory, and spectrum writes nothing
        g = np.zeros((32, 32))
        g[7, 11] = np.nan
        path = str(tmp_path / "nan.field")
        io.write_field(path, g, 0.0)
        code = cli.main([
            "run", "--method", "CL", "--n", "32", "--t-end", "0.1",
            "--initial", path,
            "--output-dir", str(tmp_path / "run"),
        ])
        assert code == 2
        assert not (tmp_path / "run").exists()
        code = cli.main(["spectrum", path, "--output-dir", str(tmp_path / "sp")])
        assert code == 2
        assert not (tmp_path / "sp").exists()
        assert capsys.readouterr().err.count("non-finite") == 2

    def test_other_solver_error_exit_code(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise Euler2DError("not one of the mapped failures")

        monkeypatch.setattr(runner, "run", fail)
        code = cli.main(["run", "--t-end", "1", "--output-dir", str(tmp_path / "x")])
        assert code == 5

    @pytest.mark.parametrize("cadence", [[], ["--radius-cadence", "0"], ["--order", "auto"]])
    def test_rest_state_run(self, tmp_path, cadence):
        # zero norms put no bound on dt (dt_unclipped is inf): the run takes
        # one step to t_end.  --order auto picks order 2 for the zero amplitude.
        zero = str(tmp_path / "zero.field")
        io.write_field(zero, np.zeros((32, 32)), 0.0)
        out = tmp_path / "run"
        code = cli.main([
            "run", "--method", "CL", "--n", "32", "--t-end", "0.1",
            "--initial", zero, "--output-dir", str(out),
        ] + cadence)
        assert code == 0
        header, rows = io.read_csv(str(out / "steps.csv"))
        assert [row[header.index("t")] for row in rows] == [pytest.approx(0.1)]
        assert [row[header.index("dt_unclipped")] for row in rows] == [np.inf]
        values, t = io.read_field(str(out / "fields" / "omega_000001.field"))
        assert t == pytest.approx(0.1)
        assert np.all(values == 0.0)

    def test_missing_file_exit_code(self, tmp_path):
        code = cli.main([
            "spectrum", str(tmp_path / "nope.field"),
            "--output-dir", str(tmp_path / "sp"),
        ])
        assert code == 2


def test_radius_probe_reports_fit():
    report, norms, grid = runner.radius_probe(runner.make_four_mode(128), depth=30)
    assert report is not None
    assert len(norms) == 30
    assert grid == 128
    assert 0.8 < report.radius < 1.6


def test_radius_probe_keeps_only_norms():
    # the depth-40 probe holds its gradient grids, not its coefficients; at
    # n = 256 and 512 the four-mode stack is resolved on, and held at, the
    # 128 grid
    for n, grid in ((64, 64), (256, 128), (512, 128)):
        omega = runner.make_four_mode(n)
        runner.radius_probe(omega, 13)  # fill the transform caches first
        tracemalloc.start()
        try:
            runner.radius_probe(omega, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (40 * 2 * 2 * grid * grid * 8), f"n={n}"


def _stack_grids(monkeypatch, depth=None):
    """The grid size of each lagrangian.build_stack call (of the given
    depth, if one is given), in call order."""
    grids = []
    build = lagrangian.build_stack

    def spy(omega, order):
        if depth in (None, order):
            grids.append(omega.shape[-2])
        return build(omega, order)

    monkeypatch.setattr(lagrangian, "build_stack", spy)
    return grids


def _random0(n):
    return runner.initial_vorticity(runner.RunConfig(initial="random:0", n=n))


@pytest.fixture(scope="module")
def random0_norms():
    """The norms of the depth-40 stack of random:0 built on the 256 grid."""
    return lagrangian.build_stack(_random0(256), 40)[1]


class TestRadiusProbeGrid:
    # the probe's grids are n/2^k from 128 up, so n = 256 tries the half grid
    # alone and n = 512 tries 128, then 256
    def test_resolved_stack_stays_on_the_half_grid(self, monkeypatch):
        omega = runner.make_four_mode(256)
        _, full = lagrangian.build_stack(omega, 40)
        want = diagnostics.fit_radius(full).radius
        grids = _stack_grids(monkeypatch)
        report, norms, grid = runner.radius_probe(omega, 40)
        assert grids == [128]
        assert grid == 128
        assert len(norms) == 40
        assert report.radius == pytest.approx(want, rel=1e-5)

    def test_unresolved_stack_falls_back_to_the_full_grid(self, monkeypatch, random0_norms):
        grids = _stack_grids(monkeypatch)
        _, norms, grid = runner.radius_probe(_random0(256), 40)
        assert grids == [128, 256]
        assert grid == 256
        np.testing.assert_array_equal(norms, random0_norms)

    def test_rest_state_stays_on_the_half_grid(self, monkeypatch):
        # a zero stack has no energy in the band: the half grid resolves it
        grids = _stack_grids(monkeypatch)
        report, norms, grid = runner.radius_probe(np.zeros((256, 129), dtype=complex), 40)
        assert grids == [128]
        assert grid == 128
        assert report is None
        np.testing.assert_array_equal(norms, np.zeros(40))

    def test_no_half_grid_below_256(self, monkeypatch):
        grids = _stack_grids(monkeypatch)
        runner.radius_probe(runner.make_four_mode(128), 40)
        assert grids == [128]

    @pytest.mark.parametrize("depth", [0, 12])
    def test_depth_too_shallow_to_fit(self, monkeypatch, depth):
        # below RADIUS_S_MIN + 3 no fit is possible, so no coarse grid is tried
        omega = runner.make_four_mode(256)
        _, want = lagrangian.build_stack(omega, depth)
        grids = _stack_grids(monkeypatch)
        report, norms, grid = runner.radius_probe(omega, depth)
        assert report is None
        assert grids == [256]
        assert grid == 256
        np.testing.assert_array_equal(norms, want)

    def test_resolved_at_512_on_the_floor_grid(self, monkeypatch):
        # the four-mode flow is one field at every n, so the 512 probe's 128
        # stack is the 256 probe's
        _, want, _ = runner.radius_probe(runner.make_four_mode(256), 40)
        grids = _stack_grids(monkeypatch)
        _, norms, grid = runner.radius_probe(runner.make_four_mode(512), 40)
        assert grids == [128]
        assert grid == 128
        np.testing.assert_array_equal(norms, want)

    def test_unresolved_at_512_climbs_the_ladder(self, monkeypatch, random0_norms):
        grids = _stack_grids(monkeypatch)
        _, norms, grid = runner.radius_probe(_random0(512), 40)
        assert grids == [128, 256]
        assert grid == 256
        np.testing.assert_array_equal(norms, random0_norms)

    def test_starts_at_the_given_grid(self, monkeypatch, random0_norms):
        grids = _stack_grids(monkeypatch)
        _, norms, grid = runner.radius_probe(_random0(512), 40, grid=256)
        assert grids == [256]
        assert grid == 256
        np.testing.assert_array_equal(norms, random0_norms)

    def test_run_keeps_the_grid_of_its_last_probe(self, monkeypatch):
        # random:0 at 256 needs the full grid from the first probe on, so
        # only that probe tries the 128 grid (3 steps to t = 0.05)
        grids = _stack_grids(monkeypatch, depth=40)
        config = runner.RunConfig(
            initial="random:0", n=256, t_end=0.05, radius_cadence=1, output_cadence=0
        )
        art = runner.run(config)
        assert len(art.steps) == 3
        assert grids == [128, 256, 256, 256]

    def test_cli_depth_zero_at_256(self, tmp_path):
        code = cli.main([
            "run", "--method", "CL", "--n", "256", "--t-end", "0.01",
            "--radius-cadence", "1", "--radius-depth", "0",
            "--output-dir", str(tmp_path / "run"),
        ])
        assert code == 0
