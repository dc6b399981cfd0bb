"""Experiment orchestration: initial conditions, the multistep loop, I/O.

One Lagrangian step: build the displacement Taylor stack from the
vorticity, take dt from lagrangian.choose_step (norms[S] * dt^S <
epsilon, capped by R*e^-2 for the latest fitted radius R) clipped at t_end,
evaluate the truncated series to particle positions, check monotonicity,
revert the step's initial vorticity grid from those positions by cascade
interpolation, restart from the new Eulerian field.  Eulerian methods march
with the fixed dt of RunConfig.dt, each stepper mapping the spectral
vorticity to the next.
The stages pass plain arrays.  One loop, ``_march``, drives every method
and owns t and the step rows; ``_run_cl`` and ``_run_eulerian`` only supply
its per-step ``advance``.  ``_run_cl``'s ``advance`` runs the radius probe
when it falls due, then takes the whole Lagrangian step.  That closure holds
the latest fitted R (inf, no cap, until a fit succeeds) and the grid of the
latest probe, where the next starts: a probe's grid only grows in a run.
``run`` returns the ``RunArtifacts`` that recorded the run.  It writes each
file, and each row of steps.csv, conservation.csv and radius.csv, when the
run makes it, so a run that is killed keeps its record up to that point.
The files of fields/ are the restart points: step in the name, t in the header.

A step's Taylor stack (the grid gradients and norms of its coefficients,
not the coefficients), particle positions and reverted grid are locals of
that ``advance``, so they are freed when the step returns, before the next
step (or radius probe) builds its stack.  The radius probe keeps only the
norms of its deep stack, built on the coarsest grid that resolves it.

``run`` sets glibc's allocator policy for the whole process (see
``_hold_freed_heap``): blocks under 32 MiB come from the heap, and its free
top goes back to the kernel only above 64 MiB.  The setting is
process-global and stays after ``run`` returns.  On a libc without
``mallopt`` nothing is set; where ``mallopt`` rejects the values (as
musl's stub does) ``run`` warns with a ``RuntimeWarning``.
"""

import contextlib
import ctypes
import numbers
import os
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from . import diagnostics, eulerian, interpolation, io, lagrangian, spectral
from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericalError,
    ReversionError,
    StepTooLargeError,
)

METHODS = ("CL", "RK2", "RK4", "ET")
INITIALS = ("four_mode", "random", "ab")

MAX_REJECTIONS = 5
# a run may take at most this many steps: RunConfig.validate rejects a fixed
# dt that needs more, and _march stops a run whose step would need more
MAX_STEPS = 100_000
# random-flow modes below this modulus are left at zero
MODULUS_FLOOR = 1e-18
# the random flow's phases are drawn over |k1|, |k2| <= this cutoff, the
# dealias square of n = 256, at every n
RANDOM_LATTICE_CUTOFF = 85
# a radius probe keeps a coarse-grid stack when the deepest coefficient holds
# at most this share of its gradient energy within 4 modes of that grid's cutoff
BAND_SHARE = 1e-3
# the coarsest grid a radius probe tries: no depth-40 stack has been resolved at 64
PROBE_GRID_FLOOR = 128

# glibc mallopt (M_MMAP_THRESHOLD, 32 MiB) and (M_TRIM_THRESHOLD, 64 MiB)
_HEAP_POLICY = ((-3, 32 << 20), (-1, 64 << 20))


@dataclass
class RunConfig:
    method: str = "CL"
    order: int | str = 8  # or "auto": CL picks each step's order
    n: int = 256
    epsilon: float = 1e-12
    dt: float | None = None  # fixed step of RK2/RK4/ET; CL takes none
    t_end: float = 1.0
    initial: str = "four_mode"  # a flow of INITIALS or random:<seed>, else a field file
    output_cadence: int = 10
    radius_cadence: int = 10
    radius_depth: int = 40

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if _flow(self.initial) is None and not os.path.isfile(self.initial):
            raise ConfigError(f"initial {self.initial!r}: not a flow {INITIALS}, "
                              "random:<seed> nor a field file")
        if self.order == "auto" and self.method != "CL":
            raise ConfigError(f"order=auto is for CL, not {self.method}")
        if self.order != "auto" and not (_integer(self.order) and self.order >= 1):
            raise ConfigError(f"order must be 'auto' or an integer >= 1, not {self.order!r}")
        if not (_integer(self.n) and self.n >= 16):
            raise ConfigError(f"n must be an integer >= 16, not {self.n!r}")
        # chained comparisons are False for NaN as well
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError("epsilon must be positive and finite")
        if not 0.0 <= self.t_end < np.inf:
            raise ConfigError("t_end must be nonnegative and finite")
        if self.dt is not None and not 0.0 <= self.dt < np.inf:
            raise ConfigError("dt must be nonnegative and finite")
        if self.method == "CL" and self.dt is not None:
            raise ConfigError("CL chooses its own steps: dt is for RK2, RK4 and ET")
        if self.method in ("RK2", "RK4", "ET") and self.t_end > 0 and not self.dt:
            raise ConfigError(f"{self.method} requires a fixed dt")
        if self.dt and self.t_end / self.dt > MAX_STEPS:
            raise ConfigError(f"t_end/dt = {self.t_end / self.dt:.3g} steps, "
                              f"more than MAX_STEPS={MAX_STEPS}")
        for name in ("output_cadence", "radius_cadence", "radius_depth"):
            value = getattr(self, name)
            if not (_integer(value) and value >= 0):
                raise ConfigError(f"{name} must be an integer >= 0, not {value!r}")


def _integer(value):
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def make_four_mode(n):
    """cos a + cos b + 0.6 cos 2a + 0.2 cos 3a, as exact spectral modes."""
    if n < 8:
        raise ConfigError("four-mode flow needs n >= 8")
    s = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for k, amp in ((1, 1.0), (2, 0.6), (3, 0.2)):
        s[k, 0] = amp / 2.0
        s[-k, 0] = amp / 2.0
    s[0, 1] = 0.5
    return s


def make_ab_flow(n):
    """sin a cos b: steady vorticity of the 2D Euler equation."""
    s = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    s[1, 1] = -0.25j
    s[-1, 1] = 0.25j
    return s


def make_random_flow(n, seed):
    """Shell-prescribed moduli 2 K^(7/2) e^(-K^2/4) / N(K), random phases.

    Phases are i.i.d. uniform on [0, 2pi) from a seeded PCG64 generator,
    drawn in a fixed lattice order over the square |k1|, |k2| <=
    RANDOM_LATTICE_CUTOFF, whose shells also give N(K); opposite
    wavevectors are conjugate so the field is real.  That one lattice field
    is filled on a grid that holds it, and the field at n is its
    spectral.truncate to n.  Of each pair, the member with k2 >= 0 is
    stored (both when k2 = 0).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    kc = RANDOM_LATTICE_CUTOFF
    m = max(n, 3 * kc + 1)
    s = np.zeros((m, m // 2 + 1), dtype=np.complex128)
    # members of each shell K <= |k| < K+1 inside the lattice square
    k = np.arange(-kc, kc + 1)
    shells = np.floor(np.hypot(k[:, None], k)).astype(np.int64)
    counts = np.bincount(shells.ravel())
    moduli = np.array([2.0 * K**3.5 * np.exp(-(K**2) / 4.0) / counts[K] for K in range(kc + 1)])
    # the half lattice (k1 > 0, or k1 == 0 and k2 > 0) in k1-major order,
    # shells 1..kc: one phase per member, drawn in that order
    k1, k2 = np.meshgrid(np.arange(kc + 1), k, indexing="ij")
    shell = shells[kc:]
    member = ((k1 > 0) | (k2 > 0)) & (shell <= kc)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=np.count_nonzero(member))
    modulus = moduli[shell[member]]
    kept = modulus >= MODULUS_FLOOR
    k1, k2 = k1[member][kept], k2[member][kept]
    value = modulus[kept] * np.exp(1j * phase[kept])
    upper = k2 >= 0
    s[k1[upper], k2[upper]] = value[upper]
    lower = k2 <= 0
    s[-k1[lower] % m, -k2[lower]] = np.conj(value[lower])
    return spectral.truncate(s, n)


def _flow(initial):
    """The maker n -> spectral vorticity of the flow that initial names, or None."""
    name, _, seed = initial.partition(":")
    if initial == "random" or name == "random" and seed.isascii() and seed.isdigit():
        return lambda n: make_random_flow(n, int(seed or 0))
    return {"four_mode": make_four_mode, "ab": make_ab_flow}.get(initial)


def initial_vorticity(config):
    make = _flow(config.initial)
    if make is not None:
        omega = make(config.n)
    else:
        values, _ = io.read_field(config.initial)
        if values.shape != (config.n, config.n):
            raise ConfigError(
                f"initial field shape {values.shape} does not match n={config.n}"
            )
        omega = spectral.forward(values)
    omega = spectral.dealias(omega)
    omega[0, 0] = 0.0
    return omega


def radius_probe(omega, depth, grid=PROBE_GRID_FLOOR):
    """Fit the L2-norm series of a deep displacement stack; returns
    (FitReport or None, norm sequence, grid size m of the stack).

    At a depth that fit_radius can fit, the stack is built from omega truncated
    to each grid m = n/2^k >= max(grid, PROBE_GRID_FLOOR), k >= 1, coarse to
    fine, and the first that _resolved accepts is kept; otherwise it is built
    on the full grid m = n.  A run passes its last probe's m as grid.
    """
    n = omega.shape[-2]
    coarsest = max(grid, PROBE_GRID_FLOOR) if depth >= diagnostics.RADIUS_S_MIN + 3 else n
    for m in [n >> k for k in range(n.bit_length(), 0, -1) if n >> k >= coarsest] + [n]:
        grads, norms = lagrangian.build_stack(spectral.truncate(omega, m), depth)
        if m == n or _resolved(grads[-1]):
            break
        del grads  # freed before the next grid's stack is built
    try:
        return diagnostics.fit_radius(norms), norms, m
    except InsufficientDataError:
        return None, norms, m


def _resolved(g):
    """Whether at most BAND_SHARE of sum |g_k|^2, over the components of the
    (2, 2, m, m) gradient grids g, lies in the band max(|k1|, |k2|) >
    dealias_cutoff(m) - 4 (so g = 0 is resolved)."""
    m = g.shape[-1]
    k1, k2 = spectral.wavegrid(m)
    band = np.maximum(np.abs(k1), k2) > spectral.dealias_cutoff(m) - 4
    g_hat = spectral.forward(g)
    power = spectral.half_plane_weights(m) * (g_hat.real**2 + g_hat.imag**2)
    return np.sum(power[..., band]) <= BAND_SHARE * np.sum(power)


class RunArtifacts:
    """A run's record, which ``run`` returns: its config, rows and latest
    recorded state (omega, t, the final state once the run ends) and, when
    given an output directory, the files it writes there."""

    def __init__(self, config, omega, output_dir):
        self.config = config
        self.steps = []
        self.conservation = []  # (step, t, E, Z)
        self.radius_series = []  # (step, t, radius)
        self.dir = output_dir
        try:
            self._write("fields", os.makedirs)
        except FileExistsError:
            raise FileExistsError(f"{output_dir} already holds a run") from None
        settings = {k: v for k, v in asdict(config).items() if v is not None}
        self._write("config.txt", io.write_config, settings)
        self._write("radius.csv", io.write_csv, ["step", "t", "radius"], [])
        for name in ("conservation.csv", "steps.csv"):  # rows are appended: start empty
            with contextlib.suppress(FileNotFoundError):
                self._write(name, os.remove)
        self.state(0, omega, 0.0)

    def _write(self, name, write, *args, **kwargs):
        """write(path, ...) for name under the output directory, if there is one."""
        if self.dir is not None:
            write(os.path.join(self.dir, name), *args, **kwargs)

    def state(self, step, omega, t):
        """Record the state at t: its conservation row, field file and spectrum."""
        self.omega, self.t = omega, t
        row = (step, t, diagnostics.energy(omega), diagnostics.enstrophy(omega))
        self.conservation.append(row)
        self._write("conservation.csv", io.append_csv, ["step", "t", "energy", "enstrophy"], row)
        self._write(f"fields/omega_{step:06d}.field", _write_grid, omega, t)
        self._write(f"spectrum_{step:06d}.csv", _write_spectrum, omega)

    def probe(self, step, t, report, norms):
        """Norms of a radius probe, and its radius when the fit succeeded."""
        rows = enumerate(norms, 1)
        self._write(f"norms_{step:06d}.csv", io.write_csv, ["s", "norm"], rows)
        if report is not None:
            row = (step, t, report.radius)
            self.radius_series.append(row)
            self._write("radius.csv", io.append_csv, ["step", "t", "radius"], row)

    def step(self, row):
        """A step row; steps.csv takes its header from the first row's keys."""
        self.steps.append(row)
        self._write("steps.csv", io.append_csv, list(row), row.values())


def _write_grid(path, omega, t):
    io.write_field(path, spectral.inverse(omega, check=False), t)


def _write_spectrum(path, omega):
    """Write the enstrophy shells of spectral omega as a CSV; return them."""
    shells = diagnostics.vorticity_spectrum(omega)
    io.write_csv(path, ["K", "E_omega"], list(enumerate(shells)))
    return shells


def _hold_freed_heap():
    """Keep the step loop's freed temporaries mapped between steps.

    Each step allocates and frees arrays of 0.5-1 MiB (FFT intermediates,
    velocity and gradient stacks, products).  glibc's dynamic threshold puts
    them on the heap, then trims any free heap top above ~2 MiB, so every
    step faults the same pages in again and the kernel zeroes them again.
    Setting both thresholds turns the dynamic threshold off (setting only
    one does not stop the faults).  Setting the same values again changes
    nothing.  Returns whether the policy is in force: False where mallopt
    does not resolve (not glibc) or rejects a value, which warns once.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    rejected = [param for param, value in _HEAP_POLICY if mallopt(param, value) != 1]
    if rejected:
        warnings.warn(f"mallopt rejected params {rejected}", RuntimeWarning)
    return not rejected


def run(config, output_dir=None):
    """Execute a run and return its RunArtifacts (writing files when asked).

    Sets the process-wide allocator policy of ``_hold_freed_heap`` first.
    """
    config.validate()
    _hold_freed_heap()
    omega = initial_vorticity(config)
    record = RunArtifacts(config, omega, output_dir)
    method = _run_cl if config.method == "CL" else _run_eulerian
    method(config, omega, record)
    return record


def _march(config, omega, advance, record):
    """The step loop of every method, from t = 0 to t_end.

    advance(omega, step, t) -> (omega, dt, fields) takes step number
    step + 1; fields holds the step-row entries that the method knows, over
    the defaults below.  The loop owns t, the step count, the step rows, the
    output cadence and the record of the final state.  It
    raises NumericalError after a step whose dt would take the run past
    MAX_STEPS steps before t_end.
    """
    t = 0.0
    step = 0
    while t < config.t_end - 1e-12:
        omega, dt, fields = advance(omega, step, t)
        t += dt
        step += 1
        row = {
            "step": step, "t": t, "dt": dt, "dt_unclipped": config.dt,
            "order": config.order, "truncation_term": 0.0,
            "jacobian_min": 1.0, "rejections": 0, **fields,
        }
        record.step(row)
        if config.output_cadence and step % config.output_cadence == 0:
            record.state(step, omega, t)
        left = config.t_end - t  # the loop's own tolerance spares a run's last step
        if left > max((MAX_STEPS - step) * dt, 1e-12):
            count = left / dt if dt > 0 else np.inf
            raise NumericalError(
                f"order {row['order']} at dt={dt:.3g} needs {count:.3g} more steps to "
                f"t_end={config.t_end:g}: past MAX_STEPS={MAX_STEPS} after step {step}"
            )
    if record.t != t:
        record.state(step, omega, t)


def _run_cl(config, omega, record):
    radius, grid = np.inf, PROBE_GRID_FLOOR  # the latest fitted radius and probe grid

    def advance(omega, step, t):
        """Probe when due, then take Lagrangian step number step + 1 from (omega, t)."""
        nonlocal radius, grid
        if config.radius_cadence and step % config.radius_cadence == 0:
            report, norms, grid = radius_probe(omega, config.radius_depth, grid)
            record.probe(step, t, report, norms)
            if report is not None:
                radius = report.radius
        if config.order == "auto":
            amplitude = spectral.norm_l2(spectral.velocity_from_vorticity(omega))
            order = lagrangian.step_order_controller(config.epsilon, amplitude)
        else:
            order = config.order
        grads, norms = lagrangian.build_stack(omega, order)
        dt_raw = lagrangian.choose_step(norms, config.epsilon, radius)
        dt = min(dt_raw, config.t_end - t)

        omega_grid = spectral.inverse(omega, check=False)
        rejections = 0
        while True:
            try:
                positions, jac = lagrangian.evaluate_displacement(grads, dt)
                reverted = interpolation.cascade_revert(positions, omega_grid)
                break
            except (StepTooLargeError, ReversionError):
                rejections += 1
                if rejections > MAX_REJECTIONS:
                    raise
                dt *= 0.5

        new_omega = spectral.dealias(spectral.forward(reverted))
        new_omega[0, 0] = 0.0
        if not np.all(np.isfinite(new_omega.view(np.float64))):
            raise NumericalError(f"non-finite vorticity after step {step + 1}")
        return new_omega, dt, {
            "dt_unclipped": dt_raw,
            "order": order,
            "truncation_term": norms[-1] * dt**order,
            "jacobian_min": float(np.min(jac)),
            "rejections": rejections,
        }

    _march(config, omega, advance, record)


def _run_eulerian(config, omega, record):
    # each row records the method's own order; RunConfig.order is ET's
    stepper, fields = {
        "RK2": (eulerian.rk2_step, {"order": 2}),
        "RK4": (eulerian.rk4_step, {"order": 4}),
        "ET": (lambda omega, dt: eulerian.et_step(omega, dt, config.order), {}),
    }[config.method]

    def advance(omega, step, t):
        dt = min(config.dt, config.t_end - t)
        return stepper(omega, dt), dt, fields

    _march(config, omega, advance, record)


def compare_dirs(dir_a, dir_b):
    """Per-time discrepancy (header, rows) from the *.field files of two run directories."""

    def load(d):
        fdir = os.path.join(d, "fields")
        out = {}
        for name in sorted(n for n in os.listdir(fdir) if n.endswith(".field")):
            values, t = io.read_field(os.path.join(fdir, name))
            out[round(t, 10)] = values
        return out

    fa = load(dir_a)
    fb = load(dir_b)
    common = sorted(set(fa) & set(fb))
    if not common:
        raise ConfigError("no matching output times between runs")
    rows = []
    for t in common:
        a, b = fa[t], fb[t]
        if a.shape != b.shape:
            raise ConfigError("resolution mismatch between runs")
        sa = spectral.forward(a)
        sb = spectral.forward(b)
        sa[0, 0] = 0.0
        sb[0, 0] = 0.0
        rows.append(
            [
                t,
                diagnostics.max_discrepancy(a, b),
                abs(diagnostics.energy(sa) - diagnostics.energy(sb)),
                abs(diagnostics.enstrophy(sa) - diagnostics.enstrophy(sb)),
            ]
        )
    return ["t", "max_discrepancy", "energy_error", "enstrophy_error"], rows
