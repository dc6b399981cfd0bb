"""Semi-Lagrangian reversion of the vorticity to the uniform grid.

The cascade kernel is the numpy one in `_cascade_py`: three sweeps of 1D
12-point Lagrange interpolation, 6 points on each side of the target.
"""

import numpy as np

from . import _cascade_py, spectral
from .errors import ReversionError

# perfbench/kernels.py records this name with each run, and perfbench/run.py
# reads the kernel's timing under "<KERNEL>_ms".
KERNEL = "python"

TWO_PI = 2.0 * np.pi


def check_monotonicity(positions):
    """Verify y(a_i, b) increases strictly along every vertical line.

    Returns (ok, report) where the report lists violating line indices;
    never raises, the caller decides how to react.
    """
    y = positions[1]
    interior = np.diff(y, axis=1) > 0.0
    wrap = y[:, 0] + TWO_PI - y[:, -1] > 0.0
    ok_lines = interior.all(axis=1) & wrap
    violating = np.nonzero(~ok_lines)[0].tolist()
    return len(violating) == 0, violating


def cascade_revert(positions, vorticity):
    """Interpolate the vorticity carried to positions back to the uniform grid.

    In 2D the Lagrangian vorticity equals the step's initial grid samples.
    Raises ReversionError on monotonicity violation (either direction of
    the hybrid construction).
    """
    ok, report = check_monotonicity(positions)
    if not ok:
        raise ReversionError(
            f"monotonicity violated on {len(report)} vertical line(s)", report=report
        )
    x, y = positions
    try:
        return _cascade_py.cascade(
            np.ascontiguousarray(x),
            np.ascontiguousarray(y),
            np.ascontiguousarray(vorticity),
        )
    except ValueError as exc:
        raise ReversionError(str(exc)) from exc


def slow_fourier_check(reverted, positions, vorticity, sample_points):
    """Direct Fourier-series evaluation at distorted-grid sample points.

    reverted: spectral field of the reverted vorticity.  sample_points:
    iterable of (i, j) grid indices.  Returns the max absolute mismatch
    against the vorticity carried to positions.
    """
    sample_points = list(sample_points)
    if not sample_points:
        return 0.0
    n = reverted.shape[-2]
    k1, k2 = spectral.wavegrid(n)
    weighted = spectral.half_plane_weights(n) * reverted
    worst = 0.0
    for i, j in sample_points:
        xp, yp = positions[:, i, j]
        val = np.real(np.sum(weighted * np.exp(1j * (k1 * xp + k2 * yp))))
        worst = max(worst, abs(val - vorticity[i, j]))
    return worst
