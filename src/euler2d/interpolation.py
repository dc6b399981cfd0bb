"""Semi-Lagrangian reversion of the vorticity to the uniform grid.

`cascade_revert` calls the numpy kernel in `_cascade_py`, which also owns the
monotonicity rule.  `slow_fourier_check` is the paper's slow Fourier check.
"""

import numpy as np

from . import _cascade_py, spectral

# perfbench/kernels.py records this name with each run, and perfbench/run.py
# reads the kernel's timing under "<KERNEL>_ms".
KERNEL = "python"


def cascade_revert(positions, vorticity):
    """Interpolate the vorticity carried to positions back to the uniform grid.

    In 2D the Lagrangian vorticity equals the step's initial grid samples.
    Raises ReversionError when either sweep of the cascade meets a fold.
    """
    x, y = positions
    return _cascade_py.cascade(x, y, vorticity)


def slow_fourier_check(reverted, positions, vorticity, sample_points):
    """Direct Fourier-series evaluation at distorted-grid sample points.

    reverted: spectral field of the reverted vorticity.  sample_points:
    iterable of (i, j) grid indices.  Returns the max absolute mismatch
    against the vorticity carried to positions.
    """
    i, j = np.array(list(sample_points), dtype=np.int64).reshape(-1, 2).T
    n = reverted.shape[-2]
    k1, k2 = spectral.wavegrid(n)
    weighted = spectral.half_plane_weights(n) * reverted
    # the exponential separates: sum_k w_k e^(i k1 x) e^(i k2 y) is row p of
    # e^(i k1 x) @ w times column p of e^(i k2 y)
    rows = np.exp(1j * np.outer(positions[0, i, j], k1[:, 0])) @ weighted
    vals = np.real(np.sum(rows * np.exp(1j * np.outer(positions[1, i, j], k2[0])), axis=1))
    return float(np.max(np.abs(vals - vorticity[i, j]), initial=0.0))
