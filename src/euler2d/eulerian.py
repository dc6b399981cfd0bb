"""Reference Eulerian integrators for the 2D vorticity equation.

d omega/dt + (v . grad) omega = 0 with curl(v) = omega, advanced by
explicit midpoint (RK2), classical RK4, or the Eulerian time-Taylor
series (ET-S).  Products are formed pseudospectrally and dealiased where
they are formed; stage sums, linear in dealiased fields, need no dealiasing.
Products, transforms and sums run under _quiet, so a step that blows up
raises NumericalError from a finiteness check and prints no numpy warning.
"""

import numpy as np

from . import series, spectral
from .errors import NumericalError


def _quiet(func):
    """func with overflow and NaN left to the finiteness checks to report.
    Each function gets an errstate of its own: numpy cannot enter one
    np.errstate twice, and rk4_step -> rhs -> et_coefficients nest."""
    return np.errstate(over="ignore", invalid="ignore")(func)


def rhs(omega):
    """Right-hand side -(v . grad) omega of the vorticity equation: the
    Taylor coefficient w_1, so that RK and ET share one advection operator."""
    return et_coefficients(omega, 1)[1]


def _check(omega):
    if not np.all(np.isfinite(omega.view(np.float64))):
        raise NumericalError("numerical overflow in Eulerian step")
    return omega


@_quiet
def rk2_step(omega, dt):
    """Explicit midpoint step of the spectral vorticity."""
    k1 = rhs(omega)
    k2 = rhs(omega + 0.5 * dt * k1)
    return _check(omega + dt * k2)


@_quiet
def rk4_step(omega, dt):
    """Classical fourth-order Runge-Kutta step of the spectral vorticity."""
    k1 = rhs(omega)
    k2 = rhs(omega + 0.5 * dt * k1)
    k3 = rhs(omega + 0.5 * dt * k2)
    k4 = rhs(omega + dt * k3)
    return _check(omega + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


@_quiet
def et_coefficients(omega0, order):
    """Taylor coefficients [w_0..w_order] from (s+1) w_{s+1} = -sum_m (v_m . grad) w_{s-m}."""
    n = omega0.shape[0]
    coeffs = [omega0]
    # grids[s] holds the velocity [0] and gradient [1] grids of w_s, which enters
    # the sums from order s+1 on; w_order itself is never read
    grids = np.empty((order, 2, 2, n, n))
    for s in range(order):
        spectral.inverse(spectral.velocity_from_vorticity(coeffs[s]), check=False,
                         out=grids[s, 0])
        spectral.inverse(spectral.gradient(coeffs[s]), check=False, out=grids[s, 1])
        acc = np.einsum("mkij,mkij->ij", grids[: s + 1, 0], grids[s::-1, 1])
        w_next = spectral.dealias(spectral.forward(acc))
        w_next /= -(s + 1)
        # the mean of an advection sum vanishes analytically; drop the rounding residue
        w_next[0, 0] = 0.0
        if not np.all(np.isfinite(w_next.view(np.float64))):
            raise NumericalError(f"non-finite advection term at order {s + 1}")
        coeffs.append(w_next)
    return coeffs


@_quiet
def et_step(omega, dt, order):
    """Advance by summing the truncated vorticity Taylor series (Horner)."""
    return _check(series.horner(et_coefficients(omega, order), dt))
