"""High-order time-Taylor stepping of the Lagrangian displacement.

The displacement xi(a, t) = x(a, t) - a is expanded as sum_s xi^(s) t^s.
Coefficients follow from the Cauchy invariants (Zheligovsky & Frisch 2014,
JFM 749), a recurrence that prescribes, in 2D,

  curl xi^(s) = delta_{s1} omega0
               - sum_{k=1,2} sum_{m=1}^{s-1} (m/s) [grad xi_k^(m) x grad xi_k^(s-m)]_z
  div  xi^(s) = - sum_{m=1}^{s-1} (d1 xi1^(m) d2 xi2^(s-m) - d2 xi1^(m) d1 xi2^(s-m))

solved by a Helmholtz decomposition xi = perp-grad(psi) + grad(phi) with
zero-mean psi, phi.  Quadratic products are formed pseudospectrally and
dealiased (2/3-rule).

The curl term is antisymmetric under m <-> s-m, because
[grad a x grad b]_z = -[grad b x grad a]_z.  Its sum is therefore formed over
the pairs alone,

  - sum_{k=1,2} sum_{s/2 < m < s} ((2m - s)/s) [grad xi_k^(m) x grad xi_k^(s-m)]_z,

where the m = s/2 term, a cross product of a gradient with itself, vanishes.
That takes about 2(s-1) grid products for the curl instead of 4(s-1).

A step's Taylor stack holds the gradients and norms of xi^(s), not xi^(s): the
sum xi_S = sum_s dt^s xi^(s) of dealiased, zero-mean terms solves the same
Helmholtz problem, its curl and div read off the summed gradient g.
"""

import numpy as np

from . import series, spectral
from .errors import NumericalError, StepTooLargeError


def next_coefficient(grads, omega_init, s):
    """Compute xi^(s) from the initial vorticity and grads, the grid
    gradients of orders 1..s-1 (grads[m - 1] holds order m)."""
    if len(grads) != s - 1:
        raise ValueError(f"coefficients 1..{s - 1} must be present to build order {s}")
    if s == 1:
        return _solve_curl_div(np.stack([omega_init, np.zeros_like(omega_init)]))
    # src stays bound until the return: freed before the products below, its block is split
    # by their temporaries and the heap grows by one src per order (CL8, N=256: +7 MB RSS)
    src = _recurrence_sources(grads, s, omega_init.shape[-2])
    return _solve_curl_div(spectral.forward(src))


def _solve_curl_div(curl_div):
    """Spectral xi = perp-grad(psi) + grad(phi) whose curl and div are the dealiased
    curl_div[0] and curl_div[1]: (psi, phi) = inverse_laplacian(dealias(curl_div))."""
    ik1, ik2 = spectral.derivative_multipliers(curl_div.shape[-2])
    psi_phi = spectral.inverse_laplacian(spectral.dealias(curl_div))
    xi = ik1 * psi_phi[::-1]  # (ik1 phi, ik1 psi)
    xi[0] -= ik2 * psi_phi[0]
    xi[1] += ik2 * psi_phi[1]
    return xi


def _recurrence_sources(grads, s, n):
    """Grid right-hand sides [curl, div] of the order-s recurrence, one (2, n, n) array.

    The curl sum runs over the pairs m > s/2 with weight (2m - s)/s (module
    docstring); both sums accumulate in place through two n x n buffers,
    which are freed before the transform that follows.
    """
    tmp = np.empty((n, n))
    pair = np.empty((n, n))
    src = np.zeros((2, n, n))
    curl_src, div_src = src
    for m in range(s // 2 + 1, s):
        gm = grads[m - 1]
        gc = grads[s - m - 1]
        np.multiply(gm[0, 0], gc[0, 1], out=pair)
        pair -= np.multiply(gm[0, 1], gc[0, 0], out=tmp)
        pair += np.multiply(gm[1, 0], gc[1, 1], out=tmp)
        pair -= np.multiply(gm[1, 1], gc[1, 0], out=tmp)
        pair *= (2 * m - s) / s
        curl_src -= pair
    for m in range(1, s):
        gm = grads[m - 1]
        gc = grads[s - m - 1]
        div_src -= np.multiply(gm[0, 0], gc[1, 1], out=tmp)
        div_src += np.multiply(gm[0, 1], gc[1, 0], out=tmp)
    return src


def build_stack(omega_init, order):
    """Displacement Taylor stack to the requested order, as (grads, norms).

    Entry s - 1 of each holds order s: grads the (2, 2, n, n) grid gradients
    of xi^(s) with [k, j] = d_j xi_k, norms (a float array) the L2 norm of
    xi^(s).  Every coefficient, xi^(1) = v0 included, comes from the
    recurrence, which reads the gradients alone, and is dropped once its
    gradients and norm are formed.  NaN in any coefficient aborts with the
    order.
    """
    n = omega_init.shape[-2]
    grads, norms = [], []
    for s in range(1, order + 1):
        xi = next_coefficient(grads, omega_init, s)
        if not np.all(np.isfinite(xi.view(np.float64))):
            raise NumericalError(f"non-finite Taylor coefficient at order {s}")
        g = np.empty((2, 2, n, n))
        for k in (0, 1):
            spectral.inverse(spectral.gradient(xi[k]), check=False, out=g[k])
        grads.append(g)
        norms.append(spectral.norm_l2(xi))
    return grads, np.asarray(norms, dtype=np.float64)


# Fractional shortfall keeping norms[S]*dt^S strictly below epsilon in floats.
_DT_SAFETY = 1.0 - 1e-9


def choose_step(norms, epsilon, radius=np.inf):
    """Largest dt with norms[S]*dt^S < epsilon, as a float, capped at
    radius*e^-2 for a convergence radius (the default inf sets no cap).

    A zero top norm (rest state) sets no bound: the criterion gives inf.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    norms = np.asarray(norms, dtype=np.float64)
    with np.errstate(divide="ignore"):
        dt = (epsilon / norms[-1]) ** (1.0 / len(norms)) * _DT_SAFETY
    return float(min(dt, radius * np.exp(-2.0)))


def evaluate_displacement(grads, dt):
    """Raw (unwrapped) positions a + xi_S(a, dt), shape (2, n, n), and
    det(I + g) on the grid, from g = grad xi_S summed once over build_stack's grads."""
    if not grads:
        raise ValueError("no displacement gradients to sum")
    g = series.horner(grads, dt)
    g *= dt
    jac = jacobian_determinant(g)
    src = np.stack([g[1, 0] - g[0, 1], g[0, 0] + g[1, 1]])
    del g
    xi = spectral.inverse(_solve_curl_div(spectral.forward(src)), check=False)
    max_disp = np.max(np.abs(xi))
    if max_disp >= np.pi:
        raise StepTooLargeError(
            f"displacement max-norm {max_disp:.3f} exceeds half a period"
        )
    xi += spectral.grid_coordinates(xi.shape[-1])
    return xi, jac


def jacobian_determinant(g):
    """det(I + g) on the grid for a (2, 2, n, n) displacement gradient g;
    for the step's grad xi_S it equals 1 to truncation error."""
    return (1.0 + g[0, 0]) * (1.0 + g[1, 1]) - g[0, 1] * g[1, 0]


def step_order_controller(epsilon, amplitude):
    """Pick the truncation order from epsilon and the velocity amplitude A.

    The order sits at the low end of the bracket [-(1/2) ln(eps/A), -ln(eps/A)],
    since the nonlinear-sum cost dominates at these resolutions, and never
    below 2: where the bracket lies below 2 (A < e^2 eps, a rest state
    included) the order is 2.  The cap R*e^-2 that goes with it is the
    radius argument of choose_step.
    """
    a = max(amplitude, epsilon)
    return max(int(np.ceil(-np.log(epsilon / a) / 2.0)), 2)
