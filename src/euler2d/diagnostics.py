"""Spectra, conservation measures, and series-asymptotics fits.

The radius of convergence of a positive-coefficient power series f_s is
read off a least-squares fit of ln f_s against {1, ln s, s}: the model is
f_s ~ gamma * s^alpha * e^(beta*s) and R = e^(-beta).  The same machinery
fits the exponential tail of the enstrophy spectrum, E(K) ~ C K^n e^(-2
delta K), giving the analyticity-strip radius delta.
"""

from dataclasses import dataclass

import numpy as np

from . import eulerian, lagrangian, spectral
from .errors import InsufficientDataError

# first order of the radius fit: lower orders are not yet asymptotic
RADIUS_S_MIN = 10
TRANSITION_DECADES = 3.0
TRANSITION_S_MIN = 4


@dataclass
class FitReport:
    alpha: float
    beta: float
    gamma: float
    radius: float
    fit_window: tuple


def vorticity_spectrum(omega):
    """Enstrophy shells E(K) = (1/2) sum_{K <= |k| < K+1} |coeff|^2, as an
    array indexed by K."""
    n = omega.shape[-2]
    k1, k2 = spectral.wavegrid(n)
    shell = np.floor(np.sqrt(k1 * k1 + k2 * k2)).astype(np.int64)
    e = 0.5 * spectral.half_plane_weights(n) * np.abs(omega) ** 2
    return np.bincount(shell.ravel(), weights=e.ravel())


def fit_log_linear(values, window):
    """Least squares of ln(values_s) against {1, ln s, s} over s in window.

    values is 1-based: values[0] is f_1.  Returns the fitted (alpha, beta,
    gamma) and the radius e^(-beta).
    """
    s_min, s_max = window
    if s_min < 1:
        raise InsufficientDataError(f"fit window starts at s={s_min}, below s=1")
    values = np.asarray(values, dtype=np.float64)
    s_max = min(s_max, len(values))
    s = np.arange(s_min, s_max + 1)
    if len(s) < 4:
        raise InsufficientDataError("fit window shorter than 4 points")
    f = values[s - 1]
    if np.any(f <= 0.0) or not np.all(np.isfinite(f)):
        raise InsufficientDataError("fit window contains non-positive or non-finite values")
    big_f = np.log(f)
    design = np.column_stack([np.ones_like(s, dtype=float), np.log(s), s])
    (c, a, b), *_ = np.linalg.lstsq(design, big_f, rcond=None)
    return FitReport(
        alpha=float(a),
        beta=float(b),
        gamma=float(np.exp(c)),
        radius=float(np.exp(-b)),
        fit_window=(int(s_min), int(s_max)),
    )


def fit_radius(norms, s_min=RADIUS_S_MIN, s_max=None):
    """The radius fit of a norm sequence: fit_log_linear over s_min..s_max.

    Without s_max the window stops 5 orders before the rounding-noise
    transition (detect_transition), but no earlier than s_min + 4, and
    runs to the end of a sequence with no transition.
    """
    if s_max is None:
        transition = detect_transition(norms)
        s_max = len(norms) if transition is None else max(transition - 5, s_min + 4)
    return fit_log_linear(norms, (s_min, s_max))


def radius_estimators(values):
    """Classical radius estimators from the coefficient sequence.

    Cauchy-Hadamard over the second half and the last-ratio estimate.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise InsufficientDataError("need at least 2 coefficients")
    s = np.arange(1, len(values) + 1)
    tail_start = len(values) // 2
    roots = values[tail_start:] ** (1.0 / s[tail_start:])
    hadamard = float(1.0 / np.max(roots))
    ratio = float(values[-2] / values[-1])
    return {"hadamard": hadamard, "ratio": ratio}


def fit_analyticity_delta(shells, window):
    """Return (delta, fit) from a fit of ln E(K) against {1, ln K, K}.

    The fit is fit_log_linear on the shells K >= 1, with K in the role of s,
    so E(K) ~ gamma K^alpha e^(-2 delta K) and delta = -beta / 2.
    """
    fit = fit_log_linear(shells[1:], window)
    return -fit.beta / 2.0, fit


def energy(omega):
    """Kinetic energy (1/2) sum_k |v_k|^2."""
    return 0.5 * spectral.norm_l2(spectral.velocity_from_vorticity(omega)) ** 2


def enstrophy(omega):
    """(1/2) sum_k |omega_k|^2."""
    return 0.5 * spectral.norm_l2(omega) ** 2


def max_discrepancy(a, b):
    """Max over the periodicity box of |a - b| for grid fields."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def detect_transition(values):
    """First order where rounding noise overwhelms the coefficient decay.

    Fits the log-linear trend over the clean stretch (from TRANSITION_S_MIN
    up to the sequence minimum) and returns the first s whose value exceeds
    the extrapolated trend by TRANSITION_DECADES, or None.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < TRANSITION_S_MIN + 3:
        return None
    positive = values > 0.0
    if not positive.all():
        first_bad = int(np.argmin(positive)) + 1
        values = values[: first_bad - 1]
        if len(values) < TRANSITION_S_MIN + 3:
            return None
    s_at_min = int(np.argmin(values)) + 1
    if s_at_min >= len(values):
        return None
    fit_end = max(s_at_min, TRANSITION_S_MIN + 3)
    try:
        fit = fit_log_linear(values, (TRANSITION_S_MIN, fit_end))
    except InsufficientDataError:
        return None
    s = np.arange(1, len(values) + 1)
    trend = np.log(fit.gamma) + fit.alpha * np.log(s) + fit.beta * s
    excess = np.log(values) - trend
    beyond = np.nonzero((s > s_at_min) & (excess > TRANSITION_DECADES * np.log(10.0)))[0]
    if len(beyond) == 0:
        return None
    return int(s[beyond[0]])


def coefficient_norm_probe(omega, s_max_lagrangian, s_max_eulerian):
    """Deep Taylor-coefficient norm sequences and their transition orders.

    Builds, from the same vorticity, the displacement stack (Lagrangian)
    and the vorticity stack (Eulerian) and reports each norm sequence with
    its detected rounding-noise transition order.
    """
    _, lag = lagrangian.build_stack(omega, s_max_lagrangian)
    et_coeffs = eulerian.et_coefficients(omega, s_max_eulerian)
    et = np.array([spectral.norm_l2(w) for w in et_coeffs[1:]])
    return {
        "lagrangian_norms": lag,
        "eulerian_norms": et,
        "lagrangian_transition": detect_transition(lag),
        "eulerian_transition": detect_transition(et),
    }
