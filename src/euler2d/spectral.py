"""Fourier-space backbone on the 2pi-periodic square.

Conventions
-----------
Grid fields are real float64 arrays of shape (n, n) sampled at
a_i = 2*pi*i/n, b_j = 2*pi*j/n with array index [i, j].  Vector fields
stack components along a leading axis, shape (2, n, n).

Spectral fields are complex128 arrays in numpy rfft2 layout: the half
spectrum of shape (..., n, n//2+1), k1 signed along axis -2 (fftfreq
order) and k2 = 0..n//2 along axis -1.  The modes with k2 < 0 are the
complex conjugates of the stored ones and are not kept, so every spectral
field stands for a real grid field.  Only the k2 = 0 column (and the
Nyquist column k2 = n/2 when n is even) holds both k and -k; there the
stored values must be conjugate pairs.  The grid size n is read from
axis -2; an array whose last axis is not n//2+1 (a full (n, n) lattice,
say) is rejected with ValueError.

The forward transform carries 1/n^2 so that coefficients are
Fourier-series coefficients: coeff(0, 0) is the spatial mean and cos(a)
has coefficients 1/2 at k = (+-1, 0).  Sums over the full lattice, such
as Parseval norms, weight each stored mode by half_plane_weights(n).

The odd-derivative multipliers 1j*k are zero on the Nyquist row and
column (n even): a Nyquist mode sampled on the grid has no derivative
that is both real and consistent with its -k partner.

The 2/3 rule keeps the modes with |k1|, |k2| <= dealias_cutoff(n); truncate
alone decides that set, and dealias is truncate to the field's own grid.
"""

import functools

import numpy as np

HERMITIAN_TOL = 1e-12
MEAN_TOL = 1e-13


def grid_coordinates(n):
    """Return (a, b) meshgrids of shape (n, n), 'ij' indexing."""
    x = 2.0 * np.pi * np.arange(n) / n
    return np.meshgrid(x, x, indexing="ij")


# Operator tables are built once per grid size; a process uses few sizes.
_cached = functools.lru_cache(maxsize=8)


def _frozen(a):
    a.flags.writeable = False
    return a


@_cached
def wavegrid(n):
    """Read-only integer grids (k1, k2) of shape (n, n//2+1).

    k1 follows fftfreq order (signed), k2 rfftfreq order (0..n//2).
    """
    k1 = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    k2 = np.fft.rfftfreq(n, 1.0 / n).astype(np.int64)
    return tuple(_frozen(g) for g in np.meshgrid(k1, k2, indexing="ij"))


@_cached
def derivative_multipliers(n):
    """Read-only (2, n, n//2+1) stack of 1j*k1 and 1j*k2, zero at Nyquist."""
    k1, k2 = wavegrid(n)
    ik = 1j * np.stack([k1, k2]).astype(np.float64)
    if n % 2 == 0:
        ik[0, n // 2, :] = 0.0
        ik[1, :, n // 2] = 0.0
    return _frozen(ik)


@_cached
def _inverse_laplacian_multiplier(n):
    """Read-only -1/|k|^2 on the half spectrum, zero at k = 0."""
    k1, k2 = wavegrid(n)
    k2norm = (k1 * k1 + k2 * k2).astype(np.float64)
    k2norm[0, 0] = 1.0
    out = -1.0 / k2norm
    out[0, 0] = 0.0
    return _frozen(out)


@_cached
def half_plane_weights(n):
    """Read-only multiplicity of each stored mode in the full lattice.

    1 on the k2 = 0 column and, for even n, the Nyquist column k2 = n/2
    (both hold k and -k themselves); 2 elsewhere (the -k partner is
    implied).
    """
    w = np.full((n, n // 2 + 1), 2.0)
    w[:, 0] = 1.0
    if n % 2 == 0:
        w[:, n // 2] = 1.0
    return _frozen(w)


def dealias_cutoff(n):
    """2/3-rule cutoff K: modes with |k1| > K or |k2| > K are dropped.

    K is the largest integer with 3K < n, so that a product of two retained
    modes (|k| <= 2K) never aliases onto a retained one (|k -+ n| > K).
    That is n // 3, less one when 3 divides n.
    """
    return (n - 1) // 3


def _grid_size(s):
    """Grid size n of a half-spectrum array; ValueError if it is not one."""
    if s.ndim < 2 or s.shape[-1] != s.shape[-2] // 2 + 1:
        raise ValueError(f"spectral array of shape {s.shape} is not an rfft2 half "
                         "spectrum (..., n, n//2+1)")
    return s.shape[-2]


def forward(g):
    """Discrete Fourier transform; coeff(0) equals the spatial mean."""
    return np.fft.rfft2(g, norm="forward")


def is_hermitian(s):
    """Whether the self-conjugate columns hold conjugate pairs, to HERMITIAN_TOL.

    Only the k2 = 0 column and, for even n, the Nyquist column k2 = n/2
    store both k and -k, so no other mode can break the symmetry and the
    check costs O(n).  The tolerance is relative to the largest entry of
    those columns (at least 1).
    """
    n = _grid_size(s)
    cols = s[..., [0, n // 2]] if n % 2 == 0 else s[..., :1]
    partner = np.conj(np.roll(cols[..., ::-1, :], shift=1, axis=-2))
    scale = max(np.max(np.abs(cols)), 1.0)
    return np.max(np.abs(cols - partner)) <= HERMITIAN_TOL * scale


def inverse(s, check=True, out=None):
    """Inverse transform to a real grid field, written into out when given.

    Raises ValueError when a self-conjugate column is not Hermitian,
    since the represented field would not be real.
    """
    n = _grid_size(s)
    if check and not is_hermitian(s):
        raise ValueError("spectral field is not Hermitian-symmetric")
    # irfft2 is irfftn on these axes, but it drops out= (numpy 2.4)
    return np.fft.irfftn(s, s=(n, n), axes=(-2, -1), norm="forward", out=out)


def dealias(s):
    """truncate(s, n) to s's own grid n: a new, dealiased array (idempotent)."""
    return truncate(s, _grid_size(s))


def truncate(s, m):
    """The modes of s within dealias_cutoff(m), as a new half spectrum on the m grid.

    m is at most the grid size n of s; no other code decides the 2/3 rule's modes.
    """
    n = _grid_size(s)
    if m > n:
        raise ValueError(f"cannot truncate an n={n} spectrum to a finer grid m={m}")
    kc = dealias_cutoff(m)
    out = np.zeros(s.shape[:-2] + (m, m // 2 + 1), dtype=s.dtype)
    out[..., : kc + 1, : kc + 1] = s[..., : kc + 1, : kc + 1]
    # the rows k1 = -kc..-1, empty when kc is 0
    out[..., m - kc : m, : kc + 1] = s[..., n - kc : n, : kc + 1]
    return out


def gradient(s):
    """Spectral gradient of a scalar field; returns a (2, n, n//2+1) vector."""
    if s.ndim != 2:
        raise ValueError("gradient expects a scalar spectral field")
    return derivative_multipliers(_grid_size(s)) * s


def inverse_laplacian(s):
    """Multiplier -1/|k|^2; the k=0 mode is zeroed (zero-mean convention)."""
    return s * _inverse_laplacian_multiplier(_grid_size(s))


def calderon_zygmund(s, i, j):
    """Bounded multiplier operator k_i k_j / |k|^2 (zero at k=0)."""
    if s.ndim != 2:
        raise ValueError("calderon_zygmund expects a scalar spectral field")
    n = _grid_size(s)
    k = wavegrid(n)
    return -s * (k[i] * k[j]) * _inverse_laplacian_multiplier(n)


def velocity_from_vorticity(omega):
    """Divergence-free velocity with curl(v) = omega.

    v = (-d/db, d/da) psi with psi the zero-mean solution of lap(psi) = omega.
    """
    if omega.ndim != 2:
        raise ValueError("vorticity must be scalar")
    n = _grid_size(omega)
    # |mean| > MEAN_TOL * max(max|omega|, 1), without the O(n^2) max when
    # the mean is already below MEAN_TOL
    mean = np.abs(omega[0, 0])
    if mean > MEAN_TOL and mean > MEAN_TOL * np.max(np.abs(omega)):
        raise ValueError("mean vorticity must vanish on the torus")
    v = derivative_multipliers(n)[::-1] * inverse_laplacian(omega)
    v[0] = -v[0]
    return v


def curl(v):
    """z-component of the curl of a spectral vector field."""
    ik1, ik2 = derivative_multipliers(_grid_size(v))
    return ik1 * v[1] - ik2 * v[0]


def divergence(v):
    ik1, ik2 = derivative_multipliers(_grid_size(v))
    return ik1 * v[0] + ik2 * v[1]


def norm_l2(s):
    """Parseval L2 norm: sqrt(sum_k |coeff|^2) over the full lattice,
    components summed for vectors."""
    power = s.real * s.real + s.imag * s.imag
    return float(np.sqrt(np.sum(half_plane_weights(_grid_size(s)) * power)))


def grid_norm_l2(g):
    """Grid-space L2 norm, normalised to match norm_l2 via Parseval.

    For vector fields the component norms are summed in quadrature.
    """
    g = np.asarray(g)
    return float(np.sqrt(np.sum(np.mean(g * g, axis=(-2, -1)))))
