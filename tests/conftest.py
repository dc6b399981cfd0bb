import numpy as np
import pytest

from euler2d import spectral


def random_band_limited(n, kmax, seed):
    """Real random field with spectral support |k1|,|k2| <= kmax, zero mean."""
    rng = np.random.default_rng(seed)
    s = np.zeros((n, n), dtype=np.complex128)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if (k1, k2) <= (0, 0):
                continue
            val = rng.normal() + 1j * rng.normal()
            s[k1 % n, k2 % n] = val
            s[(-k1) % n, (-k2) % n] = np.conj(val)
    return spectral.inverse(s[:, : n // 2 + 1])


@pytest.fixture
def grid64():
    return spectral.grid_coordinates(64)
