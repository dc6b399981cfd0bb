"""Horner summation of truncated Taylor series."""

import numpy as np

from euler2d import series


def test_horner_rounds_as_nested_products():
    rng = np.random.default_rng(4)
    c0, c1, c2 = rng.standard_normal((3, 3, 5)) + 1j * rng.standard_normal((3, 3, 5))
    x = 0.37
    got = series.horner([c0, c1, c2], x)
    np.testing.assert_array_equal(got, (c2 * x + c1) * x + c0)


def test_horner_does_not_write_its_coefficients():
    # the sum accumulates in a copy of the top coefficient
    coeffs = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    np.testing.assert_array_equal(series.horner(coeffs, 0.5), [2.5, 4.0])
    np.testing.assert_array_equal(coeffs[1], [3.0, 4.0])
    single = series.horner(coeffs[1:], 3.0)
    single += 1.0
    np.testing.assert_array_equal(coeffs[1], [3.0, 4.0])
