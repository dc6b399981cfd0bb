"""Summation of truncated time-Taylor series."""

import numpy as np


def horner(coeffs, x):
    """Return sum_s coeffs[s] * x**s by Horner's rule, from the top order down.

    coeffs[0] may be None for a series without a constant term (the 1-based
    coefficient lists of the Lagrangian stack).  The sum is accumulated in
    place in a copy of the top coefficient, one multiply and one add per
    order, so it rounds exactly as ``acc = acc * x + c`` would.
    """
    acc = np.array(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= x
        if c is not None:
            acc += c
    return acc
