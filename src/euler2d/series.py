"""Summation of truncated time-Taylor series."""

import numpy as np


def horner(coeffs, x):
    """Return sum_s coeffs[s] * x**s by Horner's rule, from the top order down.

    The sum is accumulated in place in a copy of the top coefficient, one
    multiply and one add per order, so it rounds exactly as
    ``acc = acc * x + c`` would.
    """
    acc = np.array(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= x
        acc += c
    return acc
