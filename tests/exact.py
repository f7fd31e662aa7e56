"""Exact rational references for the float evaluators under test.

Each function takes float inputs as they are, reads them exactly as
fractions.Fraction values and evaluates without rounding, so an error
measured against these belongs to the float code alone.
"""

import itertools
import math
from fractions import Fraction


def permanent(matrix) -> Fraction:
    """per(A) of a 4x4 matrix by the full 24-term permutation expansion.

    Each float entry is n/d with d a power of two, so over the largest d
    the expansion is a sum of integer products.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in matrix]
    unit = max(d for row in ratios for _, d in row)
    numerators = [[n * (unit // d) for n, d in row] for row in ratios]
    total = sum(math.prod(numerators[i][j] for i, j in enumerate(perm))
                for perm in itertools.permutations(range(4)))
    return Fraction(total, unit ** 4)


def polynomial(coefficients, x: float) -> Fraction:
    """Polynomial with coefficients highest degree first, at the float x."""
    x = Fraction(x)
    accumulator = Fraction(0)
    for coefficient in coefficients:
        accumulator = accumulator * x + Fraction(coefficient)
    return accumulator


def relative_error(value: float, exact: Fraction) -> float:
    """|value - exact| / |exact|; 0 when both are zero."""
    if exact == 0:
        return 0.0 if value == 0 else math.inf
    return float(abs(Fraction(value) - exact) / abs(exact))
