"""Exact rational references for the float evaluators under test.

Each function takes float inputs as they are, reads them exactly as
fractions.Fraction values and evaluates without rounding, so an error
measured against these belongs to the float code alone.
"""

import math
from fractions import Fraction


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
