"""Day-ahead Lyapunov exponents.

The seven inputs condense into two pairs of exponents.  The potential
pair comes from the forecast-error reduction and from the permanent of
a fixed 4x4 evolution matrix, which build_matrix makes out of the four
starred (scaled synchronization) times:

    l_p1 = delta + 1
    l_p2 = ln(per(A))**2 / 10 + 1

The free-Poisson pair comes from price and droop:

    l_y1 = exp(c_0 / 25)
    l_y2 = exp(k_c / 10) + 1

The evolution matrix rows are

    (t6_1_s, t6_2_s, 1,      0     )
    (t24_s,  t16_s,  t6_2_s, 1     )
    (t16_s,  t24_s,  t16_s,  t6_2_s)
    (t6_2_s, t16_s,  t24_s,  t6_2_s)

Row 4 ends with t6_2_s instead of continuing the shift pattern of rows
2 and 3.  The repetition is part of the contract; do not normalise it.

The permanent is computed one way: a Laplace expansion along the
first two rows (Minc, *Permanents*, 1978), which sums over the six
column pairs the 2x2 permanent of rows 1-2 on the pair times that of
rows 3-4 on the two remaining columns.  It has 30 multiplications and
no subtractions, so on the nonnegative evolution matrices nothing
cancels.  The self-check compares it with the exact 24-term expansion.
"""

from __future__ import annotations

import math

from .errors import ExponentialOverflow, NonPositivePermanent

# 4x4 array as nested tuples; rows are tuples of 4 floats
EvolutionMatrix = tuple[tuple[float, float, float, float], ...]


def build_matrix(t6_1_s: float, t6_2_s: float, t16_s: float,
                 t24_s: float) -> EvolutionMatrix:
    """The evolution matrix A of the four starred times."""
    return (
        (t6_1_s, t6_2_s, 1.0, 0.0),
        (t24_s, t16_s, t6_2_s, 1.0),
        (t16_s, t24_s, t16_s, t6_2_s),
        (t6_2_s, t16_s, t24_s, t6_2_s),
    )


def permanent(matrix: EvolutionMatrix) -> float:
    """per(A) by the Laplace split along rows 1-2 of a 4x4 matrix.

    Any other shape fails to unpack and raises ValueError.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), \
        (d0, d1, d2, d3) = matrix
    return ((a0 * b1 + a1 * b0) * (c2 * d3 + c3 * d2)
            + (a0 * b2 + a2 * b0) * (c1 * d3 + c3 * d1)
            + (a0 * b3 + a3 * b0) * (c1 * d2 + c2 * d1)
            + (a1 * b2 + a2 * b1) * (c0 * d3 + c3 * d0)
            + (a1 * b3 + a3 * b1) * (c0 * d2 + c2 * d0)
            + (a2 * b3 + a3 * b2) * (c0 * d1 + c1 * d0))


def error_exponent(delta: float) -> float:
    """l_p1 = delta + 1."""
    return delta + 1.0


def permanent_exponent(perm_a: float) -> float:
    """l_p2 = ln(per(A))**2 / 10 + 1; per(A) must be positive."""
    if perm_a <= 0:
        raise NonPositivePermanent("per(A) is not positive", perm_a)
    return math.log(perm_a) ** 2 / 10 + 1.0


def _exp(name: str, value: float, divisor: int) -> float:
    """exp(value / divisor); past the float range, ExponentialOverflow."""
    try:
        return math.exp(value / divisor)
    except OverflowError:
        raise ExponentialOverflow(f"exp({name} / {divisor}) exceeds the "
                                  "float range", value) from None


def price_exponent(c_0: float) -> float:
    """l_y1 = exp(c_0 / 25)."""
    return _exp("c_0", c_0, 25)


def droop_exponent(k_c: float) -> float:
    """l_y2 = exp(k_c / 10) + 1."""
    return _exp("k_c", k_c, 10) + 1.0
