"""Day-ahead Lyapunov exponents.

The seven inputs condense into two pairs of exponents.  The potential
pair comes from the forecast-error reduction and from the permanent of
a fixed 4x4 evolution matrix built out of the scaled synchronization
times:

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

The permanent ships in two forms: Ryser's inclusion-exclusion over the
15 nonempty column subsets (production) and the full 24-term
permutation expansion (reference oracle for self-checks and tests).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ExponentialOverflow, NonPositivePermanent
from .inputs import ScaledTimes

# 4x4 array as nested tuples; rows are tuples of 4 floats
EvolutionMatrix = tuple[tuple[float, float, float, float], ...]

MATRIX_SIZE = 4


def build_matrix(scaled: ScaledTimes) -> EvolutionMatrix:
    return (
        (scaled.t6_1_s, scaled.t6_2_s, 1.0, 0.0),
        (scaled.t24_s, scaled.t16_s, scaled.t6_2_s, 1.0),
        (scaled.t16_s, scaled.t24_s, scaled.t16_s, scaled.t6_2_s),
        (scaled.t6_2_s, scaled.t16_s, scaled.t24_s, scaled.t6_2_s),
    )


def _check_matrix(matrix) -> None:
    if len(matrix) != MATRIX_SIZE or any(len(row) != MATRIX_SIZE for row in matrix):
        raise ValueError("permanent is defined here for 4x4 matrices only")


def permanent(matrix: EvolutionMatrix) -> float:
    """per(A) by Ryser's formula: sum over nonempty column subsets S of
    (-1)**(4-|S|) * prod_i sum_{j in S} a[i][j]."""
    _check_matrix(matrix)
    total = 0.0
    for mask in range(1, 1 << MATRIX_SIZE):
        prod = 1.0
        for row in matrix:
            row_sum = 0.0
            for j in range(MATRIX_SIZE):
                if mask >> j & 1:
                    row_sum += row[j]
            prod *= row_sum
        if (MATRIX_SIZE - mask.bit_count()) % 2:
            total -= prod
        else:
            total += prod
    return total


def permanent_expansion(matrix: EvolutionMatrix) -> float:
    """per(A) by the exhaustive 24-term permutation expansion (oracle)."""
    _check_matrix(matrix)
    total = 0.0
    for perm in itertools.permutations(range(MATRIX_SIZE)):
        term = 1.0
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def error_exponent(delta: float) -> float:
    """l_p1 = delta + 1."""
    return delta + 1.0


def permanent_exponent(perm_a: float) -> float:
    """l_p2 = ln(per(A))**2 / 10 + 1; per(A) must be positive."""
    if perm_a <= 0:
        raise NonPositivePermanent(
            "lyapunov", "l_p2", "per(A) is not positive", perm_a)
    return math.log(perm_a) ** 2 / 10 + 1.0


def price_exponent(c_0: float) -> float:
    """l_y1 = exp(c_0 / 25)."""
    try:
        return math.exp(c_0 / 25)
    except OverflowError:
        raise ExponentialOverflow(
            "lyapunov", "l_y1", "exp(c_0 / 25) exceeds the float range", c_0
        ) from None


def droop_exponent(k_c: float) -> float:
    """l_y2 = exp(k_c / 10) + 1."""
    try:
        return math.exp(k_c / 10) + 1.0
    except OverflowError:
        raise ExponentialOverflow(
            "lyapunov", "l_y2", "exp(k_c / 10) exceeds the float range", k_c
        ) from None


@dataclass(frozen=True)
class LyapunovExponents:
    """Both exponent pairs plus per(A), retained for diagnostics."""

    l_p1: float
    l_p2: float
    l_y1: float
    l_y2: float
    perm_a: float
