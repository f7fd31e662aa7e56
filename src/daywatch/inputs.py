"""Daily input records and their dimensionless scaling.

Seven scalars describe the day ahead: four expected synchronization
times in hours, the expected droop k_c, the expected price c_0, and the
expected reduction delta of the load-forecast error.  Validation
enforces finiteness and sign constraints only; times above 48 h are
suspicious but legal and are logged, not rejected.

Scaling maps hours onto the dimensionless entries of the evolution
matrix.  t6_1 and t16 have a doubling branch: 2T/10 below the 9.5 h
threshold, T/10 from the threshold upward.  t6_2 and t24 are always
T/10.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError, Violation

DOUBLING_THRESHOLD_HOURS = 9.5
LONG_DAY_HOURS = 48.0

TIME_FIELDS = ("t6_1", "t6_2", "t16", "t24")
NONNEGATIVE_FIELDS = ("k_c", "c_0", "delta")
FIELD_ORDER = TIME_FIELDS + NONNEGATIVE_FIELDS


class InputParameters(NamedTuple):
    """One day-ahead record.  `date` is an opaque pass-through label."""

    t6_1: float
    t6_2: float
    t16: float
    t24: float
    k_c: float
    c_0: float
    delta: float
    date: str | None = None


def validate(params: InputParameters) -> InputParameters:
    """Check every invariant; raise one ValidationError naming all violations."""
    t6_1, t6_2, t16, t24, k_c, c_0, delta = params[:len(FIELD_ORDER)]
    # the common record, seven admissible floats and no long day, passes
    # one test; any other goes through the loop, which names each violation
    if (type(t6_1) is type(t6_2) is type(t16) is type(t24) is type(k_c)
            is type(c_0) is type(delta) is float
            and 0 < t6_1 <= LONG_DAY_HOURS and 0 < t6_2 <= LONG_DAY_HOURS
            and 0 < t16 <= LONG_DAY_HOURS and 0 < t24 <= LONG_DAY_HOURS
            and 0 <= k_c < math.inf and 0 <= c_0 < math.inf
            and 0 <= delta < math.inf):
        return params
    violations = []
    for name, value in zip(FIELD_ORDER, params):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            violations.append(Violation(name, "NonFinite", float("nan")))
            continue
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the double range
            finite, value = False, math.inf if value > 0 else -math.inf
        if not finite:
            violations.append(Violation(name, "NonFinite", value))
        elif name in TIME_FIELDS and value <= 0:
            violations.append(Violation(name, "NonPositiveTime", value))
        elif name in NONNEGATIVE_FIELDS and value < 0:
            violations.append(Violation(name, "NegativeParameter", value))
    if violations:
        raise ValidationError(violations)
    for name, value in zip(TIME_FIELDS, params):
        if value > LONG_DAY_HOURS:
            import logging  # loaded only by the rare long day
            logging.getLogger(__name__).warning(
                "%s = %r exceeds %s h; accepted but suspicious",
                name, value, LONG_DAY_HOURS)
    return params


def scale_times(t6_1: float, t6_2: float, t16: float,
                t24: float) -> tuple[float, float, float, float]:
    """(t6_1_s, t6_2_s, t16_s, t24_s); exactly 9.5 h does not double."""
    return (2 * t6_1 / 10 if t6_1 < DOUBLING_THRESHOLD_HOURS else t6_1 / 10,
            t6_2 / 10,
            2 * t16 / 10 if t16 < DOUBLING_THRESHOLD_HOURS else t16 / 10,
            t24 / 10)
