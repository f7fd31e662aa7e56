"""Day-ahead watch: error probabilities and the end-to-end pipeline.

run_watch drives the whole computation for one input record:

    inputs -> Lyapunov exponents -> grid model -> potentials,
    distances, reliabilities -> states -> watch probabilities

RunConfig holds what every record of a run shares: the grid-state
comparison tolerance and the quenched probability's logarithm mode.

run_watch is one step per quantity, in pipeline order.  A step runs
once all its arguments exist and is skipped, leaving None, when any of
them is None.  A domain failure produces a structured ErrorRecord and a
None in the trace; everything not transitively dependent on the failed
quantity is still computed.  No error short-circuits the run and
nothing non-finite ever reaches the report: any inf or NaN is converted
to an error record on the spot.

The two watch probabilities carry a documented anomaly:

  * the false-alarm formula divides the smallest distance by
    (smallest - largest), which is negative whenever the three
    distances are distinct, so the raw value is non-positive on
    essentially every real record.  It is evaluated exactly as defined,
    reported raw, clamped into [0, 1], and flagged.  No corrected
    variant is offered.
  * the miss formula can likewise leave [0, 1]; same treatment.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from . import grid_analysis, grid_model, inputs, lyapunov
from .errors import (
    ComputationError,
    ErrorRecord,
    NegativeMissRadicand,
    NonFiniteResult,
)
from .grid_analysis import (
    DEFAULT_TOLERANCE,
    DEFAULT_UP_LOG_MODE,
    UP_LOG_MODES,
)
from .inputs import InputParameters

# Droop value at which the fourth chain probability equals the third.
DROOP_PIVOT = 3.5

_NON_FINITE = NonFiniteResult.__name__


class StateClassification(NamedTuple):
    market_state: grid_analysis.OperatingState | None
    grid_state: grid_analysis.OperatingState | None
    threat_level: grid_analysis.ThreatLevel | None


class ReportFlags(NamedTuple):
    """The six named report flags.

    paper_gap_flag and the two out-of-range flags mark anomalies;
    valid_percentage and v1_in_unit_interval are health predicates
    (True is the good state); pg_undefined marks a missing quenched
    probability.
    """

    paper_gap_flag: bool
    valid_percentage: bool
    v1_in_unit_interval: bool
    pf_out_of_range: bool
    pm_out_of_range: bool
    pg_undefined: bool


class WatchReport(NamedTuple):
    """Everything the watch knows about one day-ahead record."""

    params: InputParameters
    trade_volume_pct: float | None
    states: StateClassification
    p_false_alarm_raw: float | None
    p_false_alarm: float | None
    p_miss_raw: float | None
    p_miss: float | None
    flags: ReportFlags
    trace: dict[str, float | None]
    errors: tuple[ErrorRecord, ...]

    @property
    def degraded(self) -> bool:
        """True when anything about this run needs human attention."""
        return (bool(self.errors)
                or self.flags.paper_gap_flag
                or self.flags.pf_out_of_range
                or self.flags.pm_out_of_range
                or self.flags.pg_undefined
                or not self.flags.valid_percentage
                or not self.flags.v1_in_unit_interval)


def false_alarm(r_small: float, r_mid: float,
                r_big: float) -> tuple[float, float, bool]:
    """(raw, clamped, out_of_range) false-alarm probability.

    Takes the three distances sorted ascending.  Raw value per the
    defining formula; see the module docstring for why it is
    non-positive for distinct distances.  Three equal distances or a
    zero r_mid divide by zero: ZeroDivisionError, which run_watch
    reports as NonFiniteResult.  In run_watch r_mid is never zero, as
    r_e and r_c are positive, and no record is known to give three
    equal distances.
    """
    raw = ((2.0 / 3.0)
           * (r_small / (r_small - r_big))
           * ((r_mid - r_big) / r_mid) ** 2)
    clamped = min(1.0, max(0.0, raw))
    return raw, clamped, not 0 <= raw <= 1


def half_chain(p_s: float, p_t: float,
               p_g: float) -> tuple[float, float, float]:
    """(p1, p2, p3) from the sorted probabilities; p4 needs the droop.

    p1 is the largest probability, p2 = 1 - middle/2, p3 = smallest/2.
    """
    ordered = sorted((p_s, p_t, p_g))
    return ordered[2], 1 - ordered[1] / 2, ordered[0] / 2


def fourth_probability(p3: float, k_c: float) -> float:
    """p4 = (k_c/3.5)**4 * p3, so p4/p3 is a pure droop factor."""
    return (k_c / DROOP_PIVOT) ** 4 * p3


def miss_probability(p1: float, p2: float, p3: float, p4: float,
                     v_m: float) -> tuple[float, float, bool]:
    """(raw, clamped, out_of_range) miss probability of the chain p1..p4.

    p3 = 0 (at v1 = 1, say, a root of both reliability polynomials)
    divides by zero: ZeroDivisionError, which run_watch reports as
    NonFiniteResult.
    """
    share = v_m / 100
    inner = share ** 2 * (1 - share) ** 2 * (p1 - p2) ** 2 + p1 * p2
    if inner < 0:
        raise NegativeMissRadicand("miss radicand is negative", inner)
    # p3*p4 and p4/p3 cannot go negative: p4 is p3 times a fourth power
    raw = 1 - 2 * math.sqrt(p4 / p3) * (math.sqrt(inner)
                                        + math.sqrt(p3 * p4))
    clamped = min(1.0, max(0.0, raw))
    return raw, clamped, not 0 <= raw <= 1


def _step(errors: list[ErrorRecord], stage: str, quantity: str,
          function: Callable[..., object], *args):
    """Run one step once all its arguments exist, else yield None.

    The step is where a failure happened: on one it appends an
    ErrorRecord at its own (stage, quantity) and yields None.  A domain
    error gives its kind, detail and value; float-machinery escapes
    (overflow, division by zero, inf/NaN results) give NonFiniteResult,
    so a report can never carry a non-finite number.  Every step returns
    a number or a tuple of numbers (the clamp flags are bools), so each
    returned number is checked.
    Only the failure's fields leave an except block: a kept exception
    would tie its traceback to the caller's frames in a reference cycle.
    """
    if None in args:
        return None
    try:
        result = function(*args)
    except ComputationError as exc:
        kind, detail, value = type(exc).__name__, exc.detail, exc.value
    except (OverflowError, ZeroDivisionError):
        kind, detail, value = (_NON_FINITE,
                               "evaluation left the float range", None)
    else:
        # most steps return a float: one type test settles those
        if type(result) is float or not isinstance(result, tuple):
            if math.isfinite(result):
                return result
        elif all(map(math.isfinite, result)):
            return result
        kind, detail, value = _NON_FINITE, "result is not finite", None
    errors.append(ErrorRecord(stage, quantity, kind, detail,
                              None if value is None else float(value)))
    return None


def _defined(function: Callable[..., object], *args):
    """function(*args) for a step that cannot fail, None if an argument is."""
    return None if None in args else function(*args)


# RunConfig is a named tuple, not a dataclass: importing dataclasses
# would load inspect, ast and dis on every start of the command line.
class _RunConfigFields(NamedTuple):
    equality_tolerance: float = DEFAULT_TOLERANCE
    up_log_mode: str = DEFAULT_UP_LOG_MODE


class RunConfig(_RunConfigFields):
    """Configuration shared by every record of a run.

    equality_tolerance  relative tolerance of the grid-state comparisons
    up_log_mode         handling of non-positive potentials in the
                        quenched probability: strict reports an error,
                        absolute takes logarithms of magnitudes

    Its fields are checked however it is made: positionally, by keyword,
    by _make or by _replace.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.equality_tolerance > 0:
            raise ValueError("equality_tolerance must be positive, got "
                             f"{self.equality_tolerance!r}")
        if self.up_log_mode not in UP_LOG_MODES:
            raise ValueError(f"up_log_mode must be one of {UP_LOG_MODES}, "
                             f"got {self.up_log_mode!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


def run_watch(params: InputParameters,
              config: RunConfig | None = None) -> WatchReport:
    """Validate one record and run the full day-ahead pipeline on it.

    Raises ValidationError for inadmissible inputs; every failure past
    validation is captured inside the report instead of raised.
    """
    if config is None:
        config = RunConfig()
    inputs.validate(params)
    errors: list[ErrorRecord] = []

    t6_1_s, t6_2_s, t16_s, t24_s = inputs.scale_times(*params[:4])
    perm_a = _step(errors, "lyapunov", "perm_a", lyapunov.permanent,
                   lyapunov.build_matrix(t6_1_s, t6_2_s, t16_s, t24_s))
    l_p1 = lyapunov.error_exponent(params.delta)
    l_p2 = _step(errors, "lyapunov", "l_p2", lyapunov.permanent_exponent,
                 perm_a)
    l_y1 = _step(errors, "lyapunov", "l_y1", lyapunov.price_exponent,
                 params.c_0)
    l_y2 = _step(errors, "lyapunov", "l_y2", lyapunov.droop_exponent,
                 params.k_c)

    rho, discriminant = _step(errors, "grid-model", "rho",
                              grid_model.separability, l_p1) or (None, None)
    e1 = _step(errors, "grid-model", "e1", grid_model.expected_energy,
               l_p1, l_p2)
    e2, t2 = _step(errors, "grid-model", "e2", grid_model.second_pair,
                   rho) or (None, None)
    t1 = _step(errors, "grid-model", "t1", grid_model.expected_time,
               l_p1, l_p2, l_y1, l_y2)
    omega1 = _step(errors, "grid-model", "omega1",
                   grid_model.first_frequency, l_p1, t1)
    omega2 = _step(errors, "grid-model", "omega2",
                   grid_model.second_frequency, l_y1, t2)

    v1, w1, u_s = _step(errors, "grid-analysis", "v1",
                        grid_analysis.energy_potential, l_p1, l_y1,
                        t1) or (None, None, None)
    p_x = _step(errors, "grid-analysis", "p_x",
                grid_analysis.auxiliary_potential, e1, omega1, omega2)
    u_p = _step(errors, "grid-analysis", "u_p",
                grid_analysis.frequency_from_auxiliary, p_x, v1, t1)
    v_m = _step(errors, "grid-analysis", "trade_volume_pct",
                grid_analysis.trade_volume, u_s)

    r_e = _step(errors, "grid-analysis", "r_e",
                grid_analysis.elliptic_distance, u_s, u_p)
    r_h = _step(errors, "grid-analysis", "r_h",
                grid_analysis.hyperbolic_distance, e1, e2, omega1, omega2, t1)
    r_c = _step(errors, "grid-analysis", "r_c",
                grid_analysis.critical_distance, v1, l_p1)
    market_state = _defined(grid_analysis.classify_market, r_e, r_h, r_c)

    p_s = _step(errors, "grid-analysis", "p_s",
                grid_analysis.star_reliability, v1)
    p_t = _step(errors, "grid-analysis", "p_t",
                grid_analysis.triangle_reliability, v1)
    p_g = _step(errors, "grid-analysis", "p_g",
                grid_analysis.quenched_probability, u_s, u_p, e1,
                config.up_log_mode)
    grid_state = _defined(grid_analysis.classify_grid, p_s, p_t, p_g,
                          config.equality_tolerance)
    threat, paper_gap = _defined(grid_analysis.threat_level, market_state,
                                 grid_state) or (None, False)

    r_small, r_mid, r_big = (None, None, None) if market_state is None \
        else sorted((r_e, r_h, r_c))
    p_f_raw, p_f, pf_out_of_range = _step(
        errors, "watch", "p_false_alarm_raw", false_alarm,
        r_small, r_mid, r_big) or (None, None, False)

    # the miss chain is built only once the trade volume it weighs exists
    p1, p2, p3 = (None if v_m is None else _defined(
        half_chain, p_s, p_t, p_g)) or (None, None, None)
    p4 = _step(errors, "watch", "p_miss_raw", fourth_probability, p3,
               params.k_c)
    p_m_raw, p_m, pm_out_of_range = _step(
        errors, "watch", "p_miss_raw", miss_probability,
        p1, p2, p3, p4, v_m) or (None, None, False)

    # every computed quantity in report order; the inputs stay in params
    trace = {
        "t6_1_s": t6_1_s, "t6_2_s": t6_2_s, "t16_s": t16_s, "t24_s": t24_s,
        "perm_a": perm_a,
        "l_p1": l_p1, "l_p2": l_p2, "l_y1": l_y1, "l_y2": l_y2,
        "rho": rho, "discriminant": discriminant,
        "e1": e1, "e2": e2, "omega1": omega1, "omega2": omega2,
        "t1": t1, "t2": t2,
        "v1": v1, "w1": w1, "u_s": u_s, "p_x": p_x, "u_p": u_p,
        "r_e": r_e, "r_h": r_h, "r_c": r_c,
        "p_s": p_s, "p_t": p_t, "p_g": p_g,
        "r_small": r_small, "r_mid": r_mid, "r_big": r_big,
        "p1": p1, "p2": p2, "p3": p3, "p4": p4,
    }
    # positional: keyword construction of a named tuple costs about twice
    # as much, and this runs once per record
    flags = ReportFlags(paper_gap, v_m is not None and 0 <= v_m <= 100,
                        v1 is not None and 0 <= v1 <= 1, pf_out_of_range,
                        pm_out_of_range, p_g is None)
    return WatchReport(params, v_m,
                       StateClassification(market_state, grid_state, threat),
                       p_f_raw, p_f, p_m_raw, p_m, flags, trace,
                       tuple(errors))
