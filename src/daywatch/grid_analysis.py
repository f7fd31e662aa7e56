"""Potentials, distances, reliability probabilities, and state classification.

Everything here is a pure function of scalars of the grid model and
the Lyapunov exponents, each taking exactly the ones it reads.  The
quantities:

    v1, w1   components of the energy potential; v1 doubles as the
             edge-failure probability fed to the reliability polynomials
    u_s      energy potential, l_y1**2 * v1 + w1
    p_x      auxiliary balance 2*e1 - (omega1**2 + omega2**2) - 4
    u_p      frequency potential
    v_m      expected trade volume in percent
    r_e      elliptic-kernel distance between tomorrow and criticality
    r_h      hyperbolic-kernel distance
    r_c      critical distance the two are compared against
    p_s      star-topology reliability polynomial at v1
    p_t      triangle-topology reliability polynomial at v1
    p_g      quenched-disorder critical probability

The reliability polynomials vanish at v1 = 1 with multiplicity 5 (star)
and 8 (triangle), so their monomial terms cancel there: near v1 = 1 the
result loses every digit and can take the wrong sign.  On 0.5 <= v1 <= 2
they are evaluated as y**m * q(y) in y = 1 - v1 instead; y is exact
there (Sterbenz) and q, with integer coefficients, has no real root.
Elsewhere the monomial basis is accurate (near v1 = 0 the constant term
1 dominates) and is kept.

Gamma-function constants are folded into the distance prefactors once
and for all (sqrt(pi) and the two half-integer values cancel), so no
gamma evaluation happens at run time.

The classifiers at the bottom turn the numbers into operating states
and a threat level, str enums that print as their values.  Both share
one state rule (two alarms: emergency, one: restorative, none: normal),
and their alarms are deliberate:

  * the market classifier uses strict inequalities against r_c, so a
    distance exactly equal to r_c does not count as exceeding it;
  * the grid classifier treats *closeness* of p_s and p_t to p_g as the
    alarming condition, with a relative tolerance because exact float
    equality of independently computed reals is vacuous;
  * two (market, grid) combinations have no published mapping and fall
    back to guarded with paper_gap_flag set, so consumers can tell a
    defined level from a patched one.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import NegativeRadicand, NonPositiveGap, NonPositivePotential

# Named constant of the quenched-disorder exponent denominator.
QUENCH_CONSTANT = 1.261060863 * math.pi

# Smoothing term (1/4)**2 shared by both potential denominators.
REGULARIZER = 1.0 / 16.0

# Reliability polynomial coefficients, highest degree first.
# Degree 15, star topology (complete graph on six vertices).
STAR_COEFFS = (
    -120.0, 360.0, -270.0, -90.0, 120.0, 0.0, 20.0, -15.0,
    0.0, 0.0, -6.0, 0.0, 0.0, 0.0, 0.0, 1.0,
)
# Degree 12, triangle topology (complete bipartite graph on six vertices).
TRIANGLE_COEFFS = (
    79.0, -560.0, 1668.0, -2656.0, 2331.0, -960.0, 0.0,
    96.0, 21.0, -16.0, -4.0, 0.0, 1.0,
)

# The same polynomials in y = 1 - v1, highest degree first, with the
# root at v1 = 1 divided out: star = y**5 * q(y), triangle = y**8 * r(y).
STAR_ROOT_ORDER = 5
STAR_Y_COEFFS = (
    120.0, -1440.0, 7830.0, -25440.0, 54780.0, -81840.0, 86110.0,
    -63195.0, 31080.0, -9300.0, 1296.0,
)
TRIANGLE_ROOT_ORDER = 8
TRIANGLE_Y_COEFFS = (79.0, -388.0, 722.0, -604.0, 192.0)

UP_LOG_MODES = ("strict", "absolute")
DEFAULT_UP_LOG_MODE = "strict"  # also the default of RunConfig and the CLI
DEFAULT_TOLERANCE = 1e-6  # relative tolerance of grid-state equality


class OperatingState(str, Enum):
    NORMAL = "normal"
    RESTORATIVE = "restorative"
    EMERGENCY = "emergency"

    __str__ = str.__str__  # prints, formats and writes as its value


class ThreatLevel(str, Enum):
    LOW = "low"
    GUARDED = "guarded"
    ELEVATED = "elevated"
    HIGH = "high"
    SEVERE = "severe"

    __str__ = str.__str__


def energy_potential(l_p1: float, l_y1: float,
                     t1: float) -> tuple[float, float, float]:
    """(v1, w1, u_s) from the first exponent pair and the coupling time.

    With plus = (l_p1 + t1)**2 + 1/16 and minus = (l_p1 - t1)**2 + 1/16,
    the paper's forms are

    v1 = (l_p1 + t1)/(l_p1 plus) + (l_p1 - t1)/(l_p1 minus)
    w1 = (3/l_p1) ln(plus/minus)
    u_s = l_y1**2 v1 + w1

    Once t1 is large the two terms of v1 cancel (to exactly 0 in floats)
    and plus/minus rounds towards 1, so neither is evaluated as written.
    Over the common denominator l_p1 plus minus the numerator of v1 is
    2 l_p1 ((l_p1 - t1)(l_p1 + t1) + 1/16), and plus - minus = 4 l_p1 t1:

    v1 = 2 ((l_p1 - t1)(l_p1 + t1) + 1/16)/(plus minus)
    w1 = (3/l_p1) ln(1 + 4 l_p1 t1/minus)

    The factor 2 is applied after the division by plus, where it cannot
    overflow.  Both denominators are at least 1/16, so the 3/l_p1 of w1
    is the only pole, and no admissible record reaches it: l_p1 =
    delta + 1 >= 1.  A square past ~1.3e154 raises OverflowError, which
    the pipeline reports as NonFiniteResult.
    """
    plus = (l_p1 + t1) ** 2 + REGULARIZER
    minus = (l_p1 - t1) ** 2 + REGULARIZER
    v1 = ((l_p1 - t1) * (l_p1 + t1) + REGULARIZER) / plus * 2 / minus
    w1 = (3 / l_p1) * math.log1p(4 * l_p1 * t1 / minus)
    u_s = l_y1 ** 2 * v1 + w1
    return v1, w1, u_s


def auxiliary_potential(e1: float, omega1: float, omega2: float) -> float:
    """p_x = 2 e1 - (omega1**2 + omega2**2) - 4."""
    return 2 * e1 - (omega1 ** 2 + omega2 ** 2) - 4


def frequency_from_auxiliary(p_x: float, v1: float, t1: float) -> float:
    """u_p = -(1/2 + 1/(4 v1)) (1 + p_x v1 / t1) exp(v1 t1).

    Typically negative for positive v1 and t1, which is what later makes
    ln(u_p) undefined in the quenched probability; see quenched_probability.
    v1 = 0 divides by zero: ZeroDivisionError, which run_watch reports
    as NonFiniteResult.
    """
    return -(0.5 + 1 / (4 * v1)) * (1 + p_x * v1 / t1) * math.exp(v1 * t1)


def trade_volume(u_s: float) -> float:
    """Expected free-trade volume in percent.

    v_m = 100 - 9 pi**2 / (4 (u_s / (2 pi))**2)

    Approaches 100 from below as |u_s| grows; strongly negative for
    small |u_s|.  The raw value is reported either way and the
    valid_percentage flag marks whether it landed inside [0, 100].
    u_s = 0, or a nonzero |u_s| below ~1e-161 that squares to 0, divides
    by zero: ZeroDivisionError, which run_watch reports as
    NonFiniteResult.
    """
    return 100 - 9 * math.pi ** 2 / (4 * (u_s / (2 * math.pi)) ** 2)


def elliptic_distance(u_s: float, u_p: float) -> float:
    """r_e = 1/(128 sqrt(u_s - u_p)); gamma prefactors folded."""
    gap = u_s - u_p
    if gap <= 0:
        raise NonPositiveGap("u_s - u_p is not positive", gap)
    return 1 / (128 * math.sqrt(gap))


def hyperbolic_distance(e1: float, e2: float, omega1: float, omega2: float,
                        t1: float) -> float:
    """r_h = sqrt(omega1**2 + omega2**2 + e1**2 - e2**2 - t1**2)/(16 pi**2.5)."""
    radicand = omega1 ** 2 + omega2 ** 2 + e1 ** 2 - e2 ** 2 - t1 ** 2
    if radicand < 0:
        raise NegativeRadicand("hyperbolic radicand is negative", radicand)
    return math.sqrt(radicand) / (16 * math.pi ** 2.5)


def critical_distance(v1: float, l_p1: float) -> float:
    """r_c = exp(-v1 l_p1)/(10 l_p1)."""
    return math.exp(-v1 * l_p1) / (10 * l_p1)


def _state(first_alarm: bool, second_alarm: bool) -> OperatingState:
    """Both alarms: emergency; one: restorative; neither: normal."""
    if first_alarm and second_alarm:
        return OperatingState.EMERGENCY
    if first_alarm or second_alarm:
        return OperatingState.RESTORATIVE
    return OperatingState.NORMAL


def classify_market(r_e: float, r_h: float, r_c: float) -> OperatingState:
    """Market state: each kernel distance strictly past r_c is one alarm."""
    if not all(map(math.isfinite, (r_e, r_h, r_c))):  # NaN raises no alarm
        raise ValueError("r_e, r_h and r_c must be finite")
    return _state(r_e > r_c, r_h > r_c)


def _horner(coefficients: tuple[float, ...], x: float) -> float:
    accumulator = 0.0
    for coefficient in coefficients:
        accumulator = accumulator * x + coefficient
    return accumulator


def _reliability(coefficients: tuple[float, ...], root_order: int,
                 y_coefficients: tuple[float, ...], v1: float) -> float:
    """Monomial Horner, or y**root_order * q(y) in y = 1 - v1 near v1 = 1."""
    if 0.5 <= v1 <= 2:
        y = 1 - v1
        return y ** root_order * _horner(y_coefficients, y)
    return _horner(coefficients, v1)


def star_reliability(v1: float) -> float:
    """Star-topology reliability polynomial at edge-failure probability v1."""
    return _reliability(STAR_COEFFS, STAR_ROOT_ORDER, STAR_Y_COEFFS, v1)


def triangle_reliability(v1: float) -> float:
    """Triangle-topology reliability polynomial at v1."""
    return _reliability(TRIANGLE_COEFFS, TRIANGLE_ROOT_ORDER,
                        TRIANGLE_Y_COEFFS, v1)


def quenched_probability(u_s: float, u_p: float, e1: float,
                         up_log_mode: str = DEFAULT_UP_LOG_MODE) -> float:
    """Quenched-disorder critical probability.

    p_g = 1 - (1/u_s) exp(-4 (ln u_s - ln u_p)**2 e1 / QUENCH_CONSTANT)

    Both logarithms need positive arguments, and u_p is typically
    negative (see frequency_from_auxiliary), so in the default strict
    mode this error path is ordinary operation, not an edge case.  The
    absolute mode takes both logarithms of magnitudes instead; zero
    still has no logarithm in either mode.  The 1/u_s prefactor keeps
    the sign of u_s in both modes.
    """
    if up_log_mode == "strict":
        if u_s <= 0:
            raise NonPositivePotential("u_s is not positive", u_s)
        if u_p <= 0:
            raise NonPositivePotential("u_p is not positive", u_p)
        log_s = math.log(u_s)
        log_p = math.log(u_p)
    elif up_log_mode == "absolute":
        if u_s == 0:
            raise NonPositivePotential("u_s is zero")
        if u_p == 0:
            raise NonPositivePotential("u_p is zero")
        log_s = math.log(abs(u_s))
        log_p = math.log(abs(u_p))
    else:
        raise ValueError(f"up_log_mode must be one of {UP_LOG_MODES}, "
                         f"got {up_log_mode!r}")
    exponent = -4 * (log_s - log_p) ** 2 * e1 / QUENCH_CONSTANT
    return 1 - (1 / u_s) * math.exp(exponent)


def _close(x: float, reference: float, tolerance: float) -> bool:
    return abs(x - reference) <= tolerance * max(1.0, abs(reference))


def classify_grid(p_s: float, p_t: float, p_g: float,
                  tolerance: float = DEFAULT_TOLERANCE) -> OperatingState:
    """Grid state from the reliability probabilities.

    Each reliability close to p_g is one alarm, closeness being relative:
    |x - p_g| <= tolerance * max(1, |p_g|).
    """
    if not tolerance > 0:  # RunConfig's rule: NaN is refused too
        raise ValueError("tolerance must be positive")
    if not all(map(math.isfinite, (p_s, p_t, p_g))):
        raise ValueError("p_s, p_t and p_g must be finite")
    return _state(_close(p_s, p_g, tolerance), _close(p_t, p_g, tolerance))


# (market, grid) -> (threat, paper_gap_flag).  The two flagged rows have
# no published mapping; guarded is the conservative patch.
_THREAT_TABLE: dict[tuple[OperatingState, OperatingState],
                    tuple[ThreatLevel, bool]] = {
    (OperatingState.NORMAL, OperatingState.NORMAL): (ThreatLevel.LOW, False),
    (OperatingState.RESTORATIVE, OperatingState.NORMAL):
        (ThreatLevel.GUARDED, False),
    (OperatingState.RESTORATIVE, OperatingState.RESTORATIVE):
        (ThreatLevel.ELEVATED, False),
    (OperatingState.RESTORATIVE, OperatingState.EMERGENCY):
        (ThreatLevel.ELEVATED, False),
    (OperatingState.EMERGENCY, OperatingState.NORMAL):
        (ThreatLevel.HIGH, False),
    (OperatingState.EMERGENCY, OperatingState.RESTORATIVE):
        (ThreatLevel.SEVERE, False),
    (OperatingState.EMERGENCY, OperatingState.EMERGENCY):
        (ThreatLevel.SEVERE, False),
    (OperatingState.NORMAL, OperatingState.RESTORATIVE):
        (ThreatLevel.GUARDED, True),
    (OperatingState.NORMAL, OperatingState.EMERGENCY):
        (ThreatLevel.GUARDED, True),
}


def threat_level(market_state: OperatingState,
                 grid_state: OperatingState) -> tuple[ThreatLevel, bool]:
    """Threat level for the pair of states, total over all 9 combinations."""
    return _THREAT_TABLE[(OperatingState(market_state),
                          OperatingState(grid_state))]
