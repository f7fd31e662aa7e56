"""Independent high-precision reference for the day-ahead watch pipeline.

Evaluates every formula of the pipeline directly in mpmath at 50
significant digits, with no imports from the daywatch package.  The
report structure produced here mirrors the published JSON schema, so a
daywatch report can be compared with it field by field.  The frozen
golden file is evaluate(BASELINE_RECORD), the tests compare whole
reports against evaluate() across the input domain, and the benchmark
builds its reference from it.
"""

from __future__ import annotations

import itertools

from mpmath import mp, mpf, exp, gamma, log, pi, sqrt

mp.dps = 50

# Input records are parsed into 64-bit floats by the production code, so
# every literal here goes through float() first; mpf(float) is exact.
BASELINE_RECORD = {
    "date": None,
    "t6_1": 6.0,
    "t6_2": 6.0,
    "t16": 16.0,
    "t24": 24.0,
    "k_c": 4.0,
    "c_0": 50.0,
    "delta": 0.035,
}

# Record on which every quantity of the pipeline is defined in strict
# mode (found by scanning the input space with this evaluator).
CLEAN_RECORD = {
    "date": None,
    "t6_1": 5.7,
    "t6_2": 5.7,
    "t16": 15.2,
    "t24": 22.8,
    "k_c": 1.0,
    "c_0": 38.0,
    "delta": 1.0,
}

QUENCH_CONSTANT = mpf(1.261060863) * pi

STAR_COEFFS = (-120, 360, -270, -90, 120, 0, 20, -15, 0, 0, -6, 0, 0, 0, 0, 1)
TRIANGLE_COEFFS = (79, -560, 1668, -2656, 2331, -960, 0, 96, 21, -16, -4, 0, 1)


def scale_time(t, doubling):
    t = mpf(t)
    if doubling and t < mpf(9.5):
        return 2 * t / 10
    return t / 10


def build_matrix(t6_1_s, t6_2_s, t16_s, t24_s):
    return (
        (t6_1_s, t6_2_s, mpf(1), mpf(0)),
        (t24_s, t16_s, t6_2_s, mpf(1)),
        (t16_s, t24_s, t16_s, t6_2_s),
        (t6_2_s, t16_s, t24_s, t6_2_s),
    )


def permanent(matrix):
    """Full 24-term permutation expansion."""
    total = mpf(0)
    for perm in itertools.permutations(range(4)):
        term = mpf(1)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def poly(coeffs, x):
    """Naive power-sum evaluation, highest degree first."""
    n = len(coeffs) - 1
    return sum(mpf(c) * x ** (n - k) for k, c in enumerate(coeffs))


def equal_rel(x, ref, tol):
    return abs(x - ref) <= mpf(tol) * max(mpf(1), abs(ref))


def classify(first_exceeds, second_exceeds):
    if first_exceeds and second_exceeds:
        return "emergency"
    if first_exceeds or second_exceeds:
        return "restorative"
    return "normal"


THREAT_TABLE = {
    ("normal", "normal"): ("low", False),
    ("restorative", "normal"): ("guarded", False),
    ("restorative", "restorative"): ("elevated", False),
    ("restorative", "emergency"): ("elevated", False),
    ("emergency", "normal"): ("high", False),
    ("emergency", "restorative"): ("severe", False),
    ("emergency", "emergency"): ("severe", False),
    # Pairs absent from the published decision table: guarded, flagged.
    ("normal", "restorative"): ("guarded", True),
    ("normal", "emergency"): ("guarded", True),
}


def evaluate(record, up_log_mode="strict", tolerance=1e-6):
    """Full pipeline at 50 digits; returns a report-shaped dict.

    Quantities whose domain preconditions fail are None, and a
    structured error record is appended for the originating failure.
    """
    errors = []

    def fail(stage, quantity, error, detail, value=None):
        errors.append(
            {
                "stage": stage,
                "quantity": quantity,
                "error": error,
                "detail": detail,
                "value": None if value is None else float(value),
            }
        )

    t6_1 = mpf(float(record["t6_1"]))
    t6_2 = mpf(float(record["t6_2"]))
    t16 = mpf(float(record["t16"]))
    t24 = mpf(float(record["t24"]))
    k_c = mpf(float(record["k_c"]))
    c_0 = mpf(float(record["c_0"]))
    delta = mpf(float(record["delta"]))

    t6_1_s = scale_time(t6_1, doubling=True)
    t6_2_s = scale_time(t6_2, doubling=False)
    t16_s = scale_time(t16, doubling=True)
    t24_s = scale_time(t24, doubling=False)

    perm_a = permanent(build_matrix(t6_1_s, t6_2_s, t16_s, t24_s))

    l_p1 = delta + 1
    if perm_a > 0:
        l_p2 = log(perm_a) ** 2 / 10 + 1
    else:
        l_p2 = None
        fail("lyapunov", "l_p2", "NonPositivePermanent", "per(A) is not positive")
    l_y1 = exp(c_0 / 25)
    l_y2 = exp(k_c / 10) + 1

    e1 = l_p1 * l_p2 if l_p2 is not None else None
    if l_p2 is not None:
        t1 = (mpf(1) / 4) * (1 + ((l_y1 + l_p1) / 2) * ((l_y2 + l_p2) / 2))
    else:
        t1 = None

    a = 2 + l_p1
    discriminant = a ** 2 - 4 * ((4 - a ** 2) / 2 - 2)
    rho = (a + sqrt(discriminant)) / 2
    e2 = (rho + sqrt(rho ** 2 - 4)) / 2
    t2 = 5 * (rho - sqrt(rho ** 2 - 4))

    omega1 = 2 * l_p1 / t1 if t1 is not None and t1 != 0 else None
    omega2 = 2 * l_y1 / t2 if t2 != 0 else None

    if t1 is not None and l_p1 != 0:
        plus = (l_p1 + t1) ** 2 + (mpf(1) / 4) ** 2
        minus = (l_p1 - t1) ** 2 + (mpf(1) / 4) ** 2
        v1 = (l_p1 + t1) / (l_p1 * plus) + (l_p1 - t1) / (l_p1 * minus)
        w1 = (3 / l_p1) * log(plus / minus)
        u_s = l_y1 ** 2 * v1 + w1
    else:
        v1 = w1 = u_s = None

    if e1 is not None and omega1 is not None and omega2 is not None:
        p_x = 2 * e1 - (omega1 ** 2 + omega2 ** 2) - 4
    else:
        p_x = None
    if p_x is not None and v1 is not None and v1 != 0 and t1 not in (None, 0):
        u_p = -(mpf(1) / 2 + 1 / (4 * v1)) * (1 + p_x * v1 / t1) * exp(v1 * t1)
    else:
        u_p = None
        if v1 == 0:
            # a division by zero, which daywatch reports as such
            fail("grid-analysis", "u_p", "NonFiniteResult",
                 "evaluation left the float range")

    if u_s is not None and u_s != 0:
        v_m = 100 - 9 * pi ** 2 / (4 * (u_s / (2 * pi)) ** 2)
    else:
        v_m = None
        if u_s == 0:
            fail("grid-analysis", "trade_volume_pct", "NonFiniteResult",
                 "evaluation left the float range")

    r_e = r_h = r_c = None
    if u_s is not None and u_p is not None:
        gap = u_s - u_p
        if gap > 0:
            r_e = gamma(mpf(1) / 2) / (sqrt(pi) * 2 ** 6 * gamma(3) * sqrt(gap))
        else:
            fail("grid-analysis", "r_e", "NonPositiveGap",
                 "u_s - u_p is not positive", gap)
    if None not in (omega1, omega2, e1, t1):
        radicand = omega1 ** 2 + omega2 ** 2 + e1 ** 2 - e2 ** 2 - t1 ** 2
        if radicand >= 0:
            r_h = 2 * sqrt(radicand) / (32 * pi ** 2 * gamma(3) * gamma(mpf(3) / 2))
        else:
            fail("grid-analysis", "r_h", "NegativeRadicand",
                 "hyperbolic radicand is negative", radicand)
    if v1 is not None and l_p1 != 0:
        r_c = exp(-v1 * l_p1) / (10 * l_p1)

    if None not in (r_e, r_h, r_c):
        market_state = classify(r_e > r_c, r_h > r_c)
    else:
        market_state = None

    p_s = poly(STAR_COEFFS, v1) if v1 is not None else None
    p_t = poly(TRIANGLE_COEFFS, v1) if v1 is not None else None

    p_g = None
    if None not in (u_s, u_p, e1):
        logs = None
        if up_log_mode == "strict":
            if u_s <= 0:
                fail("grid-analysis", "p_g", "NonPositivePotential",
                     "u_s is not positive", u_s)
            elif u_p <= 0:
                fail("grid-analysis", "p_g", "NonPositivePotential",
                     "u_p is not positive", u_p)
            else:
                logs = (log(u_s), log(u_p))
        else:
            if u_s == 0:
                fail("grid-analysis", "p_g", "NonPositivePotential", "u_s is zero")
            elif u_p == 0:
                fail("grid-analysis", "p_g", "NonPositivePotential", "u_p is zero")
            else:
                logs = (log(abs(u_s)), log(abs(u_p)))
        if logs is not None:
            log_s, log_p = logs
            p_g = 1 - (1 / u_s) * exp(-4 * (log_s - log_p) ** 2 * e1 / QUENCH_CONSTANT)

    if None not in (p_s, p_t, p_g):
        grid_state = classify(
            equal_rel(p_s, p_g, tolerance), equal_rel(p_t, p_g, tolerance)
        )
    else:
        grid_state = None

    if market_state is not None and grid_state is not None:
        threat_level, paper_gap = THREAT_TABLE[(market_state, grid_state)]
    else:
        threat_level, paper_gap = None, False

    r_small = r_mid = r_big = None
    p_f_raw = p_f = None
    if None not in (r_e, r_h, r_c):
        r_small, r_mid, r_big = sorted([r_e, r_h, r_c])
        if r_small == r_big or r_mid == 0:
            # a division by zero, which daywatch reports as such
            fail("watch", "p_false_alarm_raw", "NonFiniteResult",
                 "evaluation left the float range")
        else:
            p_f_raw = (mpf(2) / 3) * (r_small / (r_small - r_big)) \
                * ((r_mid - r_big) / r_mid) ** 2
            p_f = min(max(p_f_raw, mpf(0)), mpf(1))

    p1 = p2 = p3 = p4 = None
    p_m_raw = p_m = None
    if None not in (p_s, p_t, p_g, v_m):
        chain = sorted([p_s, p_t, p_g])
        p1 = chain[2]
        p2 = 1 - chain[1] / 2
        p3 = chain[0] / 2
        p4 = (k_c / mpf(3.5)) ** 4 * p3
        inner = (v_m / 100) ** 2 * (1 - v_m / 100) ** 2 * (p1 - p2) ** 2 + p1 * p2
        if inner < 0:
            fail("watch", "p_miss_raw", "NegativeMissRadicand",
                 "miss radicand is negative", inner)
        elif p3 == 0:
            # p4/p3 divides by zero, which daywatch reports as such
            fail("watch", "p_miss_raw", "NonFiniteResult",
                 "evaluation left the float range")
        else:
            p_m_raw = 1 - 2 * sqrt(p4 / p3) * (sqrt(inner) + sqrt(p3 * p4))
            p_m = min(max(p_m_raw, mpf(0)), mpf(1))

    def out(x):
        if x is None:
            return None
        return float(x)

    flags = {
        "paper_gap_flag": bool(paper_gap),
        "valid_percentage": v_m is not None and 0 <= v_m <= 100,
        "v1_in_unit_interval": v1 is not None and 0 <= v1 <= 1,
        "pf_out_of_range": p_f_raw is not None and not 0 <= p_f_raw <= 1,
        "pm_out_of_range": p_m_raw is not None and not 0 <= p_m_raw <= 1,
        "pg_undefined": p_g is None,
    }

    return {
        "input": {
            "date": record.get("date"),
            "t6_1": out(t6_1),
            "t6_2": out(t6_2),
            "t16": out(t16),
            "t24": out(t24),
            "k_c": out(k_c),
            "c_0": out(c_0),
            "delta": out(delta),
        },
        "exponents": {
            "t6_1_s": out(t6_1_s),
            "t6_2_s": out(t6_2_s),
            "t16_s": out(t16_s),
            "t24_s": out(t24_s),
            "perm_a": out(perm_a),
            "l_p1": out(l_p1),
            "l_p2": out(l_p2),
            "l_y1": out(l_y1),
            "l_y2": out(l_y2),
        },
        "grid_model": {
            "rho": out(rho),
            "discriminant": out(discriminant),
            "e1": out(e1),
            "e2": out(e2),
            "omega1": out(omega1),
            "omega2": out(omega2),
            "t1": out(t1),
            "t2": out(t2),
        },
        "potentials": {
            "v1": out(v1),
            "w1": out(w1),
            "u_s": out(u_s),
            "p_x": out(p_x),
            "u_p": out(u_p),
        },
        "distances": {
            "r_e": out(r_e),
            "r_h": out(r_h),
            "r_c": out(r_c),
        },
        "probabilities": {
            "p_s": out(p_s),
            "p_t": out(p_t),
            "p_g": out(p_g),
        },
        "states": {
            "market_state": market_state,
            "grid_state": grid_state,
            "threat_level": threat_level,
        },
        "watch": {
            "trade_volume_pct": out(v_m),
            "r_small": out(r_small),
            "r_mid": out(r_mid),
            "r_big": out(r_big),
            "p_false_alarm_raw": out(p_f_raw),
            "p_false_alarm": out(p_f),
            "p1": out(p1),
            "p2": out(p2),
            "p3": out(p3),
            "p4": out(p4),
            "p_miss_raw": out(p_m_raw),
            "p_miss": out(p_m),
            "errors": errors,
        },
        "flags": flags,
    }

