"""Acceptance gate: nine behavioural contracts, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Tolerances are part of the contract and must not be
loosened; where a comparison needs a scale to be meaningful (the
polynomial cross-check of criterion 4) the scale is stated in place.
"""

import itertools
import json
import math
import random
import time
from importlib import resources

import exact
import pytest

from daywatch import (
    OperatingState,
    ThreatLevel,
    emit_report,
    grid_analysis,
    grid_model,
    lyapunov,
    run_watch,
)
from daywatch.checks import (
    BASELINE,
    exact_permanent,
    load_golden,
    payload_mismatches,
)
from daywatch.cli import main
from daywatch.grid_analysis import (
    STAR_COEFFS,
    TRIANGLE_COEFFS,
    classify_grid,
    classify_market,
    quenched_probability,
    star_reliability,
    threat_level,
    triangle_reliability,
)
from daywatch.io import SweepSpec, report_as_dict, sweep
from daywatch.watch import false_alarm


def relative_gap(actual, expected):
    return abs(actual - expected) / max(abs(actual), abs(expected), 1e-300)


def test_criterion_1_permanent_oracle():
    """The permanent vs. the exact 24-term expansion, 1,000 matrices, < 1 s."""
    rng = random.Random(424242)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        matrix = tuple(
            tuple(rng.uniform(0.0, 3.0) for _ in range(4)) for _ in range(4)
        )
        gap = exact.relative_error(
            lyapunov.permanent(matrix), exact_permanent(matrix)
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst relative gap {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    print(f"criterion 1 permanent oracle: worst gap {worst:.3e}, "
          f"{elapsed * 1000:.0f} ms -> PASS")


def test_criterion_2_separability_identity():
    """Discriminant and root collapse to closed forms on [1, 3]."""
    golden_ratio_like = (1.0 + math.sqrt(3.0)) / 2.0
    for i in range(100):
        l_p1 = 1.0 + 2.0 * i / 99
        rho, discriminant = grid_model.separability(l_p1)
        a = 2.0 + l_p1
        assert relative_gap(discriminant, 3.0 * a * a) <= 1e-9
        assert relative_gap(rho, a * golden_ratio_like) <= 1e-9
    print("criterion 2 separability identity: 100 points within 1e-9 -> PASS")


def test_criterion_3_root_product_identity():
    """e2 * t2 stays at 10 across the same grid of l_p1 values."""
    for i in range(100):
        l_p1 = 1.0 + 2.0 * i / 99
        e2, t2 = grid_model.second_pair(grid_model.separability(l_p1)[0])
        assert abs(e2 * t2 / 10.0 - 1.0) <= 1e-9
    print("criterion 3 root product: |e2*t2/10 - 1| <= 1e-9 -> PASS")


def test_criterion_4_reliability_polynomials():
    """Exact endpoints; evaluators vs. naive power sum at 10,000 points.

    The cross-check is scaled by sum_k |c_k| |x|^k, the conditioning of
    the naive sum.  Near the shared root at x = 1 that sum is
    cancellation noise (~1e-14 with unstable sign), and around
    |x| ~ 1.44 the term sum reaches ~2.5e5 while the value is ~1, so it
    sits ~6e-12 relative from the exact value.  Relative to the term
    scale the two must (and do) agree to a few ulps; a wrong coefficient
    or degree still fails this bound by many orders of magnitude.
    """
    for poly in (star_reliability, triangle_reliability):
        assert abs(poly(0.0) - 1.0) <= 1e-12
        assert abs(poly(1.0)) <= 1e-12

    def naive(coefficients, x):
        degree = len(coefficients) - 1
        return sum(c * x ** (degree - k) for k, c in enumerate(coefficients))

    def scale(coefficients, x):
        degree = len(coefficients) - 1
        return sum(abs(c) * abs(x) ** (degree - k)
                   for k, c in enumerate(coefficients))

    worst = 0.0
    for i in range(10_000):
        x = -0.5 + 2.0 * i / 9_999
        for poly, coefficients in (
            (star_reliability, STAR_COEFFS),
            (triangle_reliability, TRIANGLE_COEFFS),
        ):
            gap = abs(poly(x) - naive(coefficients, x))
            bound = 1e-12 * scale(coefficients, x)
            assert gap <= bound, f"x={x!r}: gap {gap:.3e} > {bound:.3e}"
            worst = max(worst, gap / bound)
    print(f"criterion 4 reliability polynomials: endpoints exact, "
          f"worst scaled gap {worst:.3e} of bound -> PASS")


def test_criterion_5_state_tables():
    """Every ordering, equality pattern, and state pair classifies right."""
    # market: each kernel distance below / at / above the critical one
    r_c = 2.0
    offsets = {-1: 1.0, 0: 2.0, 1: 3.0}
    for e_side, h_side in itertools.product((-1, 0, 1), repeat=2):
        distances = (offsets[e_side], offsets[h_side], r_c)
        exceeds = (e_side > 0, h_side > 0)
        expected = (OperatingState.EMERGENCY if all(exceeds)
                    else OperatingState.RESTORATIVE if any(exceeds)
                    else OperatingState.NORMAL)
        assert classify_market(*distances) is expected, distances

    # grid: closeness patterns of (p_s, p_t) against p_g
    p_g = 0.5
    near, far = 0.5 + 1e-9, 0.9
    patterns = {
        (True, True): OperatingState.EMERGENCY,
        (True, False): OperatingState.RESTORATIVE,
        (False, True): OperatingState.RESTORATIVE,
        (False, False): OperatingState.NORMAL,
    }
    for (s_close, t_close), expected in patterns.items():
        probabilities = (
            near if s_close else far, near if t_close else far, p_g
        )
        assert classify_grid(*probabilities) is expected, probabilities

    # threat: all nine pairs, including the two flagged ones
    table = {
        ("normal", "normal"): (ThreatLevel.LOW, False),
        ("restorative", "normal"): (ThreatLevel.GUARDED, False),
        ("restorative", "restorative"): (ThreatLevel.ELEVATED, False),
        ("restorative", "emergency"): (ThreatLevel.ELEVATED, False),
        ("emergency", "normal"): (ThreatLevel.HIGH, False),
        ("emergency", "restorative"): (ThreatLevel.SEVERE, False),
        ("emergency", "emergency"): (ThreatLevel.SEVERE, False),
        ("normal", "restorative"): (ThreatLevel.GUARDED, True),
        ("normal", "emergency"): (ThreatLevel.GUARDED, True),
    }
    for pair, expected in table.items():
        assert threat_level(*pair) == expected, pair
    print("criterion 5 state tables: 9 + 4 + 9 cases exact -> PASS")


def test_criterion_6_golden_end_to_end():
    """The baseline record reproduces the frozen report, byte-stable."""
    report = run_watch(BASELINE)
    problems = payload_mismatches(report_as_dict(report), load_golden(),
                                  rel=1e-9)
    assert problems == []
    assert emit_report(report) == emit_report(run_watch(BASELINE))
    print("criterion 6 golden end-to-end: frozen report matched at 1e-9, "
          "emission byte-identical -> PASS")


def test_criterion_7_documented_anomalies():
    """The two formula anomalies and the table gap behave as documented."""
    raw, clamped, out_of_range = false_alarm(1.0, 2.0, 3.0)
    assert raw < 0
    assert clamped == 0.0
    assert out_of_range is True

    # strict mode refuses the logarithm whenever u_p is not positive
    for u_p in (0.0, -0.5, -11.0):
        with pytest.raises(grid_analysis.NonPositivePotential):
            quenched_probability(2.0, u_p, 1.0)
    # and u_p <= 0 is the generic outcome of the frequency potential,
    # so the baseline run records exactly this failure for p_g
    baseline_report = run_watch(BASELINE)
    assert "NonPositivePotential" in [e.error for e in baseline_report.errors]
    assert baseline_report.flags.pg_undefined is True

    for pair in (("normal", "restorative"), ("normal", "emergency")):
        level, flagged = threat_level(*pair)
        assert level is ThreatLevel.GUARDED
        assert flagged is True
    print("criterion 7 documented anomalies: sign anomaly, strict-mode "
          "domain error, gap flags -> PASS")


def test_criterion_8_error_path_integrity(clean, monkeypatch):
    """Each declared failure is contained, named, and emits finite JSON."""
    remaining = {
        "NonPositiveGap", "NegativeRadicand", "NonFiniteResult",
        "NonPositivePermanent",
    }
    schema = json.loads(resources.files("daywatch").joinpath(
        "data", "report_schema.json").read_text(encoding="utf-8"))
    stages = schema["$defs"]["error_record"]["properties"]["stage"]["enum"]

    def check(report, expected):
        named = {(e.error, e.stage, e.quantity) for e in report.errors}
        assert any(name == expected for name, _, _ in named), report.errors
        for error, stage, quantity in named:
            assert stage in stages
            assert quantity
        text = emit_report(report)  # allow_nan=False: raises on any NaN/inf
        assert "NaN" not in text and "Infinity" not in text
        remaining.discard(expected)

    with monkeypatch.context() as patch:
        patch.setattr(grid_analysis, "energy_potential",
                      lambda l_p1, l_y1, t1: (0.0, 1.0, 2.0))
        # v1 = 0 divides by zero, which has no kind of its own
        report = run_watch(clean)
        check(report, "NonFiniteResult")
        assert [(e.error, e.stage, e.quantity) for e in report.errors] == [
            ("NonFiniteResult", "grid-analysis", "u_p")]

    check(run_watch(BASELINE), "NonPositiveGap")

    with monkeypatch.context() as patch:
        real = grid_analysis.hyperbolic_distance
        patch.setattr(grid_analysis, "hyperbolic_distance",
                      lambda e1, e2, omega1, omega2, t1: real(
                          e1, 100.0, omega1, omega2, t1))
        check(run_watch(clean), "NegativeRadicand")

    with monkeypatch.context() as patch:
        patch.setattr(grid_analysis, "elliptic_distance",
                      lambda u_s, u_p: 1.0)
        patch.setattr(grid_analysis, "hyperbolic_distance",
                      lambda e1, e2, omega1, omega2, t1: 1.0)
        patch.setattr(grid_analysis, "critical_distance",
                      lambda v1, l_p1: 1.0)
        # equal distances divide by zero, which has no kind of its own
        report = run_watch(clean)
        check(report, "NonFiniteResult")
        assert [(e.error, e.stage, e.quantity) for e in report.errors] == [
            ("NonFiniteResult", "watch", "p_false_alarm_raw")]
        assert report.p_false_alarm_raw is None
        assert report.p_false_alarm is None
        assert report.states.market_state is OperatingState.NORMAL

    with monkeypatch.context() as patch:
        patch.setattr(grid_analysis, "star_reliability", lambda v1: 0.0)
        # so does p3 = 0
        report = run_watch(clean)
        check(report, "NonFiniteResult")
        assert [(e.error, e.stage, e.quantity) for e in report.errors] == [
            ("NonFiniteResult", "watch", "p_miss_raw")]

    with monkeypatch.context() as patch:
        patch.setattr(lyapunov, "permanent", lambda matrix: 0.0)
        check(run_watch(clean), "NonPositivePermanent")

    assert remaining == set()
    print("criterion 8 error-path integrity: 6 declared failures contained, "
          "all emissions finite -> PASS")


def test_criterion_9_sweep_contract(tmp_path, capsys):
    """101 delta points, in order, report-or-error, under a second."""
    spec = SweepSpec(parameter="delta", start=0.0, stop=1.0, steps=101)
    start = time.perf_counter()
    entries = list(sweep(BASELINE, spec))
    elapsed = time.perf_counter() - start
    assert len(entries) == 101
    for index, entry in enumerate(entries):
        assert entry.value == spec.value_at(index)
        assert (entry.report is None) != (entry.error is None)
    assert elapsed < 1.0, f"took {elapsed:.3f} s"

    path = tmp_path / "base.csv"
    path.write_text(
        "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
        "2026-01-01,6,6,16,24,4,50,0.035\n",
        encoding="utf-8",
    )
    code = main(["sweep", "--input", str(path), "--param", "delta",
                 "--from", "0", "--to", "1", "--steps", "101"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2  # degraded points are the norm, not a sweep failure
    assert len(lines) == 102  # header plus one row per entry
    values = [line.split(",", 1)[0] for line in lines[1:]]
    assert values[0] == "0.0" and values[-1] == "1.0"
    print(f"criterion 9 sweep contract: 101 entries in order, "
          f"{elapsed * 1000:.0f} ms -> PASS")
