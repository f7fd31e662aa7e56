"""Grid model assembly: energies, the separability root, frequencies."""

import ast
import math
import random
from pathlib import Path

import mpmath
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daywatch import InputParameters, RunConfig, run_watch
from daywatch.checks import load_golden, payload_mismatches
from daywatch.grid_analysis import UP_LOG_MODES
from daywatch.grid_model import (
    expected_energy,
    expected_time,
    first_frequency,
    second_frequency,
    second_pair,
    separability,
)
from daywatch.io import report_as_dict


class TestFirstPair:
    def test_energy_is_a_product(self):
        assert expected_energy(1.035, 1.4) == pytest.approx(1.449, rel=1e-12)

    def test_time_formula(self):
        value = expected_time(1.035, 1.4, math.exp(2.0), 1.0 + math.exp(0.4))
        assert value == pytest.approx(2.2990593487583673, rel=1e-12)

    def test_first_pair_bundles_both(self):
        l_p1, l_p2, l_y1, l_y2 = 1.035, 1.4, math.exp(2.0), 1.0 + math.exp(0.4)
        e1 = expected_energy(l_p1, l_p2)
        t1 = expected_time(l_p1, l_p2, l_y1, l_y2)
        assert e1 == pytest.approx(1.449, rel=1e-12)
        assert t1 == pytest.approx(2.2990593487583673, rel=1e-12)


class TestSeparability:
    def test_frozen_roots(self):
        rho, discriminant = separability(1.0)
        assert discriminant == pytest.approx(27.0, rel=1e-12)
        assert rho == pytest.approx((3.0 + math.sqrt(27.0)) / 2, rel=1e-12)

        rho, discriminant = separability(0.0)
        assert discriminant == pytest.approx(12.0, rel=1e-12)
        assert rho == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def test_closed_forms(self, l_p1):
        # the quadratic collapses: disc = 3 (2 + l_p1)^2, so
        # rho = (2 + l_p1)(1 + sqrt(3)) / 2
        rho, discriminant = separability(l_p1)
        a = 2.0 + l_p1
        assert discriminant == pytest.approx(3.0 * a * a, rel=1e-12)
        assert rho == pytest.approx(
            a * (1.0 + math.sqrt(3.0)) / 2.0, rel=1e-12
        )

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False))
    @example(-2.0)
    @example(-0.0)
    @example(5e-324)
    @example(math.inf)
    @example(-math.inf)
    def test_discriminant_is_never_negative(self, l_p1):
        # (4 - a**2)/2 - 2 rounds to at most 0, so a**2 is never reduced
        try:
            _, discriminant = separability(l_p1)
        except OverflowError:  # a**2 past the double range
            return
        assert discriminant >= 0


class TestSecondPair:
    def test_frozen_values(self):
        e2, t2 = second_pair(separability(1.0)[0])
        assert e2 == pytest.approx(3.8374891557518304, rel=1e-12)
        assert t2 == pytest.approx(2.6058705560148553, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e150, allow_nan=False))
    @example(100.0)
    @example(1e4)
    def test_root_product_is_ten(self, l_p1):
        # e2 = s/2 and t2 = 20/s share s = rho + offset, so the product
        # is 10 up to the rounding of the division and of the product,
        # whatever rho is: 4 ulps, where the paper's 5*(rho - offset)
        # is already 3e-13 off at l_p1 = 100 and 2e-9 off at 1e4
        e2, t2 = second_pair(separability(l_p1)[0])
        assert e2 * t2 == pytest.approx(10.0, rel=8.9e-16)

    def test_rho_exactly_two_is_allowed(self):
        e2, t2 = second_pair(2.0)
        assert e2 == 1.0
        assert t2 == 10.0


class TestFrequencies:
    def test_first_frequency(self):
        assert first_frequency(1.0, 2.0) == 1.0
        assert first_frequency(3.0, 2.0) == 3.0

    def test_second_frequency(self):
        assert second_frequency(5.0, 2.0) == 5.0

    @pytest.mark.parametrize("fn", [first_frequency, second_frequency])
    def test_zero_time_divides_by_zero(self, fn):
        # no admissible record has a zero time (see the bounds test
        # below); a direct caller gets Python's own error
        with pytest.raises(ZeroDivisionError):
            fn(1.0, 0.0)


def test_build_model_baseline(baseline):
    trace = run_watch(baseline).trace
    assert trace["e1"] == pytest.approx(2.3433590185587128, rel=1e-12)
    assert trace["e2"] == pytest.approx(3.8887340013945537, rel=1e-12)
    assert trace["omega1"] == pytest.approx(0.7516288224883328, rel=1e-12)
    assert trace["omega2"] == pytest.approx(5.746814738024684, rel=1e-12)
    assert trace["t1"] == pytest.approx(2.7540189227271568, rel=1e-12)
    assert trace["t2"] == pytest.approx(2.5715309909121737, rel=1e-12)


def wide_domain_record(rng):
    """Any plausible-to-extreme record: log-uniform times and parameters.

    The four times are log-uniform on 1e-2 to 1e2 h.  k_c, c_0 and delta
    are each 0 half the time, else log-uniform on 1e-3 to 10**2.5,
    1e-3 to 10**3.5 and 1e-6 to 1e12.
    """
    times = [10 ** rng.uniform(-2, 2) for _ in range(4)]
    k_c, c_0, delta = (0.0 if rng.random() < 0.5 else 10 ** rng.uniform(lo, hi)
                       for lo, hi in ((-3, 2.5), (-3, 3.5), (-6, 12)))
    return InputParameters(*times, k_c, c_0, delta)


def test_golden_is_the_oracle_s_baseline_report():
    assert load_golden() == oracle.evaluate(oracle.BASELINE_RECORD)


def test_the_oracle_keeps_what_the_benchmark_reads():
    # the benchmark is not part of the test suite, so a name it reads off
    # the oracle could otherwise go without a failing test
    bench = Path(oracle.__file__).parents[1] / "bench"
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in bench.glob("*.py")]
    names = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "oracle"}
    assert "evaluate" in names
    assert [name for name in sorted(names) if not hasattr(oracle, name)] == []


@pytest.mark.parametrize("mode", UP_LOG_MODES)
def test_reports_match_the_oracle_across_the_domain(mode):
    # every leaf, state, flag and error record, at the golden comparison's
    # 1e-9; at 50 digits the oracle's own v1 and w1 are up to 6e-7 off at
    # t1 = 1e44, so it runs at 150
    rng = random.Random(7)
    config = RunConfig(up_log_mode=mode)
    mismatches = []
    for _ in range(300):
        params = wide_domain_record(rng)
        with mpmath.workdps(150):
            reference = oracle.evaluate(params._asdict(), up_log_mode=mode)
        problems = payload_mismatches(
            report_as_dict(run_watch(params, config)), reference)
        if problems:
            mismatches.append((params, problems))
    assert not mismatches, mismatches[:5]


positive_time = st.floats(min_value=0.0, exclude_min=True,
                          allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
LARGEST = 1.7976931348623157e308


@settings(max_examples=300, deadline=None)
@given(st.builds(InputParameters, positive_time, positive_time,
                 positive_time, positive_time, non_negative, non_negative,
                 non_negative))
@example(InputParameters(5e-324, 5e-324, 5e-324, 5e-324, 0.0, 0.0, 0.0))
@example(InputParameters(*[LARGEST] * 7))
@example(InputParameters(6.0, 6.0, 16.0, 24.0, 4.0, 50.0, 1e154))
@example(InputParameters(6.0, 6.0, 16.0, 24.0, -0.0, -0.0, -0.0))
def test_admissible_records_keep_the_grid_model_bounds(params):
    # why no admissible record divides by a zero l_p1, t1 or t2 or takes
    # the root of rho**2 - 4 < 0: l_p1 = delta + 1 >= 1,
    # t1 >= (1/4)(1 + 1 * 3/2), rho = (2 + l_p1)(1 + sqrt(3))/2 > 4 and
    # t2 = 20/(rho + offset) > 0 while rho is finite
    report = run_watch(params)
    trace = report.trace
    assert trace["l_p1"] >= 1
    assert trace["t1"] is None or trace["t1"] >= 0.625
    assert trace["rho"] is None or trace["rho"] > 4
    assert trace["t2"] is None or trace["t2"] > 0
    # why r_mid is never zero in the false-alarm chain: v1 * l_p1 is a sum
    # of two x/(x**2 + 1/16) <= 2, and v1 is defined only while
    # l_p1 < 1.4e154 (its squares overflow past that), so
    # r_c = exp(-v1 l_p1)/(10 l_p1) > 0; r_e = 1/(128 sqrt(gap)) > 0 too
    # (the largest |v1 l_p1| on 20,000 wide draws is 2.56)
    assert trace["v1"] is None or abs(trace["v1"] * trace["l_p1"]) <= 4
    assert trace["r_c"] is None or trace["r_c"] > 0
    assert trace["r_e"] is None or trace["r_e"] > 0
    assert {error.error for error in report.errors
            if error.stage == "grid-model"} <= {"NonFiniteResult"}
