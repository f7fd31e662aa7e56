"""Potentials, distances, reliability polynomials, and the classifiers."""

import csv
import io
import math

import exact
import mpmath
import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daywatch import (
    InputParameters,
    NegativeRadicand,
    NonPositiveGap,
    NonPositivePotential,
    OperatingState,
    ThreatLevel,
    run_watch,
)
from daywatch.grid_analysis import (
    QUENCH_CONSTANT,
    REGULARIZER,
    STAR_COEFFS,
    STAR_ROOT_ORDER,
    STAR_Y_COEFFS,
    TRIANGLE_COEFFS,
    TRIANGLE_ROOT_ORDER,
    TRIANGLE_Y_COEFFS,
    auxiliary_potential,
    classify_grid,
    classify_market,
    critical_distance,
    elliptic_distance,
    energy_potential,
    frequency_from_auxiliary,
    hyperbolic_distance,
    quenched_probability,
    star_reliability,
    threat_level,
    trade_volume,
    triangle_reliability,
)


def naive_polynomial(coefficients, x):
    degree = len(coefficients) - 1
    return sum(c * x ** (degree - k) for k, c in enumerate(coefficients))


def polynomial_scale(coefficients, x):
    """sum |c_k| |x|^k: the conditioning of evaluating in the monomial basis."""
    degree = len(coefficients) - 1
    return sum(abs(c) * abs(x) ** (degree - k)
               for k, c in enumerate(coefficients))


class TestEnergyPotential:
    def test_unit_arguments(self):
        v1, w1, u_s = energy_potential(l_p1=1.0, l_y1=1.0, t1=1.0)
        assert v1 == pytest.approx(32 / 65, rel=1e-15)
        assert w1 == pytest.approx(3 * math.log(65.0), rel=1e-15)
        assert u_s == pytest.approx(v1 + w1, rel=1e-15)

    def test_symmetric_point_kills_the_log_term(self):
        # t1 = 0 makes both regularised denominators equal
        l_p1 = 2.0
        v1, w1, _ = energy_potential(l_p1=l_p1, l_y1=1.0, t1=0.0)
        assert w1 == 0.0
        assert v1 == pytest.approx(2.0 / (l_p1 ** 2 + REGULARIZER), rel=1e-15)

    def test_price_exponent_scales_quadratically(self):
        v1, w1, u_s = energy_potential(l_p1=1.0, l_y1=3.0, t1=1.0)
        assert u_s == pytest.approx(9.0 * v1 + w1, rel=1e-15)

    def test_regularizer_value(self):
        assert REGULARIZER == 1 / 16


class TestFrequencyPotential:
    def test_auxiliary_is_unguarded(self):
        assert auxiliary_potential(2.0, 0.0, 0.0) == 0.0
        assert auxiliary_potential(1.0, 1.0, 2.0) == -7.0

    def test_frozen_value(self):
        value = frequency_from_auxiliary(p_x=0.0, v1=0.5, t1=1.0)
        assert value == pytest.approx(-math.exp(0.5), rel=1e-15)

    def test_zero_impulse_divides_by_zero(self):
        # no kind of its own: run_watch reports it as NonFiniteResult
        with pytest.raises(ZeroDivisionError):
            frequency_from_auxiliary(0.0, v1=0.0, t1=1.0)


class TestTradeVolume:
    def test_calibration_point(self):
        # 9 pi**4 / u_s**2 = 1 exactly when u_s = 3 pi**2
        assert trade_volume(3 * math.pi ** 2) == pytest.approx(99.0, rel=1e-12)

    def test_large_potential_approaches_hundred(self):
        assert abs(trade_volume(1e6) - 100.0) < 1e-3

    def test_small_potential_goes_strongly_negative(self):
        assert trade_volume(0.1) < -80_000

    def test_sign_of_u_s_does_not_matter(self):
        assert trade_volume(-3 * math.pi ** 2) == trade_volume(3 * math.pi ** 2)

    def test_zero_potential(self):
        # no kind of its own: run_watch reports it as NonFiniteResult
        with pytest.raises(ZeroDivisionError):
            trade_volume(0.0)

    def test_squared_underflow(self):
        # no kind of its own: run_watch reports it as NonFiniteResult
        with pytest.raises(ZeroDivisionError):
            trade_volume(1e-170)


class TestDistances:
    def test_elliptic_frozen_points(self):
        assert elliptic_distance(2.0, 1.0) == pytest.approx(1 / 128, rel=1e-12)
        assert elliptic_distance(1 / 16384, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_elliptic_gap_guard_includes_the_gap(self):
        with pytest.raises(NonPositiveGap) as excinfo:
            elliptic_distance(1.0, 1.0)
        assert excinfo.value.value == 0.0
        with pytest.raises(NonPositiveGap) as excinfo:
            elliptic_distance(0.5, 3.0)
        assert excinfo.value.value == -2.5

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-8, max_value=1e8, allow_nan=False))
    def test_elliptic_inverse_square_root_law(self, gap):
        assert elliptic_distance(gap, 0.0) * math.sqrt(gap) == pytest.approx(
            1 / 128, rel=1e-12
        )

    def test_hyperbolic_frozen_points(self):
        unit = hyperbolic_distance(e1=0.0, e2=0.0, omega1=16 * math.pi ** 2.5,
                                   omega2=0.0, t1=0.0)
        assert unit == pytest.approx(1.0, rel=1e-12)
        flat = hyperbolic_distance(e1=0.0, e2=0.0, omega1=0.0, omega2=0.0,
                                   t1=0.0)
        assert flat == 0.0

    def test_hyperbolic_negative_radicand(self):
        with pytest.raises(NegativeRadicand) as excinfo:
            hyperbolic_distance(e1=0.0, e2=2.0, omega1=0.0, omega2=0.0,
                                t1=0.0)
        assert excinfo.value.value == -4.0

    def test_critical_frozen_points(self):
        assert critical_distance(0.0, 1.0) == pytest.approx(0.1, rel=1e-15)
        assert critical_distance(1.0, 1.0) == pytest.approx(
            math.exp(-1) / 10, rel=1e-15
        )

    def test_critical_decreases_with_l_p1(self):
        values = [critical_distance(0.3, l_p1)
                  for l_p1 in (0.5, 1.0, 2.0, 3.0, 5.0)]
        assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("call", [
    lambda: energy_potential(l_p1=0.0, l_y1=1.0, t1=1.0),
    lambda: critical_distance(0.5, 0.0),
    lambda: frequency_from_auxiliary(0.0, v1=0.5, t1=0.0),
], ids=["energy_potential", "critical_distance",
        "frequency_from_auxiliary"])
def test_zero_l_p1_or_t1_divides_by_zero(call):
    # no admissible record has l_p1 < 1 or t1 < 0.625; a direct
    # caller gets Python's own error
    with pytest.raises(ZeroDivisionError):
        call()


class TestMarketClassifier:
    @pytest.mark.parametrize(
        ("r_e", "r_h", "expected"),
        [
            (1.0, 1.0, OperatingState.NORMAL),
            (3.0, 1.0, OperatingState.RESTORATIVE),
            (1.0, 3.0, OperatingState.RESTORATIVE),
            (3.0, 3.0, OperatingState.EMERGENCY),
        ],
    )
    def test_quadrants(self, r_e, r_h, expected):
        assert classify_market(r_e, r_h, 2.0) is expected

    def test_equality_does_not_exceed(self):
        assert classify_market(2.0, 2.0, 2.0) is OperatingState.NORMAL
        assert classify_market(2.0, 3.0, 2.0) is (
            OperatingState.RESTORATIVE
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, r_e, r_h, r_c, scale):
        # keep every comparison decisively away from the boundary, where
        # a half-ulp of multiplication rounding could legitimately flip it
        assume(abs(r_e - r_c) > 1e-6 * r_c)
        assume(abs(r_h - r_c) > 1e-6 * r_c)
        original = classify_market(r_e, r_h, r_c)
        rescaled = classify_market(r_e * scale, r_h * scale, r_c * scale)
        assert rescaled is original

    @pytest.mark.parametrize("distances", [
        (math.nan, math.nan, math.nan), (1.0, 2.0, math.nan),
        (math.inf, math.inf, math.inf),
    ], ids=str)
    def test_non_finite_distance_is_rejected(self, distances):
        # no comparison with NaN is true, so these read as normal
        with pytest.raises(ValueError, match="finite"):
            classify_market(*distances)


class TestReliabilityPolynomials:
    @pytest.mark.parametrize("poly", [star_reliability, triangle_reliability])
    def test_certain_endpoints(self, poly):
        assert poly(0.0) == 1.0
        assert poly(1.0) == 0.0

    @pytest.mark.parametrize(
        ("poly", "coefficients"),
        [(star_reliability, STAR_COEFFS),
         (triangle_reliability, TRIANGLE_COEFFS)],
    )
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
    def test_accurate_against_exact_value(self, poly, coefficients, x):
        # relative, including next to the multiple root at v1 = 1
        assert exact.relative_error(
            poly(x), exact.polynomial(coefficients, x)) <= 1e-12

    @pytest.mark.parametrize(
        ("poly", "coefficients"),
        [(star_reliability, STAR_COEFFS),
         (triangle_reliability, TRIANGLE_COEFFS)],
    )
    def test_accurate_next_to_the_root(self, poly, coefficients):
        for k in range(1, 16):
            for x in (1.0 - 10.0 ** -k, 1.0 + 10.0 ** -k):
                assert exact.relative_error(
                    poly(x), exact.polynomial(coefficients, x)) <= 1e-12, x

    def test_tiny_values_near_the_root_keep_sign_and_digits(self):
        v1 = 0.9999693596596183
        assert triangle_reliability(v1) == pytest.approx(
            1.4914477769510e-34, rel=1e-12, abs=0)
        assert star_reliability(v1) == pytest.approx(
            3.4992698829759e-20, rel=1e-12, abs=0)

    def test_near_one_margin_is_v1_s_not_the_polynomial_s(self):
        # the benchmark's near_one edge record on the baseline, v1 = 1 + 1e-5:
        # p_t's condition number there is 8|v1/(1 - v1)| = 8e5, so v1's
        # 6 ulps put p_t 1.1e-9 off its true value, past the benchmark's
        # 1e-9, while at daywatch's own v1 the polynomial is exact to 3e-17
        record = InputParameters(6.0, 6.0, 16.0, 24.0, 4.0,
                                 9.932319950856053, 0.035)
        trace = run_watch(record).trace
        with mpmath.workdps(150):
            wanted = oracle.evaluate(record._asdict())["potentials"]["v1"]
        assert abs(trace["v1"] - wanted) <= 8 * math.ulp(wanted)
        assert exact.relative_error(trace["p_t"], exact.polynomial(
            TRIANGLE_COEFFS, trace["v1"])) <= 1e-15

    @pytest.mark.parametrize(
        ("coefficients", "root_order", "y_coefficients"),
        [(STAR_COEFFS, STAR_ROOT_ORDER, STAR_Y_COEFFS),
         (TRIANGLE_COEFFS, TRIANGLE_ROOT_ORDER, TRIANGLE_Y_COEFFS)],
        ids=["star", "triangle"],
    )
    def test_y_coefficients_are_the_monomials_in_one_minus_v1(
            self, coefficients, root_order, y_coefficients):
        # p(1 - y) = sum_k a_k (1 - y)**k has the y**j coefficient
        # (-1)**j sum_k a_k C(k, j); in integers it must be exactly
        # y**root_order times the y-polynomial
        assert all(c == int(c) for c in coefficients + y_coefficients)
        monomial = [int(c) for c in reversed(coefficients)]
        in_y = [(-1) ** j * sum(a * math.comb(k, j)
                                for k, a in enumerate(monomial))
                for j in range(len(monomial))]
        assert in_y == [0] * root_order + [
            int(c) for c in reversed(y_coefficients)]

    def test_leading_terms(self):
        assert STAR_COEFFS[0] == -120.0
        assert len(STAR_COEFFS) == 16
        assert TRIANGLE_COEFFS[0] == 79.0
        assert len(TRIANGLE_COEFFS) == 13

    @pytest.mark.parametrize(
        ("poly", "coefficients"),
        [(star_reliability, STAR_COEFFS),
         (triangle_reliability, TRIANGLE_COEFFS)],
    )
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
    def test_horner_matches_naive_evaluation(self, poly, coefficients, x):
        # comparison is scaled by the term-magnitude sum: near the root the
        # naive sum is pure cancellation noise and plain relative error
        # against it is unbounded
        scale = polynomial_scale(coefficients, x)
        assert abs(poly(x) - naive_polynomial(coefficients, x)) <= 1e-12 * scale


class TestQuenchedProbability:
    def test_equal_potentials_give_zero(self):
        assert quenched_probability(1.0, 1.0, 5.0) == 0.0

    def test_engineered_value(self):
        # log gap 1, e1 = QUENCH_CONSTANT/4 makes the exponent exactly -1
        p_g = quenched_probability(1.0, math.exp(-1.0), QUENCH_CONSTANT / 4)
        assert p_g == pytest.approx(1 - math.exp(-1.0), rel=1e-12)

    def test_strict_mode_rejects_non_positive_arguments(self):
        with pytest.raises(NonPositivePotential) as excinfo:
            quenched_probability(-1.0, 1.0, 1.0)
        assert excinfo.value.detail == "u_s is not positive"
        assert excinfo.value.value == -1.0
        with pytest.raises(NonPositivePotential) as excinfo:
            quenched_probability(1.0, -2.0, 1.0)
        assert excinfo.value.detail == "u_p is not positive"
        assert excinfo.value.value == -2.0
        with pytest.raises(NonPositivePotential) as excinfo:
            quenched_probability(1.0, 0.0, 1.0)
        assert excinfo.value.value == 0.0

    def test_absolute_mode_uses_magnitudes(self):
        strict = quenched_probability(1.0, math.exp(-1.0), QUENCH_CONSTANT / 4)
        mirrored = quenched_probability(
            1.0, -math.exp(-1.0), QUENCH_CONSTANT / 4, up_log_mode="absolute"
        )
        assert mirrored == strict

    def test_absolute_mode_keeps_the_prefactor_sign(self):
        value = quenched_probability(
            -1.0, math.exp(-1.0), QUENCH_CONSTANT / 4, up_log_mode="absolute"
        )
        assert value == pytest.approx(1 + math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize(
        ("u_s", "u_p", "detail"),
        [(0.0, 1.0, "u_s is zero"), (1.0, 0.0, "u_p is zero")],
    )
    def test_absolute_mode_still_rejects_zero(self, u_s, u_p, detail):
        with pytest.raises(NonPositivePotential) as excinfo:
            quenched_probability(u_s, u_p, 1.0, up_log_mode="absolute")
        assert excinfo.value.detail == detail
        assert excinfo.value.value is None

    def test_unknown_mode_is_a_usage_error(self):
        with pytest.raises(ValueError):
            quenched_probability(1.0, 1.0, 1.0, up_log_mode="weird")


class TestGridClassifier:
    def test_proximity_is_the_alarm(self):
        p_g = 0.5
        assert classify_grid(0.9, 0.1, p_g) is OperatingState.NORMAL
        assert classify_grid(
            p_g + 1e-9, 0.9, p_g
        ) is OperatingState.RESTORATIVE
        assert classify_grid(
            p_g + 1e-9, p_g - 1e-9, p_g
        ) is OperatingState.EMERGENCY

    def test_tolerance_is_relative_for_large_references(self):
        # |p_s - p_g| = 1 is within 1e-6 * 2e6 = 2 of the reference
        probabilities = (2e6 + 1.0, 0.0, 2e6)
        assert classify_grid(*probabilities) is OperatingState.RESTORATIVE
        assert classify_grid(
            *probabilities, tolerance=1e-8
        ) is OperatingState.NORMAL

    def test_tolerance_floor_is_absolute_near_zero(self):
        # max(1, |p_g|) keeps tiny references from demanding exact equality
        assert classify_grid(1e-7, 0.9, 0.0) is OperatingState.RESTORATIVE

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_non_positive_tolerance_is_rejected(self, bad):
        with pytest.raises(ValueError):
            classify_grid(1.0, 1.0, 1.0, tolerance=bad)

    @pytest.mark.parametrize("probabilities", [
        (0.5, 0.2, math.inf), (math.inf, 0.2, 0.5), (0.5, 0.2, math.nan),
    ], ids=str)
    def test_non_finite_probability_is_rejected(self, probabilities):
        # every finite value is within tolerance * inf of an infinity
        with pytest.raises(ValueError, match="finite"):
            classify_grid(*probabilities)


@pytest.mark.parametrize("state", [*OperatingState, *ThreatLevel],
                         ids=lambda state: state.value)
def test_a_state_prints_as_its_value(state):
    row = io.StringIO()
    csv.writer(row, lineterminator="\n").writerow([state])
    assert (str(state), f"{state}", row.getvalue()) \
        == (state.value, state.value, state.value + "\n")


class TestThreatTable:
    @pytest.mark.parametrize(
        ("market", "grid", "expected", "flagged"),
        [
            ("normal", "normal", ThreatLevel.LOW, False),
            ("restorative", "normal", ThreatLevel.GUARDED, False),
            ("restorative", "restorative", ThreatLevel.ELEVATED, False),
            ("restorative", "emergency", ThreatLevel.ELEVATED, False),
            ("emergency", "normal", ThreatLevel.HIGH, False),
            ("emergency", "restorative", ThreatLevel.SEVERE, False),
            ("emergency", "emergency", ThreatLevel.SEVERE, False),
            ("normal", "restorative", ThreatLevel.GUARDED, True),
            ("normal", "emergency", ThreatLevel.GUARDED, True),
        ],
    )
    def test_all_nine_pairs(self, market, grid, expected, flagged):
        level, flag = threat_level(market, grid)
        assert level is expected
        assert flag is flagged

    def test_accepts_enum_members_too(self):
        level, flag = threat_level(
            OperatingState.EMERGENCY, OperatingState.NORMAL
        )
        assert level is ThreatLevel.HIGH
        assert flag is False
