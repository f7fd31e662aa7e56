"""Grid model assembly: energies, the separability root, frequencies."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daywatch import (
    RhoBelowTwo,
    ZeroTime,
    run_watch,
)
from daywatch.grid_model import (
    expected_energy,
    expected_time,
    first_frequency,
    second_frequency,
    second_pair,
    separability,
)


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
    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_root_product_is_ten(self, l_p1):
        # t2 = 5 (rho - offset) cancels as rho grows; the relative error
        # of the product scales like rho**2 * 2**-53 (~1e-12 at l_p1=100),
        # so the identity holds at the contract tolerance, not at the ulp
        # level
        e2, t2 = second_pair(separability(l_p1)[0])
        assert e2 * t2 == pytest.approx(10.0, rel=1e-9)

    def test_rho_exactly_two_is_allowed(self):
        e2, t2 = second_pair(2.0)
        assert e2 == 1.0
        assert t2 == 10.0

    def test_rho_below_two_is_rejected(self):
        with pytest.raises(RhoBelowTwo) as excinfo:
            second_pair(1.5)
        assert excinfo.value.detail \
            == "rho below 2 makes sqrt(rho**2 - 4) imaginary"
        assert excinfo.value.value == 1.5


class TestFrequencies:
    def test_first_frequency(self):
        assert first_frequency(1.0, 2.0) == 1.0
        assert first_frequency(3.0, 2.0) == 3.0

    def test_second_frequency(self):
        assert second_frequency(5.0, 2.0) == 5.0

    @pytest.mark.parametrize(
        ("fn", "detail"),
        [(first_frequency, "t1 is zero"), (second_frequency, "t2 is zero")],
        ids=["first_frequency-omega1", "second_frequency-omega2"],
    )
    def test_zero_time_is_rejected(self, fn, detail):
        with pytest.raises(ZeroTime) as excinfo:
            fn(1.0, 0.0)
        assert excinfo.value.detail == detail
        assert excinfo.value.value is None


def test_build_model_baseline(baseline):
    trace = run_watch(baseline).trace
    assert trace["e1"] == pytest.approx(2.3433590185587128, rel=1e-12)
    assert trace["e2"] == pytest.approx(3.8887340013945537, rel=1e-12)
    assert trace["omega1"] == pytest.approx(0.7516288224883328, rel=1e-12)
    assert trace["omega2"] == pytest.approx(5.746814738024684, rel=1e-12)
    assert trace["t1"] == pytest.approx(2.7540189227271568, rel=1e-12)
    assert trace["t2"] == pytest.approx(2.5715309909121737, rel=1e-12)
