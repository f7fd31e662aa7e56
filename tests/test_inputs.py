"""Validation and time-scaling behaviour of the input layer."""

import itertools
import logging
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daywatch import InputParameters, ValidationError, Violation, run_watch
from daywatch.inputs import (
    DOUBLING_THRESHOLD_HOURS,
    FIELD_ORDER,
    LONG_DAY_HOURS,
    NONNEGATIVE_FIELDS,
    TIME_FIELDS,
    scale_times,
    validate,
)


def make(**overrides):
    base = dict(
        t6_1=6.0, t6_2=6.0, t16=16.0, t24=24.0, k_c=4.0, c_0=50.0, delta=0.035
    )
    base.update(overrides)
    return InputParameters(**base)


def loop_validate(params):
    """validate as one loop over the fields: the reference for its fast path."""
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
            logging.getLogger("daywatch.inputs").warning(
                "%s = %r exceeds %s h; accepted but suspicious",
                name, value, LONG_DAY_HOURS)
    return params


class Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(function, record):
    """What function(record) returns or raises, and the warnings it logs.

    Each violation is compared by the type and repr of its value, which
    tell an int from a float, -0.0 from 0.0 and a NaN from a NaN.
    """
    logger, handler = logging.getLogger("daywatch.inputs"), Messages()
    logger.addHandler(handler)
    try:
        result = ("returned", function(record) is record)
    except ValidationError as exc:
        result = ("raised", [(v.field, v.kind, type(v.value), repr(v.value))
                             for v in exc.violations])
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


ODD_VALUES = (True, False, 0, 7, -3, 10**400, -10**400, -0.0, 0.0, 5e-324,
              -1.0, LONG_DAY_HOURS, math.nextafter(LONG_DAY_HOURS, math.inf),
              math.nan, math.inf, -math.inf, None, "6")


class TestValidate:
    def test_matches_the_loop_on_each_odd_field(self, baseline):
        for name, value in itertools.product(FIELD_ORDER, ODD_VALUES):
            record = baseline._replace(**{name: value})
            assert outcome(validate, record) \
                == outcome(loop_validate, record), (name, value)

    @settings(max_examples=300, deadline=None)
    @given(base=st.lists(st.floats(min_value=0.0, max_value=60.0),
                         min_size=7, max_size=7),
           changes=st.dictionaries(
               st.sampled_from(FIELD_ORDER),
               st.one_of(st.sampled_from(ODD_VALUES), st.floats(),
                         st.integers(min_value=-100, max_value=100))))
    @example(base=[6.0, 6.0, 16.0, 24.0, 4.0, 50.0, 0.035], changes={})
    @example(base=[6.0] * 7, changes={"t6_1": True, "k_c": 3, "t16": -0.0,
                                      "c_0": -0.0, "delta": math.nan,
                                      "t24": -math.inf, "t6_2": math.inf})
    @example(base=[6.0] * 7, changes={"t24": 10**400})
    @example(base=[6.0] * 7, changes={"t6_2": 49.0, "c_0": 10**400})
    def test_matches_the_loop(self, base, changes):
        record = InputParameters(*base)._replace(**changes)
        assert outcome(validate, record) == outcome(loop_validate, record)

    def test_accepts_baseline(self, baseline):
        validate(baseline)

    def test_collects_every_violation_at_once(self):
        record = make(t6_1=-1.0, t16=0.0, k_c=-2.0, delta=float("nan"))
        with pytest.raises(ValidationError) as excinfo:
            validate(record)
        err = excinfo.value
        assert set(err.fields) == {"t6_1", "t16", "k_c", "delta"}
        kinds = {v.field: v.kind for v in err.violations}
        assert kinds["t6_1"] == "NonPositiveTime"
        assert kinds["t16"] == "NonPositiveTime"
        assert kinds["k_c"] == "NegativeParameter"
        assert kinds["delta"] == "NonFinite"
        for field in ("t6_1", "t16", "k_c", "delta"):
            assert field in str(err)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError) as excinfo:
            validate(make(c_0=bad))
        assert excinfo.value.fields == ("c_0",)

    @pytest.mark.parametrize("huge, value", [(10**400, math.inf),
                                             (-10**400, -math.inf)],
                             ids=["positive", "negative"])
    def test_int_past_the_double_range_is_non_finite(self, huge, value):
        # the value the JSON parser gives such an int, not an OverflowError
        with pytest.raises(ValidationError) as excinfo:
            run_watch(make(t6_1=huge))
        assert excinfo.value.violations == (Violation("t6_1", "NonFinite",
                                                      value),)
        assert "NonFinite(t6_1)" in str(excinfo.value)

    def test_rejects_bool(self):
        # bool is an int subtype; it must not sneak through as 1.0
        with pytest.raises(ValidationError) as excinfo:
            validate(make(k_c=True))
        (violation,) = excinfo.value.violations
        assert violation.field == "k_c"
        assert violation.kind == "NonFinite"

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError) as excinfo:
            validate(make(t24="24"))
        assert excinfo.value.fields == ("t24",)

    def test_zero_time_rejected_but_zero_rate_allowed(self):
        with pytest.raises(ValidationError):
            validate(make(t6_2=0.0))
        validate(make(k_c=0.0, c_0=0.0, delta=0.0))

    def test_long_times_warn_but_pass(self, caplog):
        record = make(t24=LONG_DAY_HOURS + 1.0)
        with caplog.at_level(logging.WARNING, logger="daywatch.inputs"):
            validate(record)
        assert any("t24" in message for message in caplog.messages)

    def test_exactly_48_hours_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="daywatch.inputs"):
            validate(make(t24=LONG_DAY_HOURS))
        assert caplog.messages == []


STARRED = ("t6_1_s", "t6_2_s", "t16_s", "t24_s")


def starred(params):
    """The four starred times of a record, by name."""
    return dict(zip(STARRED, scale_times(*params[:4])))


class TestScaling:
    def test_baseline_scaling(self, baseline):
        scaled = starred(baseline)
        assert scaled["t6_1_s"] == pytest.approx(1.2, rel=1e-15)
        assert scaled["t6_2_s"] == pytest.approx(0.6, rel=1e-15)
        assert scaled["t16_s"] == pytest.approx(1.6, rel=1e-15)
        assert scaled["t24_s"] == pytest.approx(2.4, rel=1e-15)

    def test_results_are_a_plain_tuple_in_trace_order(self, baseline):
        scaled = scale_times(*baseline[:4])
        assert type(scaled) is tuple
        assert list(zip(STARRED, scaled)) \
            == list(run_watch(baseline).trace.items())[:4]

    def test_short_doubling_fields_double(self):
        scaled = starred(make(t6_1=6.0, t16=9.0))
        assert scaled["t6_1_s"] == pytest.approx(1.2, rel=1e-15)
        assert scaled["t16_s"] == pytest.approx(1.8, rel=1e-15)

    @pytest.mark.parametrize("field", ["t6_1", "t16"])
    def test_threshold_is_strict(self, field):
        # exactly at the threshold the plain branch applies
        scaled = field + "_s"
        at = starred(make(**{field: DOUBLING_THRESHOLD_HOURS}))
        assert at[scaled] == pytest.approx(0.95, rel=1e-15)
        assert at[scaled] == DOUBLING_THRESHOLD_HOURS / 10
        hours = math.nextafter(DOUBLING_THRESHOLD_HOURS, 0.0)
        below = starred(make(**{field: hours}))
        assert below[scaled] == pytest.approx(1.9, rel=1e-12)
        # doubled before the division, as the report's bytes pin it
        assert below[scaled] == 2 * hours / 10
        # the other doubling field keeps its own branch
        other = "t16_s" if field == "t6_1" else "t6_1_s"
        assert at[other] == below[other] == starred(make())[other]

    def test_plain_fields_never_double(self):
        scaled = starred(make(t6_2=3.0, t24=3.0))
        assert scaled["t6_2_s"] == pytest.approx(0.3, rel=1e-15)
        assert scaled["t24_s"] == pytest.approx(0.3, rel=1e-15)


def test_values_follow_field_order(baseline):
    assert FIELD_ORDER == ("t6_1", "t6_2", "t16", "t24", "k_c", "c_0", "delta")
    assert InputParameters._fields == FIELD_ORDER + ("date",)
    assert dict(zip(FIELD_ORDER, baseline)) == {
        "t6_1": 6.0, "t6_2": 6.0, "t16": 16.0, "t24": 24.0,
        "k_c": 4.0, "c_0": 50.0, "delta": 0.035,
    }


def test_date_is_carried_but_not_validated():
    record = make()
    assert record.date is None
    dated = InputParameters(
        t6_1=6.0, t6_2=6.0, t16=16.0, t24=24.0, k_c=4.0, c_0=50.0,
        delta=0.035, date="2026-01-01",
    )
    validate(dated)
    assert dated.date == "2026-01-01"
