"""The watch layer: chains, alarm probabilities, and the gated pipeline."""

import gc
import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import daywatch
from daywatch import (
    ComputationError,
    ErrorRecord,
    InputParameters,
    NegativeMissRadicand,
    OperatingState,
    RunConfig,
    StateClassification,
    ThreatLevel,
    ValidationError,
    Violation,
    emit_report,
    grid_analysis,
    grid_model,
    lyapunov,
    run_watch,
    watch,
)
from daywatch.checks import CheckResult
from daywatch.io import _TRACED, SweepEntry, SweepSpec
from daywatch.watch import (
    ReportFlags,
    false_alarm,
    fourth_probability,
    half_chain,
    miss_probability,
)

TRACE_KEYS = (
    "t6_1_s", "t6_2_s", "t16_s", "t24_s",
    "perm_a",
    "l_p1", "l_p2", "l_y1", "l_y2",
    "rho", "discriminant",
    "e1", "e2", "omega1", "omega2", "t1", "t2",
    "v1", "w1", "u_s", "p_x", "u_p",
    "r_e", "r_h", "r_c",
    "p_s", "p_t", "p_g",
    "r_small", "r_mid", "r_big",
    "p1", "p2", "p3", "p4",
)
POTENTIALS = ("v1", "w1", "u_s", "p_x", "u_p")
DISTANCES = ("r_e", "r_h", "r_c")
PROBABILITIES = ("p_s", "p_t", "p_g")
CHAIN = ("r_small", "r_mid", "r_big")
MISS = ("p1", "p2", "p3", "p4")

# The records of the package, each in one of two tables: those whose
# fields take any value, made from ones, and those made by hand.
PLAIN_RECORDS = (InputParameters, StateClassification, ReportFlags,
                 ErrorRecord)
RECORD_MAKERS = {
    "RunConfig": lambda clean: RunConfig(),
    "WatchReport": lambda clean: run_watch(clean),
    "Violation": lambda clean: Violation("t16", "NonFinite", math.nan),
    "SweepSpec": lambda clean: SweepSpec("delta", 0.0, 1.0, 2),
    "SweepEntry": lambda clean: SweepEntry(1.0, None, "ValidationError"),
    "CheckResult": lambda clean: CheckResult("golden", True, ""),
}

distinct_triples = st.tuples(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
).filter(lambda t: len(set(t)) == 3)


# Every step run_watch takes through _step: (module, function, stage,
# quantity, trace keys left None when the step fails on the clean record).
STEPS = [
    (lyapunov, "permanent", "lyapunov", "perm_a",
     {"perm_a", "l_p2", "e1", "t1", "omega1", *POTENTIALS,
      *DISTANCES, *PROBABILITIES, *CHAIN, *MISS}),
    (lyapunov, "permanent_exponent", "lyapunov", "l_p2",
     {"l_p2", "e1", "t1", "omega1", *POTENTIALS, *DISTANCES,
      *PROBABILITIES, *CHAIN, *MISS}),
    (lyapunov, "price_exponent", "lyapunov", "l_y1",
     {"l_y1", "t1", "omega1", "omega2", *POTENTIALS, *DISTANCES,
      *PROBABILITIES, *CHAIN, *MISS}),
    (lyapunov, "droop_exponent", "lyapunov", "l_y2",
     {"l_y2", "t1", "omega1", *POTENTIALS, *DISTANCES,
      *PROBABILITIES, *CHAIN, *MISS}),
    (grid_model, "separability", "grid-model", "rho",
     {"rho", "discriminant", "e2", "t2", "omega2", "p_x", "u_p",
      "r_e", "r_h", "p_g", *CHAIN, *MISS}),
    (grid_model, "expected_energy", "grid-model", "e1",
     {"e1", "p_x", "u_p", "r_e", "r_h", "p_g", *CHAIN, *MISS}),
    (grid_model, "second_pair", "grid-model", "e2",
     {"e2", "t2", "omega2", "p_x", "u_p", "r_e", "r_h", "p_g",
      *CHAIN, *MISS}),
    (grid_model, "expected_time", "grid-model", "t1",
     {"t1", "omega1", *POTENTIALS, *DISTANCES, *PROBABILITIES,
      *CHAIN, *MISS}),
    (grid_model, "first_frequency", "grid-model", "omega1",
     {"omega1", "p_x", "u_p", "r_e", "r_h", "p_g", *CHAIN, *MISS}),
    (grid_model, "second_frequency", "grid-model", "omega2",
     {"omega2", "p_x", "u_p", "r_e", "r_h", "p_g", *CHAIN, *MISS}),
    (grid_analysis, "energy_potential", "grid-analysis", "v1",
     {"v1", "w1", "u_s", "u_p", "r_e", "r_c", *PROBABILITIES,
      *CHAIN, *MISS}),
    (grid_analysis, "auxiliary_potential", "grid-analysis", "p_x",
     {"p_x", "u_p", "r_e", "p_g", *CHAIN, *MISS}),
    (grid_analysis, "frequency_from_auxiliary", "grid-analysis",
     "u_p", {"u_p", "r_e", "p_g", *CHAIN, *MISS}),
    (grid_analysis, "trade_volume", "grid-analysis",
     "trade_volume_pct", set(MISS)),
    (grid_analysis, "elliptic_distance", "grid-analysis", "r_e",
     {"r_e", *CHAIN}),
    (grid_analysis, "hyperbolic_distance", "grid-analysis", "r_h",
     {"r_h", *CHAIN}),
    (grid_analysis, "critical_distance", "grid-analysis", "r_c",
     {"r_c", *CHAIN}),
    (grid_analysis, "star_reliability", "grid-analysis", "p_s",
     {"p_s", *MISS}),
    (grid_analysis, "triangle_reliability", "grid-analysis", "p_t",
     {"p_t", *MISS}),
    (grid_analysis, "quenched_probability", "grid-analysis", "p_g",
     {"p_g", *MISS}),
    (watch, "false_alarm", "watch", "p_false_alarm_raw", set()),
    (watch, "fourth_probability", "watch", "p_miss_raw", {"p4"}),
    (watch, "miss_probability", "watch", "p_miss_raw", set()),
]

# An admissible value of each record type that checks its fields.
ADMISSIBLE = {
    RunConfig: {"equality_tolerance": 1e-6, "up_log_mode": "strict"},
    SweepSpec: {"parameter": "delta", "start": 0.0, "stop": 1.0, "steps": 3},
}


class TupleSubclass(tuple):
    """A tuple subclass, as a step's result may be."""


def undefined_keys(report):
    return {key for key, value in report.trace.items() if value is None}


def with_distances(params, r_e, r_h, r_c):
    """run_watch(params) with the three distances fixed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_analysis, "elliptic_distance", lambda u_s, u_p: r_e)
        patch.setattr(grid_analysis, "hyperbolic_distance",
                      lambda e1, e2, omega1, omega2, t1: r_h)
        patch.setattr(grid_analysis, "critical_distance",
                      lambda v1, l_p1: r_c)
        return run_watch(params)


def miss_chain(p_s, p_t, p_g, k_c, v_m):
    """The miss probability exactly as run_watch chains it."""
    p1, p2, p3 = half_chain(p_s, p_t, p_g)
    return miss_probability(p1, p2, p3, fourth_probability(p3, k_c), v_m)


class TestDistanceChain:
    def test_orders_ascending(self, clean):
        trace = with_distances(clean, r_e=3.0, r_h=1.0, r_c=2.0).trace
        assert (trace["r_small"], trace["r_mid"], trace["r_big"]) == (
            1.0, 2.0, 3.0)

    # the record is immutable, so sharing it across examples is safe
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(triple=distinct_triples)
    def test_is_a_permutation_of_the_inputs(self, clean, triple):
        trace = with_distances(clean, *triple).trace
        assert sorted(triple) == [
            trace["r_small"], trace["r_mid"], trace["r_big"]]


class TestFalseAlarm:
    def test_frozen_example(self):
        # (2/3) * (1/(1-3)) * ((2-3)/2)**2 = -1/12
        raw, clamped, out_of_range = false_alarm(1.0, 2.0, 3.0)
        assert raw == pytest.approx(-1.0 / 12.0, rel=1e-12)
        assert clamped == 0.0
        assert out_of_range is True

    def test_tied_top_of_the_chain_gives_zero(self):
        raw, clamped, out_of_range = false_alarm(1.0, 3.0, 3.0)
        assert raw == 0.0
        assert clamped == 0.0
        assert out_of_range is False

    @pytest.mark.parametrize("chain", [(2.0, 2.0, 2.0), (0.0, 0.0, 1.0)],
                             ids=["equal-distances", "zero-middle"])
    def test_zero_denominator_divides_by_zero(self, chain):
        # no kind of its own: run_watch reports it as NonFiniteResult
        with pytest.raises(ZeroDivisionError):
            false_alarm(*chain)

    @settings(max_examples=100, deadline=None)
    @given(distinct_triples)
    def test_permutation_invariance(self, triple):
        reference = false_alarm(*sorted(triple))
        for permuted in itertools.permutations(triple):
            assert false_alarm(*sorted(permuted)) == reference

    @settings(max_examples=200, deadline=None)
    @given(distinct_triples)
    def test_raw_is_never_positive_for_distinct_distances(self, triple):
        # r_small/(r_small - r_big) < 0 while the square is positive, so
        # the defining formula cannot produce a usable probability; this
        # is why degraded runs are the norm
        raw, clamped, out_of_range = false_alarm(*sorted(triple))
        assert raw <= 0.0
        assert clamped == 0.0
        assert out_of_range == (raw < 0.0)


class TestMissProbability:
    def test_frozen_example(self):
        raw, clamped, out_of_range = miss_chain(1.0, 1.0, 1.0,
                                                k_c=3.5, v_m=100.0)
        assert raw == pytest.approx(-math.sqrt(2.0), rel=1e-12)
        assert clamped == 0.0
        assert out_of_range is True

    def test_zero_droop_scores_certain_miss(self):
        raw, clamped, out_of_range = miss_chain(0.9, 0.8, 0.7,
                                                k_c=0.0, v_m=50.0)
        assert raw == 1.0
        assert clamped == 1.0
        assert out_of_range is False

    def test_droop_enters_as_a_fourth_power(self):
        _, _, p3 = half_chain(0.9, 0.8, 0.7)
        assert fourth_probability(p3, k_c=7.0) / p3 == pytest.approx(
            2.0 ** 4, rel=1e-12)

    def test_half_chain_values(self):
        p1, p2, p3 = half_chain(1.0, 1.0, 1.0)
        assert (p1, p2, p3, fourth_probability(p3, k_c=3.5)) == (
            1.0, 0.5, 0.5, 0.5)

    def test_zero_p3(self):
        _, _, p3 = half_chain(0.0, 0.5, 0.9)
        assert fourth_probability(p3, k_c=2.0) == 0.0
        # no kind of its own: run_watch reports it as NonFiniteResult
        with pytest.raises(ZeroDivisionError):
            miss_chain(0.0, 0.5, 0.9, k_c=2.0, v_m=50.0)

    def test_negative_radicand_carries_the_value(self):
        with pytest.raises(NegativeMissRadicand) as excinfo:
            miss_chain(4.0, 4.0, 4.0, k_c=3.5, v_m=100.0)
        assert excinfo.value.value == pytest.approx(-4.0, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
        ),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_permutation_invariance(self, triple, k_c, v_m):
        reference = miss_chain(*triple, k_c, v_m)
        for permuted in itertools.permutations(triple):
            assert miss_chain(*permuted, k_c, v_m) == reference


class TestRunWatchBaseline:
    def test_error_records(self, baseline):
        report = run_watch(baseline)
        assert [e._asdict() for e in report.errors] == [
            {
                "stage": "grid-analysis",
                "quantity": "r_e",
                "error": "NonPositiveGap",
                "detail": "u_s - u_p is not positive",
                "value": pytest.approx(-12.344732440826878, rel=1e-9),
            },
            {
                "stage": "grid-analysis",
                "quantity": "p_g",
                "error": "NonPositivePotential",
                "detail": "u_s is not positive",
                "value": pytest.approx(-11.655941305417965, rel=1e-9),
            },
        ]

    def test_flags_and_degradation(self, baseline):
        report = run_watch(baseline)
        assert report.flags == ReportFlags(
            paper_gap_flag=False,
            valid_percentage=True,
            v1_in_unit_interval=False,
            pf_out_of_range=False,
            pm_out_of_range=False,
            pg_undefined=True,
        )
        assert report.degraded is True
        assert report.trade_volume_pct == pytest.approx(
            93.54721349296719, rel=1e-12
        )

    def test_undefined_quantities_are_none(self, baseline):
        report = run_watch(baseline)
        assert report.trace["r_e"] is None
        assert report.trace["p_g"] is None
        assert report.trace["r_small"] is None
        assert report.trace["p1"] is None
        assert report.p_false_alarm_raw is None
        assert report.p_miss is None
        assert report.states.market_state is None
        assert report.states.grid_state is None
        assert report.states.threat_level is None

    def test_absolute_log_mode_recovers_p_g(self, baseline):
        report = run_watch(baseline, RunConfig(up_log_mode="absolute"))
        assert [e.error for e in report.errors] == ["NonPositiveGap"]
        # the 1/u_s prefactor keeps the sign, pushing p_g above one
        assert report.trace["p_g"] is not None
        assert report.trace["p_g"] > 1.0
        assert report.flags.pg_undefined is False
        assert report.states.grid_state is OperatingState.NORMAL
        assert report.states.threat_level is None


class TestRunWatchClean:
    def test_no_errors_and_all_quantities_defined(self, clean):
        report = run_watch(clean)
        assert report.errors == ()
        assert tuple(report.trace) == TRACE_KEYS
        assert all(value is not None for value in report.trace.values())

    def test_frozen_spot_values(self, clean):
        trace = run_watch(clean).trace
        assert trace["perm_a"] == pytest.approx(29.75122657, rel=1e-9)
        assert trace["l_p2"] == pytest.approx(2.1511569282381986, rel=1e-12)
        assert trace["rho"] == pytest.approx(5.464101615137754, rel=1e-12)
        assert trace["discriminant"] == pytest.approx(48.0, rel=1e-12)
        assert trace["t1"] == pytest.approx(1.998346569395564, rel=1e-12)
        assert trace["v1"] == pytest.approx(0.13779157394536978, rel=1e-12)
        assert trace["u_s"] == pytest.approx(11.202879384717123, rel=1e-12)
        assert trace["u_p"] == pytest.approx(1.7156006223331046, rel=1e-12)
        assert trace["r_e"] == pytest.approx(0.002536408498020165, rel=1e-12)
        assert trace["r_h"] == pytest.approx(0.013352046313930558, rel=1e-12)
        assert trace["r_c"] == pytest.approx(0.03795646547344739, rel=1e-12)
        assert trace["p_s"] == pytest.approx(0.9997004108579243, rel=1e-12)
        assert trace["p_t"] == pytest.approx(0.8938876980033399, rel=1e-12)
        assert trace["p_g"] == pytest.approx(0.999999979656477, rel=1e-12)

    def test_report_fields(self, clean):
        report = run_watch(clean)
        assert report.trade_volume_pct == pytest.approx(
            93.0147383253803, rel=1e-12
        )
        assert report.states.market_state is OperatingState.NORMAL
        assert report.states.grid_state is OperatingState.NORMAL
        assert report.states.threat_level is ThreatLevel.LOW
        assert report.p_false_alarm_raw == pytest.approx(
            -0.1621097958795685, rel=1e-9
        )
        assert report.p_false_alarm == 0.0
        assert report.p_miss_raw == pytest.approx(
            0.8784582507996027, rel=1e-12
        )
        assert report.p_miss == report.p_miss_raw

    def test_only_structural_flags_degrade_the_run(self, clean):
        report = run_watch(clean)
        assert report.flags.pf_out_of_range is True
        assert report.flags.pm_out_of_range is False
        assert report.flags.valid_percentage is True
        assert report.flags.v1_in_unit_interval is True
        assert report.flags.pg_undefined is False
        assert report.degraded is True

    def test_degraded_goes_quiet_without_flags(self, clean):
        # no full pipeline run can be clean (the false-alarm formula is
        # non-positive for distinct distances), so exercise the predicate
        # on a doctored copy
        report = run_watch(clean)
        healthy = report._replace(
            flags=report.flags._replace(pf_out_of_range=False),
            errors=(),
        )
        assert healthy.degraded is False


class TestRunWatchMisc:
    @pytest.mark.parametrize("record", ["clean", "baseline"])
    def test_trace_holds_the_layout_s_computed_quantities(self, record,
                                                          request):
        # the report table's keys that no other part of the report holds,
        # in report order, defined or not
        report = run_watch(request.getfixturevalue(record))
        assert tuple(report.trace) == _TRACED

    def test_invalid_input_raises_instead_of_reporting(self):
        bad = InputParameters(
            t6_1=-1.0, t6_2=6.0, t16=16.0, t24=24.0,
            k_c=4.0, c_0=50.0, delta=0.035,
        )
        with pytest.raises(ValidationError):
            run_watch(bad)

    def test_emit_is_deterministic(self, baseline, clean):
        for record in (baseline, clean):
            first = emit_report(run_watch(record))
            second = emit_report(run_watch(record))
            assert first == second

    def test_failures_leave_no_cyclic_garbage(self, baseline, clean):
        # a caught exception kept past its except block ties its traceback
        # to the caller's frames in a cycle, which only the collector frees
        records = [clean, baseline,
                   baseline._replace(c_0=1e6, k_c=1e6),  # overflow raised
                   baseline._replace(delta=1e154),  # inf result
                   baseline._replace(delta=1e300)]  # OverflowError
        configs = [RunConfig(up_log_mode=mode)
                   for mode in ("strict", "absolute")]
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                for record, config in itertools.product(records, configs):
                    report = run_watch(record, config)
                    assert report.errors or record is clean
                    emit_report(report, "json")
                    emit_report(report, "text")
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("record_type", PLAIN_RECORDS,
                             ids=lambda record_type: record_type.__name__)
    def test_records_are_immutable(self, record_type):
        record = record_type(*[1.0] * len(record_type._fields))
        with pytest.raises(AttributeError):
            setattr(record, record_type._fields[0], 2.0)
        with pytest.raises(AttributeError):
            record.extra = 2.0
        assert record == (1.0,) * len(record_type._fields)

    @pytest.mark.parametrize("make", list(RECORD_MAKERS.values()),
                             ids=list(RECORD_MAKERS))
    def test_named_tuples_reject_assignment(self, clean, make):
        value = make(clean)
        first = value._fields[0]
        before = getattr(value, first)
        with pytest.raises(AttributeError):
            setattr(value, first, 2.0)
        with pytest.raises(AttributeError):
            value.extra = 2.0
        assert getattr(value, first) is before

    def test_every_record_type_is_in_a_table(self, clean):
        # a record type added to or deleted from the package, or a checks
        # result, must show in one of the two tables above
        public = {value for value in map(vars(daywatch).get, daywatch.__all__)
                  if isinstance(value, type) and issubclass(value, tuple)}
        tabled = set(PLAIN_RECORDS) | {type(make(clean))
                                       for make in RECORD_MAKERS.values()}
        assert tabled == public | {CheckResult}

    @pytest.mark.parametrize("path", [
        lambda cls, fields: cls(*fields.values()),
        lambda cls, fields: cls(**fields),
        lambda cls, fields: cls(**ADMISSIBLE[cls])._replace(**fields),
        lambda cls, fields: cls._make(fields.values()),
    ], ids=["positional", "keyword", "_replace", "_make"])
    @pytest.mark.parametrize("cls, field, value", [
        (RunConfig, "equality_tolerance", 0.0),
        (RunConfig, "equality_tolerance", -1.0),
        (RunConfig, "equality_tolerance", math.nan),
        (RunConfig, "up_log_mode", "loose"),
        (SweepSpec, "start", 1.0),  # start == stop
        (SweepSpec, "start", 2.0),
        (SweepSpec, "stop", math.inf),
        (SweepSpec, "start", -math.inf),
        (SweepSpec, "steps", 1),
        (SweepSpec, "steps", 2.5),
        (SweepSpec, "steps", 3.0),
        (SweepSpec, "parameter", "bogus"),
    ], ids=lambda value: getattr(value, "__name__", str(value)))
    def test_checks_hold_on_every_construction_path(self, path, cls, field,
                                                    value):
        fields = ADMISSIBLE[cls]
        assert path(cls, fields) == tuple(fields.values())
        with pytest.raises(ValueError, match=field):
            path(cls, {**fields, field: value})

    def test_clamp_flags_match_raw_values(self, clean, baseline):
        for record in (clean, baseline):
            report = run_watch(record)
            if report.p_false_alarm_raw is not None:
                assert report.flags.pf_out_of_range == (
                    not 0 <= report.p_false_alarm_raw <= 1
                )
            if report.p_miss_raw is not None:
                assert report.flags.pm_out_of_range == (
                    not 0 <= report.p_miss_raw <= 1
                )


class TestFaultInjection:
    """Force each declared failure and check the containment contract."""

    def test_non_positive_permanent(self, clean, monkeypatch):
        monkeypatch.setattr(lyapunov, "permanent", lambda matrix: 0.0)
        report = run_watch(clean)
        (error,) = report.errors
        assert error.error == "NonPositivePermanent"
        assert (error.stage, error.quantity) == ("lyapunov", "l_p2")
        assert error.value == 0.0
        # l_p1 does not depend on the permanent, so the separability
        # branch still runs
        assert report.trace["perm_a"] == 0.0
        assert report.trace["l_p2"] is None
        assert report.trace["rho"] is not None
        assert report.trace["t2"] is not None
        assert report.trace["omega2"] is not None
        assert report.trace["e1"] is None
        assert report.states.market_state is None
        assert report.degraded is True

    def test_zero_impulse(self, clean, monkeypatch):
        monkeypatch.setattr(
            grid_analysis, "energy_potential",
            lambda l_p1, l_y1, t1: (0.0, 1.0, 2.0),
        )
        report = run_watch(clean)
        # the division by zero has no kind of its own
        assert report.errors == (ErrorRecord(
            "grid-analysis", "u_p", "NonFiniteResult",
            "evaluation left the float range"),)
        assert report.trace["u_p"] is None
        assert report.trace["r_e"] is None
        # reliability side only needs v1, so it stays alive
        assert report.trace["p_s"] == 1.0
        assert report.trace["p_t"] == 1.0
        assert report.flags.pg_undefined is True

    def test_negative_radicand(self, clean, monkeypatch):
        # an oversized e2 drives the hyperbolic radicand negative and the
        # genuine distance code raises, not the injection
        real = grid_analysis.hyperbolic_distance
        monkeypatch.setattr(
            grid_analysis, "hyperbolic_distance",
            lambda e1, e2, omega1, omega2, t1: real(e1, 100.0, omega1,
                                                    omega2, t1),
        )
        report = run_watch(clean)
        assert [e.error for e in report.errors] == ["NegativeRadicand"]
        error = report.errors[0]
        assert (error.stage, error.quantity) == ("grid-analysis", "r_h")
        assert error.value < 0
        assert report.trace["r_h"] is None
        assert report.trace["r_e"] is not None
        assert report.states.market_state is None
        assert report.states.grid_state is not None

    def test_degenerate_chain(self, clean, monkeypatch):
        monkeypatch.setattr(
            grid_analysis, "elliptic_distance", lambda u_s, u_p: 1.0
        )
        monkeypatch.setattr(
            grid_analysis, "hyperbolic_distance",
            lambda e1, e2, omega1, omega2, t1: 1.0
        )
        monkeypatch.setattr(
            grid_analysis, "critical_distance", lambda v1, l_p1: 1.0
        )
        report = run_watch(clean)
        # the division by zero has no kind of its own
        assert report.errors == (ErrorRecord(
            "watch", "p_false_alarm_raw", "NonFiniteResult",
            "evaluation left the float range"),)
        assert report.p_false_alarm_raw is None
        assert report.p_false_alarm is None
        # equal distances exceed nothing, so the market reads normal
        assert report.states.market_state is OperatingState.NORMAL
        assert (report.trace["r_small"], report.trace["r_big"]) == (1.0, 1.0)

    def test_zero_middle(self, clean, monkeypatch):
        monkeypatch.setattr(
            grid_analysis, "elliptic_distance", lambda u_s, u_p: 0.0
        )
        monkeypatch.setattr(
            grid_analysis, "hyperbolic_distance",
            lambda e1, e2, omega1, omega2, t1: 0.0
        )
        report = run_watch(clean)
        assert report.errors == (ErrorRecord(
            "watch", "p_false_alarm_raw", "NonFiniteResult",
            "evaluation left the float range"),)
        assert report.p_false_alarm_raw is None
        assert report.p_false_alarm is None
        # zero distances exceed nothing, so the market reads normal
        assert report.states.market_state is OperatingState.NORMAL
        assert (report.trace["r_small"], report.trace["r_mid"]) == (0.0, 0.0)

    def test_zero_p3(self, clean, monkeypatch):
        monkeypatch.setattr(
            grid_analysis, "star_reliability", lambda v1: 0.0
        )
        report = run_watch(clean)
        # p4/p3 divides by zero, which has no kind of its own
        assert report.errors == (ErrorRecord(
            "watch", "p_miss_raw", "NonFiniteResult",
            "evaluation left the float range"),)
        # the whole chain is fixed when the miss probability fails
        assert report.trace["p1"] is not None
        assert report.trace["p2"] is not None
        assert report.trace["p3"] == 0.0
        assert report.trace["p4"] == 0.0
        assert report.p_miss_raw is None
        assert report.p_miss is None

    @pytest.mark.parametrize(
        ("module", "name", "stage", "quantity", "undefined"), STEPS)
    def test_non_finite_step_blocks_exactly_its_dependents(
            self, clean, monkeypatch, module, name, stage, quantity,
            undefined):
        real = getattr(module, name)
        # a tuple result is checked element by element, a tuple subclass's
        # too: the inf lands in its first element, then in its last
        for inject in (lambda value: (math.inf,) + value[1:],
                       lambda value: value[:-1] + (math.inf,),
                       lambda value: TupleSubclass(value[:-1]
                                                   + (math.inf,))):

            def non_finite(*args, inject=inject):
                value = real(*args)
                if isinstance(value, tuple):
                    return inject(value)
                return math.inf

            monkeypatch.setattr(module, name, non_finite)
            report = run_watch(clean)
            assert report.errors == (ErrorRecord(
                stage, quantity, "NonFiniteResult", "result is not finite"),)
            assert undefined_keys(report) == undefined

    @pytest.mark.parametrize(
        ("module", "name", "stage", "quantity", "undefined"), STEPS)
    def test_raising_step_blocks_exactly_its_dependents(
            self, clean, monkeypatch, module, name, stage, quantity,
            undefined):
        # the error names no place: the step's own stage and quantity do
        def raising(*args):
            raise ComputationError("injected", 1.0)

        monkeypatch.setattr(module, name, raising)
        report = run_watch(clean)
        assert report.errors == (ErrorRecord(
            stage, quantity, "ComputationError", "injected", 1.0),)
        assert undefined_keys(report) == undefined

    def test_non_finite_separability_root_is_contained(self, clean,
                                                       monkeypatch):
        monkeypatch.setattr(
            grid_model, "separability",
            lambda l_p1: (math.inf, math.inf),
        )
        report = run_watch(clean)
        assert [(e.error, e.stage, e.quantity) for e in report.errors] == [
            ("NonFiniteResult", "grid-model", "rho")
        ]
        assert {key for key, value in report.trace.items()
                if value is None} == {
            "rho", "discriminant", "e2", "t2", "omega2", "p_x", "u_p", "r_e",
            "r_h", "p_g", *CHAIN, *MISS}
        emit_report(report)

    def test_division_by_zero_is_contained(self, clean, monkeypatch):
        real = grid_model.second_pair
        monkeypatch.setattr(grid_model, "second_pair",
                            lambda rho: (real(rho)[0], 0.0))
        report = run_watch(clean)
        assert report.errors == (ErrorRecord(
            "grid-model", "omega2", "NonFiniteResult",
            "evaluation left the float range"),)
        assert report.trace["t2"] == 0.0
        assert report.trace["omega2"] is None

    def test_non_finite_result_is_contained(self, clean, monkeypatch):
        monkeypatch.setattr(
            grid_analysis, "hyperbolic_distance",
            lambda e1, e2, omega1, omega2, t1: float("inf"),
        )
        report = run_watch(clean)
        assert [e.error for e in report.errors] == ["NonFiniteResult"]
        assert report.errors[0].detail == "result is not finite"
        assert report.trace["r_h"] is None
        # the emitted document must stay strictly finite
        emit_report(report)
