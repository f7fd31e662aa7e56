"""Every ComputationError kind has an admissible record that reaches it.

The witness table pins, for each kind, one record that run_watch takes
to it with nothing patched.  A census of 20,000 draws per stream and
log mode, seed 11, counts the records that report each kind:

                              plausible           wide
                           strict absolute   strict absolute
    NonPositiveGap         17,065   17,065   11,133   11,133
    NonPositivePotential   15,823        0    8,581        0
    NegativeRadicand        4,017    4,017   10,335   10,335
    NegativeMissRadicand        0    1,670    1,511    1,880

Plausible draws are the benchmark's (bench/corpus.py), wide ones those
of test_grid_model.wide_domain_record.  Neither stream reaches another
kind.  The NegativeRadicand and NegativeMissRadicand rows below are
plausible draws rounded to one decimal, the NonPositiveGap and
NonPositivePotential rows the baseline record, and the other rows are
built at the edges of the float range.  A kind no admissible record
reaches is deleted with its raise sites, and the completeness test
keeps the table and the kinds in step.  No kind names a division by
zero: it is reported as NonFiniteResult.
"""

import ast
import json
from importlib import resources
from pathlib import Path

import mpmath
import oracle
import pytest

from daywatch import (
    ComputationError,
    InputParameters,
    RunConfig,
    emit_report,
    run_watch,
)
from daywatch.checks import BASELINE

# the record of the clean fixture, on which every quantity is defined
CLEAN = InputParameters(5.7, 5.7, 15.2, 22.8, 1.0, 38.0, 1.0)

# (record, up-log mode, kind, stage, quantity)
WITNESSES = [
    # per(A) underflows to 0.0 (the oracle's is positive, and it reports
    # NonPositiveGap at r_e instead)
    (CLEAN._replace(t6_1=1e-200, t6_2=1e-200, t16=1e-200, t24=1e-200),
     "strict", "NonPositivePermanent", "lyapunov", "l_p2"),
    # exp(c_0 / 25) leaves the float range
    (CLEAN._replace(c_0=20000.0),
     "strict", "ExponentialOverflow", "lyapunov", "l_y1"),
    # 3 * (2 + l_p1)**2 overflows to inf
    (CLEAN._replace(delta=1e200),
     "strict", "NonFiniteResult", "grid-model", "rho"),
    (BASELINE, "strict", "NonPositiveGap", "grid-analysis", "r_e"),
    (InputParameters(3.1, 7.8, 10.6, 20.3, 1.9, 12.1, 0.5),
     "strict", "NegativeRadicand", "grid-analysis", "r_h"),
    (BASELINE, "strict", "NonPositivePotential", "grid-analysis", "p_g"),
    (InputParameters(5.6, 3.6, 17.7, 22.8, 6.8, 37.1, 1.0),
     "absolute", "NegativeMissRadicand", "watch", "p_miss_raw"),
]


def reject_constant(name):
    raise AssertionError(f"non-finite {name} in the report")


@pytest.mark.parametrize(("record", "mode", "kind", "stage", "quantity"),
                         WITNESSES, ids=[row[2] for row in WITNESSES])
def test_witness_reaches_its_kind(record, mode, kind, stage, quantity):
    report = run_watch(record, RunConfig(up_log_mode=mode))
    assert (kind, stage, quantity) in [
        (e.error, e.stage, e.quantity) for e in report.errors]
    json.loads(emit_report(report), parse_constant=reject_constant)


def test_every_kind_has_a_witness():
    kinds = {cls.__name__ for cls in ComputationError.__subclasses__()}
    assert kinds == {row[2] for row in WITNESSES}


def test_schema_stages_are_the_witnessed_stages():
    schema = json.loads(resources.files("daywatch").joinpath(
        "data", "report_schema.json").read_text(encoding="utf-8"))
    stages = schema["$defs"]["error_record"]["properties"]["stage"]["enum"]
    assert set(stages) == {row[3] for row in WITNESSES}


def test_large_t1_keeps_the_energy_potential():
    # t1 = 1.1e43: the paper's v1 cancels to exactly 0 in floats, and
    # the oracle needs more than 50 digits to keep 1e-9 relative here
    record = CLEAN._replace(k_c=1e3)
    report = run_watch(record)
    with mpmath.workdps(150):
        reference = oracle.evaluate(record._asdict())
    wanted = {**reference["potentials"],
              "trade_volume_pct": reference["watch"]["trade_volume_pct"]}
    for name in ("v1", "w1", "u_s", "u_p", "trade_volume_pct"):
        actual = (report.trade_volume_pct if name == "trade_volume_pct"
                  else report.trace[name])
        assert abs(actual - wanted[name]) <= 1e-9 * abs(wanted[name]), name
    expected = [(e["error"], e["quantity"])
                for e in reference["watch"]["errors"]]
    assert expected == [("NonPositiveGap", "r_e"), ("NegativeRadicand", "r_h")]
    # v_m = -7.4e86 squares past the float range in the miss radicand;
    # the oracle has no float range
    assert [(e.error, e.quantity) for e in report.errors] in (
        expected, expected + [("NonFiniteResult", "p_miss_raw")])


def test_the_oracle_names_only_live_kinds():
    kinds = {cls.__name__ for cls in ComputationError.__subclasses__()}
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    named = [call.args[2] for call in ast.walk(tree)
             if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == "fail"]
    assert named
    for kind in named:
        assert isinstance(kind, ast.Constant), ast.dump(kind)
        assert kind.value in kinds, kind.value
