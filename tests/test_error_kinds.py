"""Every ComputationError kind has an admissible record that reaches it.

The witness table pins, for each kind, one record that run_watch takes
to it with nothing patched.  20,000 plausible draws per log mode (the
benchmark's ranges, seed 11) reach only NonPositiveGap,
NonPositivePotential, NegativeRadicand and, in absolute mode,
NegativeMissRadicand; their rows below are draws of that stream rounded
to one decimal.  The other rows are built at the edges of the float
range.  A kind no admissible record reaches is deleted with its raise
sites, and the completeness test keeps the table and the kinds in step.
"""

import json
from importlib import resources

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
    # A large k_c makes t1 large, and the two terms of v1 cancel to
    # exactly 0 in floats only (the oracle reports NonPositiveGap at r_e).
    # A cancellation-free v1 moves this record, so whoever lands one runs
    # the census again: new witnesses for these two kinds, or their
    # deletion.
    (CLEAN._replace(k_c=1e3),
     "strict", "ZeroImpulse", "grid-analysis", "u_p"),
    (CLEAN._replace(k_c=1e3),
     "strict", "ZeroPotential", "grid-analysis", "trade_volume_pct"),
    (BASELINE, "strict", "NonPositiveGap", "grid-analysis", "r_e"),
    (InputParameters(3.1, 7.8, 10.6, 20.3, 1.9, 12.1, 0.5),
     "strict", "NegativeRadicand", "grid-analysis", "r_h"),
    (BASELINE, "strict", "NonPositivePotential", "grid-analysis", "p_g"),
    # v1 rounds to exactly 1.0, a root of both reliability polynomials,
    # so p3 = 0 (the oracle's v1 is not 1, and it reports no error)
    (InputParameters(7.538452384694071, 12.718142974368972,
                     41.44757547701344, 61.01196185438851,
                     2.8435410615916865, 11.45132008808369,
                     0.9723510265949711),
     "absolute", "ZeroP3", "watch", "p_miss_raw"),
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
