"""daywatch: deterministic day-ahead prognostic watch for a power grid.

Seven scalars describing tomorrow (four synchronization times, droop,
price level, forecast error) go in; a classified report comes out:
expected free-trade volume, market and grid operating states, a threat
level, and the watch's own false-alarm and miss probabilities, with a
full numeric trace and structured records for every quantity whose
domain preconditions failed.

    from daywatch import InputParameters, run_watch

    report = run_watch(InputParameters(t6_1=5.7, t6_2=5.7, t16=15.2,
                                       t24=22.8, k_c=1, c_0=38, delta=1))
    print(report.states.threat_level, report.degraded)  # low True

This root names what a user of the watch handles: the records, enums,
errors and six entry points.  Each formula is imported from its module.

The built-in self-checks, daywatch.checks, load on first use: a run or a
sweep does not pay for them.
"""

import importlib

from .errors import (
    ComputationError,
    DaywatchError,
    ErrorRecord,
    ExponentialOverflow,
    NegativeMissRadicand,
    NegativeRadicand,
    NonFiniteResult,
    NonPositiveGap,
    NonPositivePermanent,
    NonPositivePotential,
    ParseError,
    ValidationError,
    Violation,
)
from .grid_analysis import OperatingState, ThreatLevel
from .inputs import InputParameters, validate
from .io import (
    SweepEntry,
    SweepSpec,
    emit_report,
    parse_records,
    report_as_dict,
    sweep,
)
from .watch import (
    ReportFlags,
    RunConfig,
    StateClassification,
    WatchReport,
    run_watch,
)

# the public names are written once, above: every name imported but the
# modules (importlib and the submodules that each import binds)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, type(importlib)))

__version__ = "1.0.0"


def __getattr__(name: str):
    # `from . import checks` here would call this function again
    if name == "checks":
        return importlib.import_module(".checks", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
