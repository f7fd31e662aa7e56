"""Structured error taxonomy for the watch pipeline.

Domain failures never escape as NaN or infinity.  A formula raises a
ComputationError whose class names what went wrong; its `detail` string
is a fixed message per failure mode and numeric diagnostics ride in the
separate `value` field, which keeps serialized reports
byte-deterministic.  Where it went wrong is not the formula's to say:
the pipeline step that called it (watch._step) knows the stage and the
quantity it was computing, and builds the report's ErrorRecord from
those plus the error's kind, detail and value.

Each ComputationError kind below earns its place: an admissible record
reaches it through run_watch, unpatched, and tests/test_error_kinds.py
pins one such witness per kind.  No kind names a division by zero: a
division by an exact zero raises ZeroDivisionError, whatever the
formula, and watch._step reports it as NonFiniteResult at the step
where it happened.
"""

from __future__ import annotations

from typing import NamedTuple


class DaywatchError(Exception):
    """Base class for every error raised by this package."""


class Violation(NamedTuple):
    """A single validation failure on one input field."""

    field: str
    kind: str  # NonFinite | NonPositiveTime | NegativeParameter
    value: float

    def describe(self) -> str:
        return f"{self.kind}({self.field}) value={self.value!r}"


class ValidationError(DaywatchError):
    """Input record violates its invariants; lists every violated field."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.describe() for v in self.violations))

    @property
    def fields(self):
        return tuple(v.field for v in self.violations)


class ParseError(DaywatchError):
    """Input text cannot be turned into records at all."""

    def __init__(self, row, detail):
        self.row = row
        self.detail = detail
        super().__init__(f"row {row}: {detail}")


class ErrorRecord(NamedTuple):
    """Where a report's failure happened (its step) and what went wrong."""

    stage: str
    quantity: str
    error: str
    detail: str
    value: float | None = None


class ComputationError(DaywatchError):
    """Domain failure inside one pipeline formula: what, not where.

    The message is built only when asked for: the pipeline turns every
    raise into an ErrorRecord and never reads it.
    """

    def __init__(self, detail: str, value=None):
        self.detail = detail
        self.value = value

    def __str__(self) -> str:
        suffix = "" if self.value is None else f" (value={self.value!r})"
        return f"{self.detail}{suffix}"


class NonPositivePermanent(ComputationError):
    """per(A) <= 0; the logarithm in the second potential exponent is undefined."""


class ExponentialOverflow(ComputationError):
    """An exponential exceeded the 64-bit range; reported, never an inf."""


class NonPositiveGap(ComputationError):
    """u_s - u_p <= 0; the elliptic distance does not exist for this record."""


class NegativeRadicand(ComputationError):
    """Hyperbolic radicand below zero; carries the radicand for diagnostics."""


class NonPositivePotential(ComputationError):
    """u_s <= 0 or u_p <= 0 where a logarithm needs it (strict mode)."""


class NegativeMissRadicand(ComputationError):
    """Inner radicand of the miss probability went negative."""


class NonFiniteResult(ComputationError):
    """A formula produced inf or NaN from finite inputs; reported, never emitted."""
