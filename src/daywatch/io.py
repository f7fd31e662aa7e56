"""Record ingestion, report serialization, and parameter sweeps.

Input formats
    csv    header `date,t6_1,t6_2,t16,t24,k_c,c_0,delta`, one record per
           row; `date` is an opaque pass-through label and may be empty
    json   an array of objects carrying the same keys; `date` optional

Either way a date is stripped of surrounding whitespace and an empty one
is null, so one record gives the same report from both formats.

Records stream: parse_records yields each record unvalidated as its row
is read, so run_watch is the one validator.  A JSON array is read in
fixed chunks and decoded one element at a time (json_reader, imported
for JSON input alone), so neither format holds more of the input than
one chunk and the record being read.

Report serialization is deterministic: fixed key order, shortest
round-trip decimals, and undefined quantities as null next to a flag or
error record saying why.  Serializing the same report twice yields
byte-identical text.

One table, _LAYOUT, lists every report section and its keys in order,
each key once.  report_as_dict, the JSON report and the text report are
all built from it, and so are the getters with which _values takes the
inputs from report.params, the computed quantities from report.trace by
name and the rest from the report, and puts them in layout order with
one permutation made at import.  Each report is one fill of a template
chosen by its error count, at most 23 (_json_template, _text_template),
with its leaf values, each state as it is, and its error records' fields
spliced in at the errors slot, in one flat tuple.  A JSON template is
the stdlib's own json.dumps(indent=2) of the layout nested as in
report_as_dict (_nest), with a NUL in every slot and "\u0000" then
replaced by %s.  The templates, the encoder (_json_encode) and the json
module itself are made on the first JSON report, so a sweep or a text
report never loads json for its output.  The JSON is byte-identical to
json.dumps(report_as_dict(report), indent=2, allow_nan=False) + "\n":
one call of the stdlib's C encoder writes every leaf and every
error-record field of a report as a flat array with NUL as its item
separator, and the array is split on NUL into the template's slots.  A
NUL inside a string comes out escaped as \u0000, so the split is exact,
and a non-finite float raises ValueError.  json.dumps with an indent
builds templates alone because any indent makes CPython 3.11 fall back
to its pure-Python encoder, which took longer than computing the report.

Sweeps stream: sweep yields each point's entry as soon as it is evaluated,
so a caller writes each sweep_row as it goes and holds one report at a time.

SweepSpec and SweepEntry are named tuples, like the reports they carry.
A SweepSpec checks its fields however it is made, _replace and _make
included, so a bad range or step count never reaches sweep.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple, TextIO

from .errors import ErrorRecord, ParseError, ValidationError
from .inputs import FIELD_ORDER, InputParameters
from .watch import (
    ReportFlags,
    RunConfig,
    StateClassification,
    WatchReport,
    run_watch,
)

CSV_HEADER = ("date",) + FIELD_ORDER

INPUT_FORMATS = ("csv", "json")
OUTPUT_FORMATS = ("json", "text")

# Every section of a report and its keys, in serialization order.  Each
# key is one scalar leaf, except "errors", which holds the error records.
_LAYOUT = (
    ("input", ("date",) + FIELD_ORDER),
    ("exponents", ("t6_1_s", "t6_2_s", "t16_s", "t24_s", "perm_a", "l_p1",
                   "l_p2", "l_y1", "l_y2")),
    ("grid_model", ("rho", "discriminant", "e1", "e2", "omega1", "omega2",
                    "t1", "t2")),
    ("potentials", ("v1", "w1", "u_s", "p_x", "u_p")),
    ("distances", ("r_e", "r_h", "r_c")),
    ("probabilities", ("p_s", "p_t", "p_g")),
    ("states", StateClassification._fields),
    ("watch", ("trade_volume_pct", "r_small", "r_mid", "r_big",
               "p_false_alarm_raw", "p_false_alarm", "p1", "p2", "p3", "p4",
               "p_miss_raw", "p_miss", "errors")),
    ("flags", ReportFlags._fields),
)
_SLOTS = tuple(key for _, keys in _LAYOUT for key in keys)
_ERRORS_SLOT = _SLOTS.index("errors")
_LEAVES = _SLOTS[:_ERRORS_SLOT] + _SLOTS[_ERRORS_SLOT + 1:]
_DATE_SLOT = _LEAVES.index("date")
# _values gathers the leaves of the record, the states, the flags, the
# report's own scalars and the trace, in that order, and then permutes them.
_SCALARS = tuple(key for key in _LEAVES if key in WatchReport._fields)
_OWNED = (InputParameters._fields + StateClassification._fields
          + ReportFlags._fields + _SCALARS)
_TRACED = tuple(key for key in _LEAVES if key not in _OWNED)
_scalar_leaves = operator.itemgetter(*map(WatchReport._fields.index, _SCALARS))
_trace_leaves = operator.itemgetter(*_TRACED)
_in_layout_order = operator.itemgetter(*map((_OWNED + _TRACED).index,
                                            _LEAVES))
_text_fields = operator.itemgetter(*map(ErrorRecord._fields.index, (
    "error", "stage", "quantity", "detail")))


def _parse_csv(lines: Iterable[str]) -> Iterator[tuple[int, InputParameters]]:
    # blank lines are skipped and not counted, and input without a header
    # row is an empty batch
    rows = csv.reader(itertools.dropwhile(str.isspace, lines))
    row_number = 0  # of the row being read: the header, then the Nth record
    try:
        header = tuple(cell.strip() for cell in next(rows, CSV_HEADER))
        if header != CSV_HEADER:
            raise ParseError(0, "header must be exactly "
                                f"{','.join(CSV_HEADER)!r}, got "
                                f"{','.join(header)!r}")
        row_number = 1
        for row in rows:
            if not row or len(row) == 1 and row[0].isspace():  # blank line
                continue
            if len(row) != len(CSV_HEADER):
                raise ParseError(row_number,
                                 f"expected {len(CSV_HEADER)} fields, "
                                 f"got {len(row)}")
            numbers = []
            for name, text in zip(FIELD_ORDER, map(str.strip, row[1:])):
                try:
                    numbers.append(float(text))
                except ValueError:
                    raise ParseError(row_number, f"field {name!r} is not "
                                     f"a number: {text!r}") from None
            yield row_number, InputParameters(*numbers,
                                              row[0].strip() or None)
            row_number += 1
    except csv.Error as exc:  # say, a field past csv.field_size_limit()
        raise ParseError(row_number, f"not valid CSV: {exc}") from None


def parse_records(stream: TextIO, format: str = "csv"
                  ) -> Iterator[tuple[int, InputParameters]]:
    """Yield (row_number, record) from text, one row at a time.

    `stream` is an open text file or io.StringIO(text).  CSV iterates it
    by line, so any iterable of lines will do; JSON calls its
    read(size), chunk by chunk, and decodes each element as it is
    reached.  Records are not validated (run_watch does that).
    Whitespace-only input is an empty batch.  Iteration raises
    ParseError at the first unreadable row, after the rows before it.
    """
    if format not in INPUT_FORMATS:
        raise ValueError(f"format must be one of {INPUT_FORMATS}, "
                         f"got {format!r}")
    if format == "csv":
        return _parse_csv(stream)
    from .json_reader import parse_json  # compiled by JSON runs alone
    return parse_json(stream)


def _values(report: WatchReport) -> tuple:
    """The report's leaf values in _LAYOUT order, without the errors."""
    return _in_layout_order((*report.params, *report.states, *report.flags,
                             *_scalar_leaves(report),
                             *_trace_leaves(report.trace)))


def _nest(leaves: Iterator, errors: list) -> dict:
    """The leaves, in _LAYOUT order, and the errors as nested dicts."""
    return {section: {key: errors if key == "errors" else next(leaves)
                      for key in keys}
            for section, keys in _LAYOUT}


def report_as_dict(report: WatchReport) -> dict:
    """Nested dicts in serialization order; states are str-enum members."""
    return _nest(iter(_values(report)),
                 [record._asdict() for record in report.errors])


@functools.cache
def _text_template(count: int) -> str:
    """The text report's template for a report with count error records."""
    errors = "  errors\n" + "    %s in %s/%s: %s\n" * count if count else ""
    return "".join(
        section + "\n" + "".join(errors if key == "errors"
                                 else f"  {key:<18} %s\n" for key in keys)
        for section, keys in _LAYOUT) + "degraded: %s\n"


@functools.cache
def _json_template(count: int) -> str:
    """json.dumps(report_as_dict(report), indent=2) with every leaf and
    every field of the report's count error records a %s slot."""
    import json
    error = dict.fromkeys(ErrorRecord._fields, "\x00")
    return json.dumps(_nest(itertools.repeat("\x00"), [error] * count),
                      indent=2).replace('"\\u0000"', "%s") + "\n"


@functools.cache
def _json_encode() -> Callable[[list], str]:
    """The stdlib C encoder, writing a flat array with NUL between its
    items, built on the first JSON report."""
    import json
    return json.JSONEncoder(allow_nan=False, separators=("\x00", ": ")).encode


def _emit_json(report: WatchReport) -> str:
    leaves = list(_values(report))
    leaves[_ERRORS_SLOT:_ERRORS_SLOT] = itertools.chain.from_iterable(
        report.errors)
    slots = _json_encode()(leaves)[1:-1].split("\x00")
    return _json_template(len(report.errors)) % tuple(slots)


def _emit_text(report: WatchReport) -> str:
    slots = ["undefined" if value is None else value
             for value in _values(report)]
    date = report.params.date
    # a line break or other control character in a date would forge lines
    if isinstance(date, str) and not date.isprintable():
        slots[_DATE_SLOT] = repr(date)
    if report.errors:
        slots[_ERRORS_SLOT:_ERRORS_SLOT] = itertools.chain.from_iterable(
            map(_text_fields, report.errors))
    slots.append(report.degraded)
    return _text_template(len(report.errors)) % tuple(slots)


def emit_report(report: WatchReport, format: str = "json") -> str:
    """Serialize one report; identical reports serialize identically."""
    if format == "json":
        return _emit_json(report)
    if format == "text":
        return _emit_text(report)
    raise ValueError(f"format must be one of {OUTPUT_FORMATS}, "
                     f"got {format!r}")


class _SweepSpecFields(NamedTuple):
    parameter: str
    start: float
    stop: float
    steps: int


class SweepSpec(_SweepSpecFields):
    """Uniform sweep of one input field over [start, stop]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.parameter not in FIELD_ORDER:
            raise ValueError(f"parameter must be one of {FIELD_ORDER}, "
                             f"got {self.parameter!r}")
        if not isinstance(self.steps, int):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps!r}")
        # value_at's largest product is (steps - 2) * (stop - start); an int
        # steps past the double range cannot enter it at all
        try:
            finite = (self.steps - 2) * (self.stop - self.start) < math.inf
        except OverflowError:
            raise ValueError("steps must fit in a float, got a "
                             f"{self.steps.bit_length()}-bit int") from None
        if not (self.start < self.stop and finite):
            raise ValueError("start must be below stop and (steps - 2) * (stop"
                             f" - start) finite, got [{self.start!r}, "
                             f"{self.stop!r}]")
        return self

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)

    def value_at(self, index: int) -> float:
        if index == self.steps - 1:  # the formula may miss stop by an ulp
            return self.stop
        return self.start + index * (self.stop - self.start) / (self.steps - 1)


class SweepEntry(NamedTuple):
    """One sweep point: either a report or the reason there is none."""

    value: float
    report: WatchReport | None
    error: str | None


def sweep(base: InputParameters, spec: SweepSpec,
          config: RunConfig | None = None) -> Iterator[SweepEntry]:
    """Evaluate the pipeline at every sweep point of one parameter.

    Yields exactly spec.steps entries in sweep order, each as soon as its
    point is evaluated; a point whose record is inadmissible yields an
    error entry instead of aborting the sweep.
    """
    # each point is the base's fields with the swept one in its place,
    # made as _replace would make it but without a keyword call per point
    swept = FIELD_ORDER.index(spec.parameter)
    make, head, tail = base._make, base[:swept], base[swept + 1:]
    for index in range(spec.steps):
        value = spec.value_at(index)
        try:
            entry = SweepEntry(value, run_watch(make((*head, value, *tail)),
                                                config), None)
        except ValidationError as exc:
            entry = SweepEntry(value, None, str(exc))
        yield entry
        # hold no report while the next point is evaluated
        del entry


# The columns of a sweep row, one per value sweep_row returns.
SWEEP_COLUMNS = ("value", "trade_volume_pct", *StateClassification._fields,
                 "p_false_alarm", "p_miss", "degraded", "error")


def sweep_row(entry: SweepEntry) -> tuple:
    """The entry as one plot-ready row, a value per SWEEP_COLUMNS name."""
    report = entry.report
    if report is None:  # inadmissible: degraded, for the validation failure
        return (entry.value, None, None, None, None, None, None, True,
                entry.error)
    return (entry.value, report.trade_volume_pct,
            *report.states, report.p_false_alarm,
            report.p_miss, report.degraded,
            "; ".join(f"{r.error}({r.stage}/{r.quantity})"
                      for r in report.errors) or None)
