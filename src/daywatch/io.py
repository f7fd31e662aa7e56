"""Record ingestion, report serialization, and parameter sweeps.

Input formats
    csv    header `date,t6_1,t6_2,t16,t24,k_c,c_0,delta`, one record per
           row; `date` is an opaque pass-through label and may be empty
    json   an array of objects carrying the same keys; `date` optional

Records stream: parse_records yields each record unvalidated as its row
is read, so run_watch is the one validator.  A JSON array is read in
fixed chunks and decoded one element at a time, so neither format holds
more of the input than one chunk and the record being read.

Report serialization is deterministic: fixed key order, shortest
round-trip decimals, and undefined quantities as null next to a flag or
error record saying why.  Serializing the same report twice yields
byte-identical text.

One table, _LAYOUT, lists every report section and its keys in order.
report_as_dict, the JSON report and the text report are all built from
it.  Both emitters fill a %-template made once at import from the
layout, with the report's leaf values gathered into one flat tuple.  The
JSON is byte-identical to json.dumps(report_as_dict(report), indent=2,
allow_nan=False) + "\n": one call of the stdlib's C encoder writes every
leaf and every error-record field of a report as a flat array with NUL
as its item separator, and the array is split on NUL into the template's
slots.  A NUL inside a string comes out escaped as \u0000, so the split
is exact, and a non-finite float raises ValueError.  json.dumps with an
indent is not called because any indent makes CPython 3.11 fall back to
its pure-Python encoder, which took longer than computing the report.

Sweeps stream: sweep yields each point's entry as soon as it is evaluated,
so a caller writes each sweep_row as it goes and holds one report at a time.

SweepSpec and SweepEntry are named tuples, like the reports they carry.
A SweepSpec checks its fields however it is made, _replace and _make
included, so a bad range or step count never reaches sweep.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii as _encode_string
from typing import NamedTuple, TextIO

from .config import RunConfig
from .errors import ErrorRecord, ParseError, ValidationError
from .grid_analysis import StateClassification
from .inputs import FIELD_ORDER, InputParameters
from .watch import ReportFlags, WatchReport, run_watch

CSV_HEADER = ("date",) + FIELD_ORDER

INPUT_FORMATS = ("csv", "json")
OUTPUT_FORMATS = ("json", "text")

# Trace keys of each report block, in serialization order.
_EXPONENT_KEYS = ("t6_1_s", "t6_2_s", "t16_s", "t24_s", "perm_a",
                  "l_p1", "l_p2", "l_y1", "l_y2")
_MODEL_KEYS = ("rho", "discriminant", "e1", "e2", "omega1", "omega2",
               "t1", "t2")
_POTENTIAL_KEYS = ("v1", "w1", "u_s", "p_x", "u_p")
_DISTANCE_KEYS = ("r_e", "r_h", "r_c")
_PROBABILITY_KEYS = ("p_s", "p_t", "p_g")
_CHAIN_KEYS = ("r_small", "r_mid", "r_big")
_MISS_KEYS = ("p1", "p2", "p3", "p4")
# Attributes of the report's states, and of each of its error records.
_STATE_KEYS = StateClassification._fields
_ERROR_KEYS = ErrorRecord._fields

# Every section of a report and its keys, in serialization order.  Each
# key is one scalar leaf, except "errors", which holds the error records.
_LAYOUT = (
    ("input", ("date",) + FIELD_ORDER),
    ("exponents", _EXPONENT_KEYS),
    ("grid_model", _MODEL_KEYS),
    ("potentials", _POTENTIAL_KEYS),
    ("distances", _DISTANCE_KEYS),
    ("probabilities", _PROBABILITY_KEYS),
    ("states", _STATE_KEYS),
    ("watch", ("trade_volume_pct",) + _CHAIN_KEYS
     + ("p_false_alarm_raw", "p_false_alarm") + _MISS_KEYS
     + ("p_miss_raw", "p_miss", "errors")),
    ("flags", ReportFlags._fields),
)
_SLOTS = tuple(key for _, keys in _LAYOUT for key in keys)
_ERRORS_SLOT = _SLOTS.index("errors")
_LEAF_COUNT = len(_SLOTS) - 1
# The trace leaves of the report, in three runs between the other leaves.
_block_leaves = operator.itemgetter(
    *_EXPONENT_KEYS, *_MODEL_KEYS, *_POTENTIAL_KEYS, *_DISTANCE_KEYS,
    *_PROBABILITY_KEYS)
_chain_leaves = operator.itemgetter(*_CHAIN_KEYS)
_miss_leaves = operator.itemgetter(*_MISS_KEYS)


def _parse_csv(lines: Iterable[str]) -> Iterator[tuple[int, InputParameters]]:
    # blank lines before the header are skipped, and input without a
    # header row is an empty batch
    rows = csv.reader(itertools.dropwhile(str.isspace, lines))
    header = tuple(cell.strip() for cell in next(rows, CSV_HEADER))
    if header != CSV_HEADER:
        raise ParseError(1, "header must be exactly "
                            f"{','.join(CSV_HEADER)!r}, got "
                            f"{','.join(header)!r}")
    for row_number, row in enumerate(rows, start=1):
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
                raise ParseError(row_number, f"field {name!r} is not a "
                                 f"number: {text!r}") from None
        yield row_number, InputParameters(*numbers, row[0].strip() or None)


# JSON input is read in chunks of this many characters
_CHUNK_SIZE = 64 * 1024
_skip_whitespace = json.decoder.WHITESPACE.match
_decode_value = json.JSONDecoder().raw_decode
# the keys a JSON record must have, and those it may have
_REQUIRED_KEYS = frozenset(FIELD_ORDER)
_ALLOWED_KEYS = _REQUIRED_KEYS | {"date"}
# a token cut by the buffer's end fails within this many characters of it
_LONGEST_TOKEN = len("-Infinity")


def _json_elements(stream: TextIO) -> Iterator[tuple[int, object]]:
    """Yield (row_number, element) for each element of a JSON array.

    The stream is read _CHUNK_SIZE characters at a time and each element
    decoded where it starts, so only the unread rest of a chunk and the
    element being read are held.  A syntax error is reported as soon as
    more input cannot mend it.  A number element cut by a chunk's end
    decodes short: records are objects, so the caller rejects a number
    element whatever its value.  Input that is not an array is decoded
    whole, so that json.loads gives its messages.
    """
    # leading whitespace is kept: it moves the positions those messages give
    chunks = []
    while chunk := stream.read(_CHUNK_SIZE):
        chunks.append(chunk)
        if _skip_whitespace(chunk).end() < len(chunk):
            break
    buffer = "".join(chunks)
    index = _skip_whitespace(buffer).end()
    if buffer[index:index + 1] != "[":
        text = buffer + stream.read()
        if not text.strip():
            return
        try:
            json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError is also raised for an int past the digit limit
            raise ParseError(0, f"not valid JSON: {exc}") from None
        raise ParseError(0, "top level must be an array of records")
    # buffer[index] is the input's character number offset + index
    index, offset, eof = index + 1, 0, False

    def refill() -> None:
        # read at least as much as is pending, so that an element n
        # characters long is decoded afresh O(log n) times
        nonlocal buffer, index, offset, eof
        chunk = stream.read(max(_CHUNK_SIZE, len(buffer) - index))
        buffer, offset, index = buffer[index:] + chunk, offset + index, 0
        eof = not chunk

    def next_character() -> str:
        """The next character that is not whitespace; "" at the end."""
        nonlocal index
        while True:
            index = _skip_whitespace(buffer, index).end()
            if index < len(buffer) or eof:
                return buffer[index:index + 1]
            refill()

    def syntax_error(row: int, message: str, at: int) -> ParseError:
        return ParseError(row, f"not valid JSON: {message} "
                               f"(char {offset + at})")

    row = 0
    character = next_character()
    while character != "]":
        if row:
            if character != ",":
                raise syntax_error(row + 1, "Expecting ',' delimiter", index)
            index += 1
        row += 1
        while True:
            index = _skip_whitespace(buffer, index).end()
            try:
                element, end = _decode_value(buffer, index)
                break
            except json.JSONDecodeError as exc:
                # the element may go on in the next chunk only if the
                # decode ran into the buffer's end: an open string, or
                # a token cut short
                if eof or not (
                        exc.msg.startswith("Unterminated string")
                        or exc.pos >= len(buffer) - _LONGEST_TOKEN):
                    raise syntax_error(row, exc.msg, exc.pos) from None
            except (ValueError, RecursionError) as exc:
                # past the digit limit or nested too deep: more input
                # cannot mend it
                raise ParseError(row, f"not valid JSON: {exc}") from None
            refill()
        yield row, element
        index = _skip_whitespace(buffer, end).end()
        character = buffer[index:index + 1] or next_character()
    index += 1
    if next_character():
        raise syntax_error(0, "Extra data", index)


def _parse_json(stream: TextIO) -> Iterator[tuple[int, InputParameters]]:
    # streamed: each element is checked as soon as it is decoded, and a
    # syntax error only ends the batch at the element that holds it
    for row_number, entry in _json_elements(stream):
        if not isinstance(entry, dict):
            raise ParseError(row_number, "record must be an object")
        keys = entry.keys()
        if not (keys <= _ALLOWED_KEYS and keys >= _REQUIRED_KEYS):
            unknown = keys - _ALLOWED_KEYS
            if unknown:
                raise ParseError(row_number,
                                 f"unexpected fields: {sorted(unknown)}")
            raise ParseError(row_number, "missing fields: "
                             f"{sorted(_REQUIRED_KEYS - keys)}")
        date = entry.get("date")
        if date is not None and not isinstance(date, str):
            raise ParseError(row_number, "date must be a string or null")
        numbers = []
        for name in FIELD_ORDER:
            value = entry[name]
            # json gives numbers as exactly int or float; a bool is neither
            kind = type(value)
            if kind is not float:
                if kind is not int:
                    raise ParseError(row_number, f"field {name!r} is not "
                                                 f"a number: {value!r}")
                try:
                    value = float(value)
                except OverflowError:  # an int past the double range
                    value = math.inf if value > 0 else -math.inf
            numbers.append(value)
        yield row_number, InputParameters(*numbers, date)


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
    return _parse_csv(stream) if format == "csv" else _parse_json(stream)


def _state_values(states: StateClassification) -> tuple[str | None, ...]:
    """The _STATE_KEYS states' string values, None where undefined."""
    market, grid, threat = states
    return (None if market is None else market.value,
            None if grid is None else grid.value,
            None if threat is None else threat.value)


def _values(report: WatchReport) -> tuple:
    """The report's leaf values in _LAYOUT order, without the errors."""
    # the inputs come from the record, not from their copies in the trace
    params, trace = report.params, report.trace
    return (params.date, *params[:len(FIELD_ORDER)], *_block_leaves(trace),
            *_state_values(report.states), report.trade_volume_pct,
            *_chain_leaves(trace), report.p_false_alarm_raw,
            report.p_false_alarm, *_miss_leaves(trace), report.p_miss_raw,
            report.p_miss, *report.flags)


def report_as_dict(report: WatchReport) -> dict:
    """The report as nested primitives, in serialization order."""
    values = iter(_values(report))
    errors = [record._asdict() for record in report.errors]
    return {section: {key: errors if key == "errors" else next(values)
                      for key in keys}
            for section, keys in _LAYOUT}


def _json_fields(keys: tuple[str, ...], indent: str) -> str:
    return ",\n".join(f"{indent}{_encode_string(key)}: %s" for key in keys)


# json.dumps(report_as_dict(report), indent=2) with every leaf a %s slot
_JSON_TEMPLATE = "{\n" + ",\n".join(
    f"  {_encode_string(section)}: {{\n{_json_fields(keys, '    ')}\n  }}"
    for section, keys in _LAYOUT) + "\n}\n"
_JSON_ERROR = "      {\n" + _json_fields(_ERROR_KEYS, "        ") + "\n      }"

_TEXT_TEMPLATE = "".join(
    section + "\n" + "".join("%s" if key == "errors" else f"  {key:<18} %s\n"
                             for key in keys)
    for section, keys in _LAYOUT) + "degraded: %s\n"


# the stdlib C encoder, writing a flat array with NUL between its items
_ENCODER = json.JSONEncoder(allow_nan=False, separators=("\x00", ": "))


def _json_errors(fields: list[str]) -> str:
    """The errors array from its records' encoded fields, in order."""
    if not fields:
        return "[]"
    width = len(_ERROR_KEYS)
    return "[\n" + ",\n".join(
        _JSON_ERROR % tuple(fields[start:start + width])
        for start in range(0, len(fields), width)) + "\n    ]"


def _emit_json(report: WatchReport) -> str:
    encoded = _ENCODER.encode(
        [*_values(report), *itertools.chain.from_iterable(report.errors)]
    )[1:-1].split("\x00")
    slots, fields = encoded[:_LEAF_COUNT], encoded[_LEAF_COUNT:]
    slots.insert(_ERRORS_SLOT, _json_errors(fields))
    return _JSON_TEMPLATE % tuple(slots)


def _text_errors(errors: tuple[ErrorRecord, ...]) -> str:
    if not errors:
        return ""
    return "  errors\n" + "".join(
        f"    {record.error} in {record.stage}/{record.quantity}: "
        f"{record.detail}\n" for record in errors)


def _emit_text(report: WatchReport) -> str:
    slots = ["undefined" if value is None else value
             for value in _values(report)]
    slots.insert(_ERRORS_SLOT, _text_errors(report.errors))
    slots.append(report.degraded)
    return _TEXT_TEMPLATE % tuple(slots)


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
        if not self.start < self.stop:
            raise ValueError("start must be below stop, got "
                             f"[{self.start!r}, {self.stop!r}]")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps!r}")
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
    for index in range(spec.steps):
        value = spec.value_at(index)
        point = base._replace(**{spec.parameter: value})
        try:
            entry = SweepEntry(value=value, report=run_watch(point, config),
                               error=None)
        except ValidationError as exc:
            entry = SweepEntry(value=value, report=None, error=str(exc))
        yield entry
        # hold no report while the next point is evaluated
        del entry


# The columns of a sweep row, one per value sweep_row returns.
SWEEP_COLUMNS = ("value", "trade_volume_pct") + _STATE_KEYS + (
    "p_false_alarm", "p_miss", "degraded", "error")


def sweep_row(entry: SweepEntry) -> tuple:
    """The entry as one plot-ready row, a value per SWEEP_COLUMNS name."""
    report = entry.report
    if report is None:  # inadmissible: degraded, for the validation failure
        return (entry.value, None, None, None, None, None, None, True,
                entry.error)
    return (entry.value, report.trade_volume_pct,
            *_state_values(report.states), report.p_false_alarm,
            report.p_miss, report.degraded,
            "; ".join(f"{r.error}({r.stage}/{r.quantity})"
                      for r in report.errors) or None)
