"""Parsing, serialization, sweeps, and the command-line surface."""

import ast
import csv
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import daywatch
import daywatch.checks
import daywatch.json_reader
from daywatch import (
    InputParameters,
    ParseError,
    RunConfig,
    SweepSpec,
    ValidationError,
    emit_report,
    grid_analysis,
    parse_records,
    run_watch,
    sweep,
    validate,
)
from daywatch.checks import payload_mismatches
from daywatch.cli import main
from daywatch.errors import ErrorRecord
from daywatch.grid_analysis import UP_LOG_MODES
from daywatch.inputs import FIELD_ORDER
from daywatch.io import (
    _LAYOUT,
    CSV_HEADER,
    SWEEP_COLUMNS,
    _json_template,
    _text_template,
    report_as_dict,
    sweep_row,
)

BLOCKS = ("input", "exponents", "grid_model", "potentials", "distances",
          "probabilities", "states", "watch", "flags")

WATCH_KEYS = ("trade_volume_pct", "r_small", "r_mid", "r_big",
              "p_false_alarm_raw", "p_false_alarm", "p1", "p2", "p3", "p4",
              "p_miss_raw", "p_miss", "errors")


# Trace keys left undefined when the separability root is not finite.
SEPARABILITY_DEPENDENTS = {"rho", "discriminant", "e2", "t2", "omega2", "p_x",
                           "u_p", "r_e", "r_h", "p_g", "r_small", "r_mid",
                           "r_big", "p1", "p2", "p3", "p4"}

# Floats at the edges of the double range and the sign of zero.
EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308)

# A label the JSON encoder must escape: a NUL, which is also the item
# separator emit_report splits the encoder's output on, a quote, a
# backslash, a newline and non-ASCII text.
ESCAPED_DATE = 'a\x00"\\\nü€'


def payload_of(record, **config):
    report = run_watch(record, RunConfig(**config) if config else None)
    return json.loads(emit_report(report))


def parsed(text, format="csv"):
    """The records parse_records reads from text, without their rows."""
    return [record for _, record in parse_records(io.StringIO(text), format)]


def documents_of(out):
    """The JSON documents of a `daywatch run` output, in order."""
    decoder = json.JSONDecoder()
    documents, index = [], 0
    while index < len(out):
        payload, end = decoder.raw_decode(out, index)
        documents.append(payload)
        index = end + (1 if out[end:end + 1] == "\n" else 0)
    return documents


def reference_json(report):
    """What emit_report must write: the stdlib encoder on the dict form."""
    return json.dumps(report_as_dict(report), indent=2, allow_nan=False) + "\n"


def reference_text(report):
    """The text report as a walk over the dict form."""
    lines = []
    for section, fields in report_as_dict(report).items():
        lines.append(section)
        for name, value in fields.items():
            if name == "errors":
                if not value:
                    continue
                lines.append("  errors")
                for record in value:
                    lines.append(f"    {record['error']} in "
                                 f"{record['stage']}/{record['quantity']}: "
                                 f"{record['detail']}")
                continue
            shown = "undefined" if value is None else value
            if name == "date" and value is not None \
                    and not value.isprintable():
                shown = repr(value)
            lines.append(f"  {name:<18} {shown}")
    lines.append(f"degraded: {report.degraded}")
    return "\n".join(lines) + "\n"


def with_leaf(report, section, key, value):
    """The report with one numeric leaf of its dict form replaced."""
    if section == "input":
        return report._replace(params=report.params._replace(**{key: value}))
    if key in report.trace:
        return report._replace(trace={**report.trace, key: value})
    return report._replace(**{key: value})


times = st.one_of(st.floats(min_value=0.01, max_value=60.0),
                  st.integers(min_value=1, max_value=60),
                  st.sampled_from(EDGE_FLOATS[1:]))
amounts = st.one_of(st.floats(min_value=0.0, max_value=100.0),
                    st.integers(min_value=0, max_value=100),
                    st.sampled_from(EDGE_FLOATS))
dates = st.none() | st.text(st.characters()
                            | st.sampled_from('"\\\x00\x1f\x7f\u2028é'))
records = st.builds(InputParameters, t6_1=times, t6_2=times, t16=times,
                    t24=times, k_c=amounts, c_0=amounts, delta=amounts,
                    date=dates)
# JSON records, and the whitespace the encoder may put between tokens
json_entries = st.fixed_dictionaries(
    {name: st.floats(allow_nan=False, allow_infinity=False)
     | st.integers(min_value=-10**30, max_value=10**30)
     for name in FIELD_ORDER}, optional={"date": dates})
json_spaces = st.text(" \t\n\r", max_size=3)


class TestParseCsv:
    def test_happy_path(self):
        text = ("date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                "2026-01-01,6,6,16,24,4,50,0.035\n")
        (record,) = parsed(text)
        assert record == InputParameters(
            t6_1=6.0, t6_2=6.0, t16=16.0, t24=24.0,
            k_c=4.0, c_0=50.0, delta=0.035, date="2026-01-01",
        )

    def test_corpus_parses(self, records_csv):
        records = parsed(records_csv)
        assert len(records) == 7
        assert records[0].date == "2026-01-01"
        assert records[-1].date is None  # empty date cell

    def test_cells_may_carry_spaces(self):
        text = ("date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                " d , 6 ,6,16,24,4,50, 0.035 \n")
        (record,) = parsed(text)
        assert record.date == "d"
        assert record.delta == 0.035

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_empty_text_is_an_empty_batch(self, format):
        assert parsed("", format) == []
        assert parsed("   \n  ", format) == []
        # and so is whitespace that spans several JSON chunks
        assert parsed(" \t\r\n" * daywatch.json_reader._CHUNK_SIZE,
                      format) == []

    def test_header_only_is_an_empty_batch(self):
        assert parsed(",".join(CSV_HEADER) + "\n") == []
        assert parsed(",".join(CSV_HEADER) + "\n   \n") == []

    def test_wrong_header(self):
        # the header is row 0, as the top level of JSON input is, and
        # blank lines before it change nothing
        for blank in ("", "\n \n"):
            with pytest.raises(ParseError) as excinfo:
                parsed(blank + "t6_1,t6_2\n1,2\n")
            assert excinfo.value.row == 0
            assert "header" in str(excinfo.value)

    @pytest.mark.parametrize("before, after, between", [
        ("\n\n", "", ""), ("", "\n \t\n", ""), ("", "", "\n\n"),
        ("\n", "\n", "\n\n"),
    ], ids=["before-header", "after-header", "between-records", "everywhere"])
    @pytest.mark.parametrize("bad, detail", [
        ("oops,6,6,16,24,4,50", "expected 8 fields"),
        ("oops,6,6,16,24,4,50,x", "field 'delta' is not a number"),
        ("x" * (csv.field_size_limit() + 1) + ",6,6,16,24,4,50,0.035",
         "not valid CSV"),
    ], ids=["field-count", "not-a-number", "csv-error"])
    def test_row_numbers_count_records_alone(self, before, after, between,
                                             bad, detail):
        # row N is the Nth record, whatever blank lines lie around it
        text = (before + ",".join(CSV_HEADER) + "\n" + after
                + "a,6,6,16,24,4,50,0.035\n" + between + bad + "\n")
        records = parse_records(io.StringIO(text))
        assert next(records)[0] == 1
        with pytest.raises(ParseError) as excinfo:
            next(records)
        assert excinfo.value.row == 2
        assert detail in excinfo.value.detail

    def test_wrong_field_count(self):
        text = ",".join(CSV_HEADER) + "\nd,1,2,3\n"
        with pytest.raises(ParseError) as excinfo:
            parsed(text)
        assert excinfo.value.row == 1

    def test_non_numeric_field(self):
        text = (",".join(CSV_HEADER)
                + "\nd,6,6,16,24,4,50,0.035\nd,6,6,abc,24,4,50,0.035\n")
        with pytest.raises(ParseError) as excinfo:
            parsed(text)
        assert excinfo.value.row == 2
        assert "'t16'" in str(excinfo.value)
        assert "'abc'" in str(excinfo.value)

    def test_rows_are_read_as_they_are_needed(self):
        def lines():
            yield ",".join(CSV_HEADER) + "\n"
            yield "d,6,6,16,24,4,50,0.035\n"
            raise AssertionError("line 3 was read")

        records = parse_records(lines())
        row, record = next(records)
        assert (row, record.t16) == (1, 16.0)
        with pytest.raises(AssertionError):
            next(records)


class TestParseJson:
    def record(self, **overrides):
        entry = dict(t6_1=6, t6_2=6, t16=16, t24=24, k_c=4, c_0=50,
                     delta=0.035)
        entry.update(overrides)
        return entry

    def test_happy_path(self):
        text = json.dumps([self.record(date="2026-01-01"), self.record()])
        records = parsed(text, "json")
        assert len(records) == 2
        assert records[0].date == "2026-01-01"
        assert records[1].date is None
        assert records[1].t16 == 16.0

    def test_null_date(self):
        (record,) = parsed(json.dumps([self.record(date=None)]), "json")
        assert record.date is None

    def test_bool_is_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            parsed(json.dumps([self.record(k_c=True)]), "json")
        assert "'k_c'" in str(excinfo.value)

    def test_unknown_field(self):
        with pytest.raises(ParseError) as excinfo:
            parsed(json.dumps([self.record(extra=1)]), "json")
        assert "extra" in str(excinfo.value)

    def test_missing_field(self):
        entry = self.record()
        del entry["c_0"]
        with pytest.raises(ParseError) as excinfo:
            parsed(json.dumps([entry]), "json")
        assert "c_0" in str(excinfo.value)

    @pytest.mark.parametrize("text", [
        json.dumps({"t6_1": 6}), "42", '"x"', "]", "{not json",
    ], ids=["object", "number", "string", "closing-bracket", "invalid"])
    def test_top_level_must_be_an_array(self, text):
        sizes = []

        class Counting(io.StringIO):
            def read(self, size):
                sizes.append(size)
                return super().read(size)

        # refused at its first character: the rest is never read
        tail = " " * 2 * daywatch.json_reader._CHUNK_SIZE
        with pytest.raises(ParseError) as caught:
            list(parse_records(Counting("\n " + text + tail), "json"))
        assert (caught.value.row, caught.value.detail) \
            == (0, "top level must be an array of records")
        assert len(sizes) == 1

    def test_records_must_be_objects(self):
        with pytest.raises(ParseError) as excinfo:
            parsed("[42]", "json")
        assert excinfo.value.row == 1

    def test_records_need_a_comma_between_them(self):
        text = f"[{json.dumps(self.record())} {json.dumps(self.record())}]"
        with pytest.raises(ParseError) as caught:
            parsed(text, "json")
        assert (caught.value.row, caught.value.detail) == (
            2, "not valid JSON: Expecting ',' delimiter (char 83)")
        # the message and position json.loads gives
        with pytest.raises(json.JSONDecodeError) as loads:
            json.loads(text)
        assert (loads.value.msg, loads.value.pos) \
            == ("Expecting ',' delimiter", 83)

    @pytest.mark.parametrize("date", [5, True], ids=["number", "bool"])
    def test_date_must_be_a_string_or_null(self, date):
        with pytest.raises(ParseError) as caught:
            parsed(json.dumps([self.record(date=date)]), "json")
        assert (caught.value.row, caught.value.detail) == (
            1, "date must be a string or null")

    @settings(max_examples=200, deadline=None)
    @given(entries=st.lists(json_entries, max_size=4),
           chunk=st.integers(min_value=1, max_value=16),
           indent=st.none() | st.integers(min_value=0, max_value=3)
           | st.sampled_from(["\t", "\r\n "]),
           item=st.tuples(json_spaces, json_spaces),
           key=st.tuples(json_spaces, json_spaces),
           ascii=st.booleans(), before=json_spaces, after=json_spaces)
    @example(entries=[dict(t6_1=6, t6_2=6.5, t16=1e300, t24=-0.0, k_c=0.0,
                           c_0=5e-324, delta=0.035, date=ESCAPED_DATE),
                      dict(t6_1=10**30, t6_2=1.5, t16=16, t24=24, k_c=4,
                           c_0=50, delta=0.035, date=None)],
             chunk=1, indent=None, item=("", " "), key=("", " "),
             ascii=True, before="", after="")
    def test_matches_json_loads_in_chunks_of_any_size(
            self, entries, chunk, indent, item, key, ascii, before, after):
        text = before + json.dumps(
            entries, indent=indent, ensure_ascii=ascii,
            separators=(item[0] + "," + item[1], key[0] + ":" + key[1])
        ) + after
        # a date is read as a CSV date is: stripped, and null if empty
        expected = [InputParameters(*(float(entry[name])
                                      for name in FIELD_ORDER),
                                    (entry.get("date") or "").strip() or None)
                    for entry in json.loads(text)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(daywatch.json_reader, "_CHUNK_SIZE", chunk)
            assert parsed(text, "json") == expected

    def test_a_stream_that_fails_later_still_yields_its_first_record(self):
        text = json.dumps([self.record(date="a"), self.record(date="b")])

        class Failing:  # gives the first record, then fails
            reads = 0

            def read(self, size):
                self.reads += 1
                if self.reads > 1:
                    raise OSError("input gone")
                return text[:text.index("}") + 10]

        records = parse_records(Failing(), "json")
        row, record = next(records)
        assert (row, record.date) == (1, "a")
        with pytest.raises(OSError):
            next(records)

    def test_a_long_element_takes_few_reads(self):
        sizes = []

        class Counting(io.StringIO):
            def read(self, size):
                sizes.append(size)
                return super().read(size)

        date = "x" * 10**6
        text = json.dumps([self.record(date=date)])
        (row, record), = parse_records(Counting(text), "json")
        assert (row, record.date) == (1, date)
        assert len(sizes) <= math.ceil(
            math.log2(10**6 / daywatch.json_reader._CHUNK_SIZE)) + 2

    @pytest.mark.parametrize("chunk",
                             [16, daywatch.json_reader._CHUNK_SIZE],
                             ids=["small-chunks", "one-chunk"])
    def test_a_malformed_element_is_reported_before_the_rest_is_read(
            self, monkeypatch, chunk):
        monkeypatch.setattr(daywatch.json_reader, "_CHUNK_SIZE", chunk)
        good = json.dumps(self.record())
        head = f"[{good}, {good}, " + '{"t6_1": oops}'
        text = head + f", {good}" * 5000 + "]"
        read = []

        class Counting(io.StringIO):
            def read(self, size):
                read.append(super().read(size))
                return read[-1]

        records = parse_records(Counting(text), "json")
        assert [row for row, _ in itertools.islice(records, 2)] == [1, 2]
        with pytest.raises(ParseError) as caught:
            next(records)
        assert caught.value.row == 3
        # a refill reads at most as much again as is pending: at most
        # twice the text up to the bad token, not the rest of the input
        assert sum(map(len, read)) <= 2 * (len(head) + chunk)

    def test_unknown_format_is_a_usage_error(self):
        with pytest.raises(ValueError):
            parsed("x", "xml")


class TestSerialization:
    def test_block_and_watch_key_order(self, clean):
        payload = payload_of(clean)
        assert tuple(payload) == BLOCKS
        assert tuple(payload["watch"]) == WATCH_KEYS
        assert tuple(payload["input"]) == ("date",) + FIELD_ORDER
        assert tuple(payload["flags"]) == (
            "paper_gap_flag", "valid_percentage", "v1_in_unit_interval",
            "pf_out_of_range", "pm_out_of_range", "pg_undefined",
        )

    def test_input_block_round_trips_exactly(self, clean):
        payload = payload_of(clean)
        for name in FIELD_ORDER:
            assert payload["input"][name] == getattr(clean, name)
        assert payload["input"]["date"] is None

    def test_undefined_quantity_is_null_plus_explanation(self, baseline):
        payload = payload_of(baseline)
        assert payload["distances"]["r_e"] is None
        assert payload["probabilities"]["p_g"] is None
        assert payload["flags"]["pg_undefined"] is True
        quantities = {e["quantity"] for e in payload["watch"]["errors"]}
        assert quantities == {"r_e", "p_g"}

    def test_states_serialize_as_strings(self, clean, baseline):
        assert payload_of(clean)["states"] == {
            "market_state": "normal",
            "grid_state": "normal",
            "threat_level": "low",
        }
        assert payload_of(baseline)["states"] == {
            "market_state": None,
            "grid_state": None,
            "threat_level": None,
        }

    def test_every_corpus_report_satisfies_the_schema(self, records_csv):
        schema = json.loads(
            resources.files("daywatch").joinpath("data", "report_schema.json")
            .read_text(encoding="utf-8")
        )
        validator = jsonschema.Draft202012Validator(schema)
        for record in parsed(records_csv):
            for mode in ("strict", "absolute"):
                validator.validate(payload_of(record, up_log_mode=mode))

    def test_schema_lists_the_layout_s_keys_in_order(self):
        # the corpus validation above checks key sets, not their order
        schema = json.loads(
            resources.files("daywatch").joinpath("data", "report_schema.json")
            .read_text(encoding="utf-8")
        )
        assert schema["required"] == [section for section, _ in _LAYOUT]
        for section, keys in _LAYOUT:
            block = schema["properties"][section]
            assert (block["required"], list(block["properties"])) \
                == (list(keys), list(keys))

    def test_emitted_json_is_strictly_finite(self, records_csv):
        for record in parsed(records_csv):
            text = emit_report(run_watch(record))
            assert "NaN" not in text
            assert "Infinity" not in text

    def test_text_format(self, baseline):
        text = emit_report(run_watch(baseline), format="text")
        assert text.startswith("input")
        assert "  u_s" in text
        assert "undefined" in text
        assert ("NonPositiveGap in grid-analysis/r_e: "
                "u_s - u_p is not positive") in text
        assert text.endswith("degraded: True\n")

    def test_unknown_format_is_a_usage_error(self, clean):
        with pytest.raises(ValueError):
            emit_report(run_watch(clean), format="yaml")


class TestByteIdentity:
    """emit_report writes what the stdlib encoder writes, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(records, st.sampled_from(UP_LOG_MODES))
    def test_reports_match_the_reference(self, record, mode):
        report = run_watch(record, RunConfig(up_log_mode=mode))
        assert emit_report(report) == reference_json(report)
        assert emit_report(report, "text") == reference_text(report)

    @settings(max_examples=100, deadline=None)
    @given(records, st.sampled_from(FIELD_ORDER), st.booleans())
    def test_bool_input_fields_match_the_reference(self, record, name, flag):
        # validation rejects bools, so they reach a report only by hand
        report = with_leaf(run_watch(record), "input", name, flag)
        assert emit_report(report) == reference_json(report)
        assert emit_report(report, "text") == reference_text(report)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_floats_in_every_leaf_match_the_reference(self, clean,
                                                           value):
        report = run_watch(clean)
        for section, fields in report_as_dict(report).items():
            if section in ("states", "flags"):
                continue
            for key in fields:
                if key in ("date", "errors"):
                    continue
                edited = with_leaf(report, section, key, value)
                assert emit_report(edited) == reference_json(edited)

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_escaped_date_matches_the_reference(self, format):
        entry = dict(date=ESCAPED_DATE, t6_1=6.0, t6_2=6.0, t16=16.0,
                     t24=24.0, k_c=4.0, c_0=50.0, delta=0.035)
        if format == "json":
            text = json.dumps([entry])
        else:
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerow(entry[key] for key in CSV_HEADER)
            text = buffer.getvalue()
        (record,) = parsed(text, format)
        assert record.date == ESCAPED_DATE
        report = run_watch(record)
        assert emit_report(report) == reference_json(report)
        assert json.loads(emit_report(report))["input"]["date"] \
            == ESCAPED_DATE

    def test_error_records_match_the_reference(self, baseline):
        report = run_watch(baseline)
        # the baseline's own records carry float values
        assert all(isinstance(record.value, float)
                   for record in report.errors)
        edited = report._replace(errors=(
            ErrorRecord("grid-analysis", "u_p", "NonFiniteResult",
                        "evaluation left the float range"),
            *report.errors,
            ErrorRecord("watch", "p_miss_raw", "NegativeMissRadicand",
                        ESCAPED_DATE, -2.5e-300)))
        assert edited.errors[0].value is None
        assert emit_report(edited) == reference_json(edited)
        assert emit_report(edited, "text") == reference_text(edited)

    def test_every_error_count_matches_the_reference(self, baseline):
        # each _step adds at most one record, so a report holds 0 to 23
        # and each count has its own template
        report = run_watch(baseline)
        kinds = (ErrorRecord("grid-analysis", "u_p", "NonFiniteResult",
                             "évaluation ≠ finie €"),
                 ErrorRecord("watch", "p_miss_raw", "NegativeMissRadicand",
                             "100%s %d %% of\x00it", -2.5e-300),
                 ErrorRecord("lyapunov", "perm_a", "NonPositivePermanent",
                             ESCAPED_DATE, 0.0))
        assert kinds[0].value is None
        for count in range(24):
            edited = report._replace(errors=tuple(
                itertools.islice(itertools.cycle(kinds), count)))
            assert emit_report(edited) == reference_json(edited)
            assert emit_report(edited, "text") == reference_text(edited)
        assert _json_template.cache_info().currsize <= 24
        assert _text_template.cache_info().currsize <= 24

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_leaf_is_refused(self, baseline, value):
        report = run_watch(baseline)
        edited = [report._replace(errors=(ErrorRecord(
            "watch", "p_miss_raw", "NegativeMissRadicand",
            "miss radicand is negative", value),))]
        for section, fields in report_as_dict(report).items():
            if section in ("states", "flags"):
                continue
            edited.extend(with_leaf(report, section, key, value)
                          for key in fields if key not in ("date", "errors"))
        for report in edited:
            with pytest.raises(ValueError):
                emit_report(report)
            with pytest.raises(ValueError):
                reference_json(report)


class TestSweep:
    @pytest.mark.parametrize(
        ("kwargs", "fragment"),
        [
            (dict(parameter="bogus", start=0.0, stop=1.0, steps=3),
             "parameter"),
            (dict(parameter="delta", start=1.0, stop=1.0, steps=3), "start"),
            (dict(parameter="delta", start=2.0, stop=1.0, steps=3), "start"),
            # finite bounds whose width overflows
            (dict(parameter="delta", start=-1e308, stop=1e308, steps=3),
             "start"),
            # a finite width whose product with an inner index overflows
            (dict(parameter="delta", start=0.0, stop=1e308, steps=4),
             "start"),
            (dict(parameter="delta", start=0.0, stop=1.0, steps=1), "steps"),
            # an int steps that no float can hold
            (dict(parameter="delta", start=0.0, stop=1.0, steps=10**400),
             "steps"),
        ],
    )
    def test_spec_validation(self, kwargs, fragment):
        with pytest.raises(ValueError) as excinfo:
            SweepSpec(**kwargs)
        assert fragment in str(excinfo.value)

    def test_value_grid_hits_both_endpoints(self):
        spec = SweepSpec(parameter="delta", start=0.0, stop=1.0, steps=5)
        assert [spec.value_at(i) for i in range(5)] == [
            0.0, 0.25, 0.5, 0.75, 1.0
        ]

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
           st.integers(2, 10_000))
    @example(1.56, 9.5 - 1.56, 12)  # the formula gave 9.499999999999998
    def test_last_point_is_exactly_stop(self, start, width, steps):
        stop = start + width
        assume(start < stop)
        spec = SweepSpec(parameter="t16", start=start, stop=stop, steps=steps)
        assert spec.value_at(0) == start
        assert spec.value_at(steps - 1) == stop

    def test_last_point_is_evaluated_at_stop(self, clean):
        # 9.499999999999998 is on the doubling branch of t16, 9.5 is not
        spec = SweepSpec(parameter="t16", start=1.56, stop=9.5, steps=12)
        *_, last = sweep(clean, spec)
        assert last.value == 9.5
        assert last.report == run_watch(clean._replace(t16=9.5))

    def test_sweep_covers_every_point_in_order(self, clean):
        spec = SweepSpec(parameter="delta", start=0.0, stop=1.0, steps=101)
        entries = list(sweep(clean, spec))
        assert len(entries) == 101
        assert [e.value for e in entries] == [spec.value_at(i)
                                              for i in range(101)]
        assert entries[0].report.trace["l_p1"] == 1.0
        assert all(e.report is not None for e in entries)

    @pytest.mark.parametrize("field", FIELD_ORDER)
    def test_each_point_is_the_base_with_the_swept_field_replaced(
            self, clean, field):
        # the range starts below 0, so the first points are inadmissible
        base = clean._replace(date="2026-01-01")
        spec = SweepSpec(parameter=field, start=-1.0,
                         stop=2 * getattr(base, field), steps=9)
        admissible = 0
        for entry in sweep(base, spec):
            point = base._replace(**{field: entry.value})
            if entry.report is None:
                with pytest.raises(ValidationError) as caught:
                    validate(point)
                assert entry.error == str(caught.value)
                continue
            admissible += 1
            assert entry.error is None
            assert type(entry.report.params) is InputParameters
            assert entry.report.params == point
            assert entry.report == run_watch(point)
        assert admissible >= 5

    def test_inadmissible_points_become_error_entries(self, clean):
        spec = SweepSpec(parameter="t6_1", start=0.0, stop=1.0, steps=3)
        entries = list(sweep(clean, spec))
        assert entries[0].report is None
        assert "t6_1" in entries[0].error
        assert entries[1].report is not None
        assert entries[2].report is not None

    def test_rows_are_plot_ready(self, clean):
        spec = SweepSpec(parameter="t6_1", start=0.0, stop=1.0, steps=3)
        entries = list(sweep(clean, spec))
        rows = [dict(zip(SWEEP_COLUMNS, sweep_row(entry), strict=True))
                for entry in entries]
        assert len(rows) == 3
        assert SWEEP_COLUMNS == (
            "value", "trade_volume_pct", "market_state", "grid_state",
            "threat_level", "p_false_alarm", "p_miss", "degraded", "error",
        )
        # point 0 is inadmissible: no report, only the validation failure
        assert rows[0]["degraded"] is True
        assert rows[0]["trade_volume_pct"] is None
        assert "t6_1" in rows[0]["error"]
        # later points carry reports; the error column then lists any
        # contained error records inline
        for entry, row in zip(entries[1:], rows[1:]):
            assert isinstance(row["trade_volume_pct"], float)
            if entry.report.errors:
                for record in entry.report.errors:
                    assert record.error in row["error"]
            else:
                assert row["error"] is None


def child_env(unbuffered=False):
    """The environment of a child that imports the daywatch under test.

    The child sees the same daywatch as this test, whether pytest found it
    through PYTHONPATH or through its own pythonpath setting.  Its stdout
    is unbuffered (as under python -u) if asked, and buffered otherwise,
    whatever PYTHONUNBUFFERED this test runs under.
    """
    source = str(Path(daywatch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source,
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def run_child(*args):
    """Run the interpreter with args, importing the daywatch under test."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=child_env())


class Recorder:
    """An unbuffered stdout: each write goes out alone, and is kept."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestCli:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def baseline_csv(self, tmp_path):
        return self.write(
            tmp_path, "records.csv",
            "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
            "2026-01-01,6,6,16,24,4,50,0.035\n",
        )

    def rows_csv(self, tmp_path, count):
        """count copies of the baseline record, dated 1 to count."""
        return self.write(
            tmp_path, f"rows{count}.csv",
            "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n" + "".join(
                f"{day},6,6,16,24,4,50,0.035\n"
                for day in range(1, count + 1)))

    def test_run_reports_degradation_in_the_exit_code(self, tmp_path, capsys):
        code = main(["run", "--input", self.baseline_csv(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        payload = json.loads(captured.out)
        assert payload["input"]["date"] == "2026-01-01"
        assert captured.err == ""

    def test_run_emits_one_document_per_record(self, tmp_path, capsys):
        path = self.write(
            tmp_path, "two.csv",
            "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
            "a,6,6,16,24,4,50,0.035\n"
            "b,5.7,5.7,15.2,22.8,1.0,38.0,1.0\n",
        )
        code = main(["run", "--input", path])
        out = capsys.readouterr().out
        assert code == 2
        decoder = json.JSONDecoder()
        documents, index = [], 0
        while index < len(out):
            payload, end = decoder.raw_decode(out, index)
            documents.append(payload)
            index = end + (1 if out[end:end + 1] == "\n" else 0)
        assert [d["input"]["date"] for d in documents] == ["a", "b"]

    def test_a_date_cannot_forge_a_text_line(self, tmp_path, capsys):
        path = self.write(
            tmp_path, "forged.csv",
            "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
            '"2026-01-01\n  exponents",5.7,5.7,15.2,22.8,1,38,1\n',
        )
        code = main(["run", "--input", path, "--output", "text"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert lines[:3] == [
            "input", "  date               '2026-01-01\\n  exponents'",
            "  t6_1               5.7"]
        assert [line.split()[0] for line in lines[1:9]] == list(CSV_HEADER)
        assert lines[9] == "exponents" and "  exponents" not in lines
        main(["run", "--input", path])
        assert json.loads(capsys.readouterr().out)["input"]["date"] \
            == "2026-01-01\n  exponents"

    def test_overflowing_separability_root_is_contained(self, tmp_path,
                                                        capsys):
        # 3*(2 + l_p1)**2 overflows to inf for delta near 1e154
        path = self.write(
            tmp_path, "overflow.csv",
            "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
            "a,5.191,18.6704,18.3502,7.7265,28.7326,2.2e-73,8.1e153\n"
            "b,8,8,12,24,2,30,0.5\n",
        )
        code = main(["run", "--input", path])
        first, second = documents_of(capsys.readouterr().out)
        assert code == 2
        assert (first["watch"]["errors"][0]["error"],
                first["watch"]["errors"][0]["stage"],
                first["watch"]["errors"][0]["quantity"]) == (
            "NonFiniteResult", "grid-model", "rho")
        leaves = {key: value for fields in first.values()
                  for key, value in fields.items()}
        assert all(leaves[key] is None for key in SEPARABILITY_DEPENDENTS)
        assert second["input"]["date"] == "b"
        assert second["grid_model"]["rho"] is not None

        code = main(["run", "--input", path, "--output", "text"])
        text = capsys.readouterr().out
        assert code == 2
        assert text.count("degraded: ") == 2
        assert "  rho                undefined\n" in text
        assert re.search(r" -?inf$", text, re.MULTILINE) is None

    def test_run_text_output(self, tmp_path, capsys):
        code = main(["run", "--input", self.baseline_csv(tmp_path),
                     "--output", "text"])
        assert code == 2
        assert "degraded: True" in capsys.readouterr().out

    def test_run_json_input(self, tmp_path, capsys):
        path = self.write(tmp_path, "records.json", json.dumps([{
            "t6_1": 6, "t6_2": 6, "t16": 16, "t24": 24,
            "k_c": 4, "c_0": 50, "delta": 0.035,
        }]))
        code = main(["run", "--input", path, "--format", "json"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["input"]["date"] is None

    def test_missing_file_is_unparseable(self, tmp_path, capsys):
        code = main(["run", "--input", str(tmp_path / "absent.csv")])
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--param", "delta", "--from", "0", "--to", "1",
         "--steps", "3"],
    ], ids=["run", "sweep"])
    def test_input_that_is_not_utf8_is_unparseable(self, tmp_path, capsys,
                                                    command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                         b"\xff,6,6,16,24,4,50,0.035\n")
        code = main([command[0], "--input", str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("daywatch: unparseable input: ")
        assert captured.out == ""

    @pytest.mark.parametrize("format, text", [
        ("csv", "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                "2026-01-01,6,6,16,24,4,50,0.035\n"),
        ("json", '[{"date": "2026-01-01", "t6_1": 6, "t6_2": 6, "t16": 16, '
                 '"t24": 24, "k_c": 4, "c_0": 50, "delta": 0.035}]'),
    ], ids=["csv", "json"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, format, text):
        # spreadsheets save "CSV UTF-8" with a leading byte-order mark
        path = self.write(tmp_path, f"bom.{format}", "\ufeff" + text)
        code = main(["run", "--input", path, "--format", format])
        captured = capsys.readouterr()
        assert code == 2  # the baseline record is degraded, not unreadable
        assert captured.err == ""
        assert json.loads(captured.out)["input"]["date"] == "2026-01-01"

    @pytest.mark.parametrize("output", ["json", "text"])
    @pytest.mark.parametrize("date", [" x ", "", "\t"],
                             ids=["padded", "empty", "blank"])
    def test_a_date_reports_the_same_from_csv_and_json(self, tmp_path,
                                                       capsys, date, output):
        csv_path = self.write(tmp_path, "day.csv", ",".join(CSV_HEADER)
                              + f"\n{date},6,6,16,24,4,50,0.035\n")
        json_path = self.write(tmp_path, "day.json", json.dumps([{
            "date": date, "t6_1": 6, "t6_2": 6, "t16": 16, "t24": 24,
            "k_c": 4, "c_0": 50, "delta": 0.035}]))
        runs = []
        for path, format in ((csv_path, "csv"), (json_path, "json")):
            code = main(["run", "--input", path, "--format", format,
                         "--output", output])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        # stripped, and null when nothing is left
        shown = date.strip() or None
        if output == "json":
            assert json.loads(runs[0][1])["input"]["date"] == shown
        else:
            assert f"  {'date':<18} {shown or 'undefined'}\n" in runs[0][1]

    def test_byte_order_mark_before_an_empty_array_is_an_empty_batch(
            self, tmp_path, capsys):
        path = self.write(tmp_path, "bom.json", "\ufeff[]")
        code = main(["run", "--input", path, "--format", "json"])
        assert code == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("command, text, options, code, fragment", [
        ("run", None, ["--tolerance", "-1"], 3, "cannot read"),
        ("run", "not,a,header\n", ["--tolerance", "-1"], 2, "tolerance"),
        ("sweep", ",".join(CSV_HEADER) + "\n",
         ["--param", "delta", "--from", "0", "--to", "1", "--steps", "1"],
         2, "steps"),
        ("sweep", ",".join(CSV_HEADER) + "\nd,6,6,16,24,4,50,0.035\n",
         ["--param", "delta", "--from", "0", "--to", "inf", "--steps", "3"],
         2, "[0.0, inf]"),
        ("sweep", ",".join(CSV_HEADER) + "\nd,6,6,16,24,4,50,0.035\n",
         ["--param", "delta", "--from", "0", "--to", "1", "--steps",
          str(10**400)], 2, "daywatch: steps must fit in a float"),
    ], ids=["run-missing-file", "run-bad-header", "sweep-header-only",
            "sweep-infinite-range", "sweep-steps-past-double-range"])
    def test_exit_code_order_of_config_errors(self, tmp_path, capsys,
                                              command, text, options, code,
                                              fragment):
        # an unreadable file is found first, then a bad option, and only
        # then the input's contents
        path = str(tmp_path / "absent.csv") if text is None \
            else self.write(tmp_path, "input.csv", text)
        assert main([command, "--input", path, *options]) == code
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k_c, code, fragment", [
        ("9" * 400, 2, "NonFinite(k_c) value=inf"),
        ("-" + "9" * 400, 2, "NonFinite(k_c) value=-inf"),
        ("9" * 5000, 3, "digits"),
        (None, 3, "recursion"),
    ], ids=["int-past-double-range", "negative-int-past-double-range",
            "int-past-digit-limit", "arrays-nested-too-deep"])
    def test_json_the_decoder_cannot_hold_is_contained(self, tmp_path,
                                                       capsys, k_c, code,
                                                       fragment):
        if k_c is None:
            text = "[" * 100_000 + "]" * 100_000
        else:
            text = ('[{"t6_1": 6, "t6_2": 6, "t16": 16, "t24": 24, '
                    f'"k_c": {k_c}, "c_0": 50, "delta": 0.035}}]')
        path = self.write(tmp_path, "odd.json", text)
        assert main(["run", "--input", path, "--format", "json"]) == code
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.out == ""

    def test_garbage_is_unparseable(self, tmp_path, capsys):
        path = self.write(tmp_path, "garbage.csv", "not,a,header\n1,2,3\n")
        code = main(["run", "--input", path])
        assert code == 3
        assert "unparseable" in capsys.readouterr().err

    def test_inadmissible_record_degrades(self, tmp_path, capsys):
        path = self.write(
            tmp_path, "bad.csv",
            "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
            "d,-1,6,16,24,4,50,0.035\n",
        )
        code = main(["run", "--input", path])
        assert code == 2
        assert "inadmissible" in capsys.readouterr().err

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_inadmissible_record_carries_its_row(self, tmp_path, capsys,
                                                 format):
        entries = [dict(date=date, t6_1=6, t6_2=6, t16=16, t24=24, k_c=4,
                        c_0=50, delta=0.035) for date in "abc"]
        entries[1]["t6_1"] = -1
        text = json.dumps(entries) if format == "json" else "".join(
            ",".join(str(entry[key]) for key in CSV_HEADER) + "\n"
            for entry in [dict(zip(CSV_HEADER, CSV_HEADER))] + entries)
        path = self.write(tmp_path, f"three.{format}", text)
        code = main(["run", "--input", path, "--format", format])
        captured = capsys.readouterr()
        assert code == 2
        assert [d["input"]["date"] for d in documents_of(captured.out)] \
            == ["a", "c"]
        assert captured.err == ("daywatch: inadmissible record: row 2: "
                                "NonPositiveTime(t6_1) value=-1.0\n")

    def test_malformed_row_ends_the_run_after_the_rows_before_it(
            self, tmp_path, capsys):
        path = self.write(
            tmp_path, "malformed.csv",
            "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
            "a,6,6,16,24,4,50,0.035\n"
            "b,6,6,16,24,4,50,0.035\n"
            "c,6,6,abc,24,4,50,0.035\n"
            "d,6,6,16,24,4,50,0.035\n",
        )
        code = main(["run", "--input", path])
        captured = capsys.readouterr()
        assert code == 3
        assert [d["input"]["date"] for d in documents_of(captured.out)] \
            == ["a", "b"]
        assert captured.err.startswith("daywatch: unparseable input: row 3: ")

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--param", "delta", "--from", "0", "--to", "1",
         "--steps", "3"],
    ], ids=["run", "sweep"])
    def test_a_field_past_the_csv_size_limit_is_unparseable(
            self, tmp_path, capsys, command):
        # sweep reads only its base record, so that one carries the field
        long = "x" * (csv.field_size_limit() + 1)
        dates = ["a", long] if command[0] == "run" else [long]
        path = self.write(tmp_path, "long.csv", ",".join(CSV_HEADER) + "\n"
                          + "".join(f"{date},6,6,16,24,4,50,0.035\n"
                                    for date in dates + ["b"]))
        code = main([command[0], "--input", path, *command[1:]])
        captured = capsys.readouterr()
        assert code == 3
        assert [d["input"]["date"] for d in documents_of(captured.out)] \
            == dates[:-1]
        assert captured.err.startswith(
            f"daywatch: unparseable input: row {len(dates)}: "
            "not valid CSV: field larger than field limit")

    def dated_json(self, dates):
        """The JSON text of a baseline record for each date."""
        return [json.dumps(dict(date=date, t6_1=6, t6_2=6, t16=16, t24=24,
                                k_c=4, c_0=50, delta=0.035))
                for date in dates]

    @pytest.mark.parametrize("chunk",
                             [7, daywatch.json_reader._CHUNK_SIZE],
                             ids=["small-chunks", "one-chunk"])
    def test_malformed_json_element_ends_the_run_after_the_ones_before_it(
            self, tmp_path, capsys, monkeypatch, chunk):
        monkeypatch.setattr(daywatch.json_reader, "_CHUNK_SIZE", chunk)
        first, second, fourth = self.dated_json("abd")
        text = (f"[{first},\n{second},\n"
                '{"date": "c", "t6_1": 6, "t16": abc},\n'
                f"{fourth}]\n")
        path = self.write(tmp_path, "malformed.json", text)
        code = main(["run", "--input", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert [d["input"]["date"] for d in documents_of(captured.out)] \
            == ["a", "b"]
        # the offset is the input's, not the chunk's
        assert captured.err == (
            "daywatch: unparseable input: row 3: not valid JSON: "
            f"Expecting value (char {text.index('abc')})\n")

    def test_json_records_without_a_comma_end_the_run_after_the_first(
            self, tmp_path, capsys):
        first, second = self.dated_json("ab")
        path = self.write(tmp_path, "no-comma.json", f"[{first} {second}]")
        code = main(["run", "--input", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert [d["input"]["date"] for d in documents_of(captured.out)] \
            == ["a"]
        assert captured.err == (
            "daywatch: unparseable input: row 2: not valid JSON: "
            f"Expecting ',' delimiter (char {len(first) + 2})\n")

    @pytest.mark.parametrize("date", ["5", "true"], ids=["number", "bool"])
    def test_a_json_date_that_is_not_a_string_ends_the_run(
            self, tmp_path, capsys, date):
        (text,) = self.dated_json([None])
        path = self.write(tmp_path, "date.json",
                          "[" + text.replace("null", date) + "]")
        code = main(["run", "--input", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("daywatch: unparseable input: row 1: "
                                "date must be a string or null\n")

    def test_data_after_the_json_array_ends_the_run_after_its_reports(
            self, tmp_path, capsys):
        text = "[" + ",".join(self.dated_json("ab")) + "]\n]"
        path = self.write(tmp_path, "extra.json", text)
        code = main(["run", "--input", path, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 3
        assert [d["input"]["date"] for d in documents_of(captured.out)] \
            == ["a", "b"]
        assert captured.err == (
            "daywatch: unparseable input: row 0: not valid JSON: "
            f"Extra data (char {len(text) - 1})\n")

    def test_long_day_is_warned_once(self, tmp_path, capsys, caplog):
        path = self.write(tmp_path, "long.csv",
                          "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                          "d,6,6,60,24,4,50,0.035\n")
        main(["run", "--input", path])
        assert sum("exceeds 48.0 h" in record.getMessage()
                   for record in caplog.records) == 1

    def test_run_validates_each_record_once(self, tmp_path, capsys,
                                            monkeypatch, records_csv):
        calls = []

        def counted(params):
            calls.append(params)
            return validate(params)

        # every module that could call validate, by whatever name it holds
        for module in (daywatch.inputs, daywatch.io, daywatch.watch,
                       daywatch.cli):
            if getattr(module, "validate", None) is validate:
                monkeypatch.setattr(module, "validate", counted)
        main(["run", "--input", self.write(tmp_path, "records.csv",
                                           records_csv)])
        assert len(calls) == len(parsed(records_csv)) == 7

    def test_bad_tolerance_degrades(self, tmp_path, capsys):
        code = main(["run", "--input", self.baseline_csv(tmp_path),
                     "--tolerance", "-1"])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err

    def test_up_log_mode_flag_changes_the_report(self, tmp_path, capsys):
        path = self.baseline_csv(tmp_path)
        main(["run", "--input", path])
        strict_payload = json.loads(capsys.readouterr().out)
        main(["run", "--input", path, "--up-log-mode", "absolute"])
        absolute_payload = json.loads(capsys.readouterr().out)
        assert strict_payload["probabilities"]["p_g"] is None
        assert absolute_payload["probabilities"]["p_g"] is not None

    def test_sweep_writes_columnar_csv(self, tmp_path, capsys):
        code = main(["sweep", "--input", self.baseline_csv(tmp_path),
                     "--param", "delta", "--from", "0", "--to", "1",
                     "--steps", "5"])
        out = capsys.readouterr().out
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == ("value,trade_volume_pct,market_state,grid_state,"
                            "threat_level,p_false_alarm,p_miss,degraded,"
                            "error")
        assert len(lines) == 6
        assert lines[1].startswith("0.0,")

    def command(self, tmp_path, name, points):
        """The argv of a run over points records or a sweep of points."""
        if name == "run":
            return ["run", "--input", self.rows_csv(tmp_path, points)]
        return ["sweep", "--input", self.baseline_csv(tmp_path),
                "--param", "t16", "--from", "5", "--to", "15",
                "--steps", str(points)]

    @pytest.mark.parametrize("name, module", [("run", "cli"),
                                              ("sweep", "io")],
                             ids=["run", "sweep"])
    def test_holds_one_report_at_a_time(self, tmp_path, capsys, monkeypatch,
                                        name, module):
        # a report is a tuple, which cannot be weakly referenced, so each
        # report carries its trace in a dict subclass that can, and only
        # the report holds that trace
        class Traced(dict):
            pass

        traces = []  # a weak reference to each report's trace
        alive = []   # how many of them are alive as each evaluation starts

        def watched(point, config):
            alive.append(sum(ref() is not None for ref in traces))
            report = run_watch(point, config)
            report = report._replace(trace=Traced(report.trace))
            traces.append(weakref.ref(report.trace))
            return report

        monkeypatch.setattr(getattr(daywatch, module), "run_watch", watched)
        assert main(self.command(tmp_path, name, 5)) == 2
        out = capsys.readouterr().out
        assert (len(documents_of(out)) if name == "run"
                else len(out.splitlines()) - 1) == 5
        assert alive == [0] * 5

    @pytest.mark.parametrize("name, points, piece", [
        ("run", 12, r"(?s).*?\n}\n"),  # a report
        ("sweep", 1001, r".*\n"),     # a row
    ], ids=["run", "sweep"])
    def test_writes_in_blocks(self, tmp_path, monkeypatch, name, points,
                              piece):
        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(self.command(tmp_path, name, points)) == 2
        out = "".join(stdout.writes)
        pieces = re.findall(piece, out)
        assert "".join(pieces) == out
        assert len(pieces) == points + (name == "sweep")  # sweep's header
        longest = max(map(len, pieces))
        sizes = [len(text) for text in stdout.writes]
        # the first write is the first piece, a sweep's header riding with
        # its first row; each later write is whole pieces, and every one
        # but the last is one block, of at least the buffer size
        first = len(pieces[0]) + (name == "sweep") * len(pieces[1])
        assert sizes[0] == first
        assert set(itertools.accumulate(sizes)) \
            <= set(itertools.accumulate(map(len, pieces)))
        assert len(sizes) >= 3
        for size in sizes[1:-1]:
            assert io.DEFAULT_BUFFER_SIZE <= size \
                < io.DEFAULT_BUFFER_SIZE + longest
        assert 0 < sizes[-1] < io.DEFAULT_BUFFER_SIZE + longest

    def test_sweep_that_fails_part_way_writes_its_rows(self, tmp_path,
                                                      capsys, monkeypatch):
        argv = self.command(tmp_path, "sweep", 1001)
        main(argv)
        made = capsys.readouterr().out.splitlines()[:51]
        real = daywatch.cli.sweep

        def failing(base, spec, config):
            yield from itertools.islice(real(base, spec, config), 50)
            raise RuntimeError("the 51st point")

        monkeypatch.setattr(daywatch.cli, "sweep", failing)
        with pytest.raises(RuntimeError, match="the 51st point"):
            main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert lines == made  # the header and the 50 rows made

    def test_check_writes_its_lines_at_once(self, monkeypatch):
        real, results = daywatch.checks.run_all, []

        def run_all():
            results.extend(real())
            return results

        monkeypatch.setattr(daywatch.checks, "run_all", run_all)
        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["check"]) == 0
        assert len(results) == 3
        assert stdout.writes == ["".join(
            f"PASS  {result.name}: {result.detail}\n" for result in results)]

    def test_first_report_leaves_at_once_when_stdout_is_buffered(
            self, tmp_path, monkeypatch, baseline):
        class Raw(io.RawIOBase):  # stdout's file, under its buffers
            def __init__(self):
                self.written = bytearray()

            def writable(self):
                return True

            def write(self, data):
                self.written += data
                return len(data)

        # stdout as Python opens it without -u: a text layer that holds
        # its writes back over a buffered file
        raw = Raw()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
            io.BufferedWriter(raw), encoding="utf-8", write_through=False))
        held = []  # what the file holds as the second record is read

        def records(stream, format):
            yield 1, baseline
            held.append(bytes(raw.written))
            yield 2, baseline

        monkeypatch.setattr(daywatch.cli, "parse_records", records)
        assert main(["run", "--input", self.baseline_csv(tmp_path)]) == 2
        assert held == [emit_report(run_watch(baseline)).encode()]

    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("name", ["run", "sweep", "check"])
    def test_closed_stdout_ends_quietly(self, tmp_path, name, unbuffered):
        env = child_env(unbuffered)
        if name == "check":
            # check writes only at its end, so its reader goes first
            reader, writer = os.pipe()
            os.close(reader)
            child = subprocess.Popen(
                [sys.executable, "-m", "daywatch", "check"],
                stdout=writer, stderr=subprocess.PIPE, env=env)
            os.close(writer)
        else:
            child = subprocess.Popen(
                [sys.executable, "-m", "daywatch",
                 *self.command(tmp_path, name, 3000)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            assert len(child.stdout.read(100)) == 100
            child.stdout.close()  # as `| head -c 100` does
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait() == 141
        assert stderr == b""

    def test_sweep_of_an_inadmissible_base_writes_error_rows(self, tmp_path,
                                                             capsys):
        path = self.write(tmp_path, "bad.csv",
                          "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                          "d,-1,6,16,24,4,50,0.035\n")
        code = main(["sweep", "--input", path, "--param", "delta",
                     "--from", "0", "--to", "1", "--steps", "5"])
        captured = capsys.readouterr()
        assert code == 2
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["value"] for row in rows] == [
            "0.0", "0.25", "0.5", "0.75", "1.0"]
        for row in rows:
            assert row["degraded"] == "True"
            assert row["trade_volume_pct"] == ""
            assert row["error"] == "NonPositiveTime(t6_1) value=-1.0"

    @pytest.mark.parametrize("format, text", [
        ("csv", "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                "a,6,6,16,24,4,50,0.035\n"
                "b,6,6,abc,24,4,50,0.035\n"),
        ("json", '[{"date": "a", "t6_1": 6, "t6_2": 6, "t16": 16, "t24": 24, '
                 '"k_c": 4, "c_0": 50, "delta": 0.035},\n'
                 '{"date": "b", "t16": abc'),
    ], ids=["csv", "json"])
    def test_sweep_reads_only_its_base_record(self, tmp_path, capsys, format,
                                              text):
        path = self.write(tmp_path, f"base.{format}", text)
        code = main(["sweep", "--input", path, "--format", format,
                     "--param", "delta", "--from", "0", "--to", "1",
                     "--steps", "3"])
        captured = capsys.readouterr()
        assert code == 2  # the baseline record is degraded
        assert len(captured.out.splitlines()) == 4
        assert captured.err == ""

    def test_sweep_rejects_a_bad_spec(self, tmp_path, capsys):
        code = main(["sweep", "--input", self.baseline_csv(tmp_path),
                     "--param", "delta", "--from", "0", "--to", "1",
                     "--steps", "1"])
        assert code == 2
        assert "steps" in capsys.readouterr().err

    def test_sweep_needs_a_base_record(self, tmp_path, capsys):
        path = self.write(tmp_path, "empty.csv",
                          "date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n")
        code = main(["sweep", "--input", path, "--param", "delta",
                     "--from", "0", "--to", "1", "--steps", "3"])
        assert code == 3
        assert "base record" in capsys.readouterr().err

    def test_check_passes(self, capsys):
        code = main(["check"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out
        for name in ("permanent-oracle", "polynomial-endpoints",
                     "golden-baseline"):
            assert name in out

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(grid_analysis, "star_reliability", lambda v1: 0.5)
        code = main(["check"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL  polynomial-endpoints" in out

    def test_golden_comparison_never_matches_an_infinity_to_a_number(self):
        # numbers compare by math.isclose: inf is close to inf alone, and
        # nan to nothing
        for actual, expected in ((math.inf, 1.0), (1.0, math.inf),
                                 (-math.inf, math.inf),
                                 (math.nan, math.nan)):
            assert payload_mismatches({"a": actual}, {"a": expected}) == [
                f".a: {actual!r} != {expected!r} (rel 1e-09)"]
        assert payload_mismatches({"a": math.inf}, {"a": math.inf}) == []

    @pytest.mark.parametrize(("actual", "expected", "message"), [
        ([], {"a": 1.0}, ": expected object, got list"),
        ({"a": 1.0, "b": None}, {"a": 1.0}, ": keys ['a', 'b'] != ['a']"),
        ({"a": None}, {"a": []}, ".a: expected array, got NoneType"),
        ([1.0], [1.0, 2.0], ": length 1 != 2"),
        ("low", "high", ": 'low' != 'high'"),
        (True, 0.5, ": True != 0.5"),
        # a bool equals only a bool, even where Python's == says otherwise
        (True, 1, ": True != 1"),
        (1.0, True, ": 1.0 != True"),
        (False, 0, ": False != 0"),
        ({"a": True}, {"a": 1}, ".a: True != 1"),
    ], ids=["object", "keys", "array", "length", "string", "bool",
            "true-one", "one-true", "false-zero", "nested-bool"])
    def test_golden_comparison_names_each_mismatch(self, actual, expected,
                                                   message):
        assert payload_mismatches(actual, expected) == [message]

    def test_golden_check_fails_on_an_emission_that_drifts(self,
                                                           monkeypatch):
        # decodes to something other than the report, and differs on
        # every call
        calls = itertools.count()
        monkeypatch.setattr(daywatch.checks, "emit_report",
                            lambda report: json.dumps(next(calls)))
        result = daywatch.checks.check_golden()
        assert result.passed is False
        assert result.detail == ("emitted JSON does not decode to the "
                                 "report; repeated runs are not "
                                 "byte-identical")

    def test_golden_check_fails_on_a_flag_written_as_a_number(
            self, monkeypatch):
        def emit(report):
            payload = report_as_dict(report)
            flag = next(iter(payload["flags"]))
            payload["flags"][flag] = int(payload["flags"][flag])
            return json.dumps(payload)

        monkeypatch.setattr(daywatch.checks, "emit_report", emit)
        result = daywatch.checks.check_golden()
        assert result.passed is False
        assert result.detail == "emitted JSON does not decode to the report"

    def test_module_entry_point(self):
        completed = run_child("-m", "daywatch", "check")
        assert completed.returncode == 0
        assert completed.stdout.count("PASS") == 3

    def test_cli_import_leaves_fractions_unloaded(self):
        # only the self-check needs exact arithmetic, and only a long day
        # needs logging; run and sweep should not pay for loading them
        completed = run_child(
            "-c", "import sys, daywatch.cli; "
                  "print('fractions' in sys.modules, "
                  "'logging' in sys.modules)")
        assert completed.returncode == 0
        assert completed.stdout == "False False\n"

    def test_cli_import_leaves_dataclasses_and_the_checks_unloaded(self):
        # the records are named tuples, so nothing loads dataclasses and
        # the inspect module it brings; the self-checks load on first use
        completed = run_child(
            "-c", "import sys, daywatch.cli; "
                  "print(*(name in sys.modules for name in "
                  "('dataclasses', 'inspect', 'daywatch.checks'))); "
                  "import daywatch; "
                  "print(callable(getattr(daywatch, 'checks').run_all))")
        assert completed.returncode == 0
        assert completed.stdout == "False False False\nTrue\n"

    def one_day_argv(self, tmp_path, command, format):
        """The arguments of a run or a two-point sweep of one record."""
        text = ("date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                "a,6,6,16,24,4,50,0.035\n" if format == "csv"
                else self.dated_json("a")[0].join("[]"))
        path = self.write(tmp_path, f"days.{format}", text)
        argv = [command, "--input", path, "--format", format]
        if command == "sweep":
            argv += ["--param", "delta", "--from", "0", "--to", "1",
                     "--steps", "2"]
        return argv

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_only_json_input_loads_the_json_reader(self, tmp_path, command,
                                                   format):
        # CSV runs neither import nor compile the JSON reader
        argv = self.one_day_argv(tmp_path, command, format)
        completed = run_child(
            "-c", "import sys, daywatch.cli; "
                  f"code = daywatch.cli.main({argv!r}); "
                  "print(code, 'daywatch.json_reader' in sys.modules, "
                  "file=sys.stderr)")
        assert completed.returncode == 0
        assert completed.stderr == f"2 {format == 'json'}\n"

    @pytest.mark.parametrize("command, output", [
        ("run", "json"), ("run", "text"), ("sweep", None),
    ], ids=["run-json", "run-text", "sweep"])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_only_json_input_or_output_loads_json(self, tmp_path, command,
                                                  output, format):
        # the JSON template and encoder are built on the first JSON
        # report, so a sweep or a text report of CSV input never imports
        # json
        argv = self.one_day_argv(tmp_path, command, format)
        if output is not None:
            argv += ["--output", output]
        completed = run_child(
            "-c", "import sys; preloaded = 'json' in sys.modules; "
                  "import daywatch.cli; "
                  f"code = daywatch.cli.main({argv!r}); "
                  "print(code, preloaded, 'json' in sys.modules, "
                  "file=sys.stderr)")
        assert completed.returncode == 0
        code, preloaded, loaded = completed.stderr.split()
        if preloaded == "True":
            pytest.skip("json was loaded before daywatch, by site")
        assert (code, loaded) == ("2", str("json" in (format, output)))


def test_public_surface_is_what_the_package_imports():
    # __all__ is derived from the names __init__ imports, not listed twice
    names = daywatch.__all__
    assert names == sorted(names) and len(names) == 28
    assert not any(isinstance(getattr(daywatch, name), types.ModuleType)
                   for name in names)
    namespace = {}
    exec("from daywatch import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == names
    assert daywatch.RunConfig.__module__ == "daywatch.watch"
    assert daywatch.StateClassification.__module__ == "daywatch.watch"
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("daywatch.config")
    # the root names the watch; each formula has one path, its module's
    removed = {"inputs": "scale_times",
               "lyapunov": "build_matrix permanent",
               "grid_model": "second_pair separability",
               "grid_analysis": "QUENCH_CONSTANT energy_potential "
               "elliptic_distance hyperbolic_distance critical_distance "
               "star_reliability triangle_reliability quenched_probability "
               "trade_volume classify_market classify_grid threat_level",
               "watch": "false_alarm half_chain fourth_probability "
               "miss_probability"}
    for module, listed in removed.items():
        for name in listed.split():
            assert hasattr(getattr(daywatch, module), name)
            assert not hasattr(daywatch, name)
    values = list(map(vars(daywatch).get, names))
    formulas = [getattr(daywatch.watch, name)
                for name in removed["watch"].split()]
    for module in ("lyapunov", "grid_model", "grid_analysis"):
        formulas += [
            value for name, value in vars(getattr(daywatch, module)).items()
            if name.isupper() or isinstance(value, types.FunctionType)
            and value.__module__ == f"daywatch.{module}"]
    assert not any(value is formula
                   for value in values for formula in formulas)
    assert {value for value in values
            if isinstance(value, types.FunctionType)} == {
        daywatch.inputs.validate, daywatch.watch.run_watch,
        daywatch.io.emit_report, daywatch.io.report_as_dict,
        daywatch.io.parse_records, daywatch.io.sweep}


@pytest.mark.parametrize("module", ["lyapunov", "grid_model", "grid_analysis"])
def test_formula_modules_import_only_errors_from_the_package(module):
    # a formula takes scalars, so it needs no record of another module
    source = Path(daywatch.__file__).with_name(f"{module}.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith((".", "daywatch"))
            } <= {".errors"}
