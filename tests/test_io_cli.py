"""Parsing, serialization, sweeps, and the command-line surface."""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daywatch
from daywatch import (
    InputParameters,
    ParseError,
    RunConfig,
    SweepSpec,
    ValidationError,
    emit_report,
    parse_records,
    run_watch,
    sweep,
)
from daywatch.cli import main
from daywatch.errors import ErrorRecord
from daywatch.grid_analysis import UP_LOG_MODES
from daywatch.inputs import FIELD_ORDER
from daywatch.io import CSV_HEADER, SWEEP_COLUMNS, report_as_dict, sweep_row

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


def payload_of(record, **config):
    report = run_watch(record, RunConfig(**config) if config else None)
    return json.loads(emit_report(report))


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
            lines.append(f"  {name:<18} {shown}")
    lines.append(f"degraded: {report.degraded}")
    return "\n".join(lines) + "\n"


def with_leaf(report, section, key, value):
    """The report with one numeric leaf of its dict form replaced."""
    if section == "input":
        return dataclasses.replace(
            report, params=dataclasses.replace(report.params, **{key: value}))
    if key in report.trace:
        return dataclasses.replace(report, trace={**report.trace, key: value})
    return dataclasses.replace(report, **{key: value})


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


class TestParseCsv:
    def test_happy_path(self):
        text = ("date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                "2026-01-01,6,6,16,24,4,50,0.035\n")
        (record,) = parse_records(text)
        assert record == InputParameters(
            t6_1=6.0, t6_2=6.0, t16=16.0, t24=24.0,
            k_c=4.0, c_0=50.0, delta=0.035, date="2026-01-01",
        )

    def test_corpus_parses(self, records_csv):
        records = parse_records(records_csv)
        assert len(records) == 7
        assert records[0].date == "2026-01-01"
        assert records[-1].date is None  # empty date cell

    def test_cells_may_carry_spaces(self):
        text = ("date,t6_1,t6_2,t16,t24,k_c,c_0,delta\n"
                " d , 6 ,6,16,24,4,50, 0.035 \n")
        (record,) = parse_records(text)
        assert record.date == "d"
        assert record.delta == 0.035

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_empty_text_is_an_empty_batch(self, format):
        assert parse_records("", format) == []
        assert parse_records("   \n  ", format) == []

    def test_header_only_is_an_empty_batch(self):
        assert parse_records(",".join(CSV_HEADER) + "\n") == []

    def test_wrong_header(self):
        with pytest.raises(ParseError) as excinfo:
            parse_records("t6_1,t6_2\n1,2\n")
        assert excinfo.value.row == 1
        assert "header" in str(excinfo.value)

    def test_wrong_field_count(self):
        text = ",".join(CSV_HEADER) + "\nd,1,2,3\n"
        with pytest.raises(ParseError) as excinfo:
            parse_records(text)
        assert excinfo.value.row == 1

    def test_non_numeric_field(self):
        text = (",".join(CSV_HEADER)
                + "\nd,6,6,16,24,4,50,0.035\nd,6,6,abc,24,4,50,0.035\n")
        with pytest.raises(ParseError) as excinfo:
            parse_records(text)
        assert excinfo.value.row == 2
        assert "'t16'" in str(excinfo.value)
        assert "'abc'" in str(excinfo.value)

    def test_inadmissible_record_carries_its_row(self):
        text = (",".join(CSV_HEADER)
                + "\nd,6,6,16,24,4,50,0.035\nd,-1,6,16,24,4,50,0.035\n")
        with pytest.raises(ValidationError) as excinfo:
            parse_records(text)
        assert excinfo.value.row == 2
        assert excinfo.value.fields == ("t6_1",)


class TestParseJson:
    def record(self, **overrides):
        entry = dict(t6_1=6, t6_2=6, t16=16, t24=24, k_c=4, c_0=50,
                     delta=0.035)
        entry.update(overrides)
        return entry

    def test_happy_path(self):
        text = json.dumps([self.record(date="2026-01-01"), self.record()])
        records = parse_records(text, "json")
        assert len(records) == 2
        assert records[0].date == "2026-01-01"
        assert records[1].date is None
        assert records[1].t16 == 16.0

    def test_null_date(self):
        (record,) = parse_records(json.dumps([self.record(date=None)]),
                                  "json")
        assert record.date is None

    def test_bool_is_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            parse_records(json.dumps([self.record(k_c=True)]), "json")
        assert "'k_c'" in str(excinfo.value)

    def test_unknown_field(self):
        with pytest.raises(ParseError) as excinfo:
            parse_records(json.dumps([self.record(extra=1)]), "json")
        assert "extra" in str(excinfo.value)

    def test_missing_field(self):
        entry = self.record()
        del entry["c_0"]
        with pytest.raises(ParseError) as excinfo:
            parse_records(json.dumps([entry]), "json")
        assert "c_0" in str(excinfo.value)

    def test_top_level_must_be_an_array(self):
        with pytest.raises(ParseError):
            parse_records(json.dumps(self.record()), "json")

    def test_records_must_be_objects(self):
        with pytest.raises(ParseError) as excinfo:
            parse_records("[42]", "json")
        assert excinfo.value.row == 1

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_records("{not json", "json")

    def test_unknown_format_is_a_usage_error(self):
        with pytest.raises(ValueError):
            parse_records("x", "xml")


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
        for record in parse_records(records_csv):
            for mode in ("strict", "absolute"):
                validator.validate(payload_of(record, up_log_mode=mode))

    def test_emitted_json_is_strictly_finite(self, records_csv):
        for record in parse_records(records_csv):
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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_leaf_is_refused(self, baseline, value):
        report = run_watch(baseline)
        edited = [dataclasses.replace(report, errors=(ErrorRecord(
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
            (dict(parameter="delta", start=0.0, stop=1.0, steps=1), "steps"),
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

    def test_sweep_covers_every_point_in_order(self, clean):
        spec = SweepSpec(parameter="delta", start=0.0, stop=1.0, steps=101)
        entries = list(sweep(clean, spec))
        assert len(entries) == 101
        assert [e.value for e in entries] == [spec.value_at(i)
                                              for i in range(101)]
        assert entries[0].report.trace["l_p1"] == 1.0
        assert all(e.report is not None for e in entries)

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


def run_child(*args):
    """Run the interpreter with args, importing the daywatch under test.

    The child sees the same daywatch as this test, whether pytest found it
    through PYTHONPATH or through its own pythonpath setting.
    """
    source = str(Path(daywatch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source,
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


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

    def test_sweep_holds_one_report_at_a_time(self, tmp_path, capsys,
                                              monkeypatch):
        reports = []  # a weak reference to each report made
        alive = []    # how many of them are alive as each evaluation starts

        def watched(point, config):
            alive.append(sum(ref() is not None for ref in reports))
            report = run_watch(point, config)
            reports.append(weakref.ref(report))
            return report

        monkeypatch.setattr(daywatch.io, "run_watch", watched)
        code = main(["sweep", "--input", self.baseline_csv(tmp_path),
                     "--param", "delta", "--from", "0", "--to", "1",
                     "--steps", "5"])
        assert code == 2
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert alive == [0] * 5

    def test_sweep_writes_rows_in_blocks(self, tmp_path, monkeypatch):
        class Recorder:  # an unbuffered stdout: each write goes out alone
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["sweep", "--input", self.baseline_csv(tmp_path),
                     "--param", "t16", "--from", "5", "--to", "15",
                     "--steps", "1001"])
        assert code == 2
        lines = "".join(stdout.writes).splitlines()
        assert len(lines) == 1002
        longest = max(len(line) + 1 for line in lines)
        # every write but the last is one block, of at least the buffer size
        assert len(stdout.writes) >= 2
        for text in stdout.writes[:-1]:
            assert text.endswith("\n")
            assert io.DEFAULT_BUFFER_SIZE <= len(text) \
                < io.DEFAULT_BUFFER_SIZE + longest
        assert 0 < len(stdout.writes[-1]) < io.DEFAULT_BUFFER_SIZE + longest

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

    def test_module_entry_point(self):
        completed = run_child("-m", "daywatch", "check")
        assert completed.returncode == 0
        assert completed.stdout.count("PASS") == 3

    def test_cli_import_leaves_fractions_unloaded(self):
        # only the self-check needs exact arithmetic; run and sweep
        # should not pay for loading it
        completed = run_child(
            "-c", "import sys, daywatch.cli; "
                  "print('fractions' in sys.modules)")
        assert completed.returncode == 0
        assert completed.stdout == "False\n"
