"""Checks of daywatch output against the oracle reference and the method.

Every report is compared with its reference report from corpus.py:

  * every numeric field agrees within REL_TOL relative error, and a
    null stands where the reference has a null;
  * states, threat level, flags, and the kind, stage and quantity of
    every error record are equal and in the same order.

Every report is also held to properties the method must have: JSON
output validates against the report schema, the echoed input equals
the input row, e2*t2 = 10 and discriminant = 3(2 + l_p1)**2 within
rounding, the threat level follows the published (market, grid) table,
and the clamped probabilities lie in [0, 1].  A report that breaks any
of these counts as one failed record.  An invocation whose exit code is
not 2 (the documented norm: some record is always degraded) or whose
report count differs from the number of input records fails as a whole.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field

from corpus import ROOT, SWEEP_NUMBERS, SWEEP_PARAM, error_kinds, oracle

REL_TOL = 1e-9
ROUNDING = 1e-12
EXPECTED_EXIT_CODE = 2
SCHEMA = ROOT / "src" / "daywatch" / "data" / "report_schema.json"

# Layer of each report field, for the per-layer accuracy metrics.
LAYER_OF_BLOCK = {"exponents": "lyapunov", "grid_model": "grid_model",
                  "potentials": "grid_analysis", "distances": "grid_analysis",
                  "probabilities": "grid_analysis", "watch": "watch"}
RELIABILITY = frozenset({"p_s", "p_t"})
LAYERS = ("lyapunov", "grid_model", "grid_analysis",
          "grid_analysis.reliability", "watch")

SWEEP_HEADER = ["value", "trade_volume_pct", "market_state", "grid_state",
                "threat_level", "p_false_alarm", "p_miss", "degraded", "error"]
ERROR_LINE = re.compile(r"    (\w+) in ([\w-]+)/(\w+): (.*)")
MAX_PROBLEMS = 5


@dataclass
class Verdict:
    """Outcome of checking one invocation's output."""

    records: int
    failed: int = 0
    fatal: bool = False
    problems: list[str] = field(default_factory=list)
    max_rel_err: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    error_records: int = 0
    threat_defined: int = 0

    def note(self, where: str, problems: list[str]) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{where}: {'; '.join(problems[:3])}")

    def reject(self, problem: str) -> "Verdict":
        self.failed, self.fatal = self.records, True
        self.problems.insert(0, problem)
        return self


def rel_err(actual, expected) -> float | None:
    """Error relative to the reference, absolute where the reference is 0.

    None when only one of the two is null.
    """
    if actual is None or expected is None:
        return 0.0 if actual is expected else None
    return abs(actual - expected) / (abs(expected) or 1.0)


def degraded(ref: dict) -> bool:
    """daywatch's definition of a degraded report."""
    flags = ref["flags"]
    return bool(ref["watch"]["errors"] or flags["paper_gap_flag"]
                or flags["pf_out_of_range"] or flags["pm_out_of_range"]
                or flags["pg_undefined"] or not flags["valid_percentage"]
                or not flags["v1_in_unit_interval"])


def schema_validator():
    """A validator for the shipped report schema (about 1.7 ms a report)."""
    import jsonschema
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def parse_json_reports(text: str) -> list[dict]:
    decoder, reports, index = json.JSONDecoder(), [], 0
    while True:
        while index < len(text) and text[index].isspace():
            index += 1
        if index == len(text):
            return reports
        report, index = decoder.raw_decode(text, index)
        reports.append(report)


def _text_value(section: str, name: str, shown: str):
    if shown == "undefined":
        return None
    if shown in ("True", "False"):
        return shown == "True"
    if section == "states" or name == "date":
        return shown
    return float(shown)


def parse_text_reports(text: str) -> list[dict]:
    """Text reports back into report dicts, plus their `degraded` line."""
    reports, report, section = [], None, None
    for line in text.splitlines():
        if line.startswith("degraded: "):
            report["degraded"] = line == "degraded: True"
            reports.append(report)
            report = None
        elif not line.startswith(" "):
            report = {} if report is None else report
            section = line
            report[section] = {"errors": []} if section == "watch" else {}
        elif line.startswith("    "):
            match = ERROR_LINE.fullmatch(line)
            if match is None:
                raise ValueError(f"unreadable error line {line!r}")
            error, stage, quantity, detail = match.groups()
            report[section]["errors"].append(
                {"error": error, "stage": stage, "quantity": quantity,
                 "detail": detail})
        elif line != "  errors":
            name, shown = line.split(None, 1)
            report[section][name] = _text_value(section, name, shown)
    if report is not None:
        raise ValueError("text output ends inside a report")
    return reports


def parse_sweep_rows(text: str) -> list[dict]:
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != SWEEP_HEADER:
        raise ValueError(f"sweep header {rows[:1]} != {SWEEP_HEADER}")
    parsed = []
    for cells in rows[1:]:
        row = {name: (cell if cell else None)
               for name, cell in zip(SWEEP_HEADER, cells, strict=True)}
        for name in ("value",) + SWEEP_NUMBERS:
            if row[name] is not None:
                row[name] = float(row[name])
        if row["degraded"] not in ("True", "False"):
            raise ValueError(f"degraded is {row['degraded']!r}")
        row["degraded"] = row["degraded"] == "True"
        parsed.append(row)
    return parsed


PARSERS = {"json": parse_json_reports, "text": parse_text_reports,
           "sweep": parse_sweep_rows}


def _threat_problems(states: dict, paper_gap) -> list[str]:
    market, grid = states["market_state"], states["grid_state"]
    if market is None or grid is None:
        want = (None, False)
    else:
        want = oracle.THREAT_TABLE[(market, grid)]
    have = (states["threat_level"], want[1] if paper_gap is None
            else paper_gap)
    return [] if have == want else [
        f"threat {have} for ({market}, {grid}), table says {want}"]


def _clamp_problems(values: dict) -> list[str]:
    return [f"{name} = {values[name]!r} outside [0, 1]"
            for name in ("p_false_alarm", "p_miss")
            if values[name] is not None and not 0 <= values[name] <= 1]


def compare_report(report: dict, ref: dict, verdict: Verdict) -> list[str]:
    """Differences between a full report and its reference."""
    problems = []
    for block, fields in ref.items():
        if block == "input":
            continue
        have = report.get(block)
        if not isinstance(have, dict) or have.keys() != fields.keys():
            problems.append(f"{block}: fields differ")
            continue
        for name, want in fields.items():
            got = have[name]
            if name == "errors":
                if error_kinds(got) != error_kinds(want):
                    problems.append(f"errors {error_kinds(got)} != "
                                    f"{error_kinds(want)}")
            elif block in ("states", "flags"):
                if got != want:
                    problems.append(f"{block}.{name} {got!r} != {want!r}")
            else:
                err = rel_err(got, want)
                if err is None or err > REL_TOL:
                    problems.append(f"{block}.{name} {got!r} != {want!r}")
                if err is not None:
                    layer = ("grid_analysis.reliability"
                             if name in RELIABILITY else LAYER_OF_BLOCK[block])
                    verdict.max_rel_err[layer] = max(
                        verdict.max_rel_err[layer], err)
    return problems


def _report_problems(report, row, ref, verdict, schema) -> list[str]:
    verdict.error_records += len(report.get("watch", {}).get("errors", []))
    verdict.threat_defined += \
        report.get("states", {}).get("threat_level") is not None
    problems = compare_report(report, ref, verdict)
    echo = {"date": row["date"], **{name: float(row[name])
                                     for name in ref["input"]
                                     if name != "date"}}
    if report.get("input") != echo:
        problems.append(f"input echo {report.get('input')} != {echo}")
    if problems:
        return problems
    model, exponents = report["grid_model"], report["exponents"]
    if model["e2"] is not None and model["t2"] is not None \
            and abs(model["e2"] * model["t2"] - 10) > 10 * ROUNDING:
        problems.append(f"e2*t2 = {model['e2'] * model['t2']!r}")
    if model["discriminant"] is not None and exponents["l_p1"] is not None:
        identity = 3 * (2 + exponents["l_p1"]) ** 2
        if rel_err(model["discriminant"], identity) > ROUNDING:
            problems.append(f"discriminant {model['discriminant']!r} != "
                            f"3(2 + l_p1)^2 = {identity!r}")
    problems += _threat_problems(report["states"],
                                 report["flags"]["paper_gap_flag"])
    problems += _clamp_problems(report["watch"])
    if "degraded" in report and report["degraded"] != degraded(ref):
        problems.append(f"degraded: {report['degraded']}")
    if schema is not None:
        problems += [error.message for error in schema.iter_errors(report)]
    return problems


def _sweep_problems(row, point, ref, verdict) -> list[str]:
    want = {
        "value": point[SWEEP_PARAM],
        "trade_volume_pct": ref["watch"]["trade_volume_pct"],
        **ref["states"],
        "p_false_alarm": ref["watch"]["p_false_alarm"],
        "p_miss": ref["watch"]["p_miss"],
        "degraded": degraded(ref),
        "error": "; ".join(f"{e}({s}/{q})" for e, s, q
                           in error_kinds(ref["watch"]["errors"])) or None,
    }
    problems = []
    for name, expected in want.items():
        if name in SWEEP_NUMBERS:
            err = rel_err(row[name], expected)
            if err is not None:
                verdict.max_rel_err["watch"] = max(
                    verdict.max_rel_err["watch"], err)
            if err is None or err > REL_TOL:
                problems.append(f"{name} {row[name]!r} != {expected!r}")
        elif row[name] != expected:
            problems.append(f"{name} {row[name]!r} != {expected!r}")
    problems += _threat_problems(row, None) + _clamp_problems(row)
    verdict.error_records += len(row["error"].split("; ")) \
        if row["error"] else 0
    verdict.threat_defined += row["threat_level"] is not None
    return problems


def check_output(corpus, stdout: bytes, exit_code: int,
                 schema=None) -> Verdict:
    """Check one invocation's standard output and exit code.

    JSON reports are validated with `schema`, a schema_validator(), if given.
    """
    verdict = Verdict(records=len(corpus.points))
    output = corpus.workload.output
    try:
        reports = PARSERS[output](stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        return verdict.reject(f"unreadable {output} output: {exc}")
    if exit_code != EXPECTED_EXIT_CODE:
        return verdict.reject(f"exit code {exit_code}, "
                              f"expected {EXPECTED_EXIT_CODE}")
    if len(reports) != len(corpus.points):
        return verdict.reject(f"{len(reports)} reports for "
                              f"{len(corpus.points)} records")
    for index, (report, point, ref) in enumerate(
            zip(reports, corpus.points, corpus.reference)):
        if output == "sweep":
            problems = _sweep_problems(report, point, ref, verdict)
        else:
            problems = _report_problems(
                report, point, ref, verdict,
                schema if output == "json" else None)
        if problems:
            verdict.failed += 1
            verdict.note(f"record {index + 1}", problems)
    return verdict


def check_reports(corpus, reports: list[dict]) -> Verdict:
    """Compare full report dicts (as traced runs capture them) only."""
    verdict = Verdict(records=len(corpus.points))
    if len(reports) != len(corpus.points):
        return verdict.reject(f"{len(reports)} reports captured for "
                              f"{len(corpus.points)} records")
    for index, (report, ref) in enumerate(zip(reports, corpus.reference)):
        problems = compare_report(report, ref, verdict)
        if problems:
            verdict.failed += 1
            verdict.note(f"record {index + 1}", problems)
    return verdict
