"""Command-line surface: run, sweep, check.

Exit codes
    0   every processed record was clean (or all checks passed)
    1   a self-check failed
    2   at least one record degraded: errors, anomaly flags, or
        inadmissible parameter values
    3   the input could not be parsed at all
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .checks import run_all
from .config import RunConfig
from .errors import ParseError, ValidationError
from .grid_analysis import DEFAULT_TOLERANCE, DEFAULT_UP_LOG_MODE, UP_LOG_MODES
from .inputs import FIELD_ORDER
from .io import (
    INPUT_FORMATS,
    OUTPUT_FORMATS,
    SWEEP_COLUMNS,
    SweepSpec,
    emit_report,
    parse_records,
    sweep,
    sweep_row,
)
from .watch import run_watch

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DEGRADED = 2
EXIT_UNPARSEABLE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daywatch",
        description="Day-ahead prognostic watch for an electric power "
                    "system: seven scalars in, a classified report out.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="evaluate every record of an input file")
    _add_input_arguments(run_parser)
    run_parser.add_argument("--output", choices=OUTPUT_FORMATS,
                            default="json", help="report format")
    _add_config_arguments(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="vary one parameter of the first record over a range")
    _add_input_arguments(sweep_parser)
    sweep_parser.add_argument("--param", required=True, choices=FIELD_ORDER,
                              help="input field to vary")
    sweep_parser.add_argument("--from", dest="start", type=float,
                              required=True, metavar="A",
                              help="range start (inclusive)")
    sweep_parser.add_argument("--to", dest="stop", type=float, required=True,
                              metavar="B", help="range stop (inclusive)")
    sweep_parser.add_argument("--steps", type=int, required=True,
                              help="number of evaluation points (>= 2)")
    _add_config_arguments(sweep_parser)

    subparsers.add_parser("check", help="run the built-in self-checks")
    return parser


def _add_input_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--input", required=True, metavar="FILE",
                           help="input records file")
    subparser.add_argument("--format", choices=INPUT_FORMATS, default="csv",
                           help="input file format")


def _add_config_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--tolerance", type=float,
                           default=DEFAULT_TOLERANCE,
                           help="relative tolerance of grid-state equality")
    subparser.add_argument("--up-log-mode", dest="up_log_mode",
                           choices=UP_LOG_MODES, default=DEFAULT_UP_LOG_MODE,
                           help="handling of non-positive potentials in "
                                "the quenched probability")


def _load_records(args):
    """Parsed records, or an exit code when the input is unusable."""
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
        return parse_records(text, args.format)
    except OSError as exc:
        print(f"daywatch: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_UNPARSEABLE
    except (UnicodeDecodeError, ParseError) as exc:
        print(f"daywatch: unparseable input: {exc}", file=sys.stderr)
        return EXIT_UNPARSEABLE
    except ValidationError as exc:
        print(f"daywatch: inadmissible record: {exc}", file=sys.stderr)
        return EXIT_DEGRADED


def _config_from(args) -> RunConfig:
    return RunConfig(equality_tolerance=args.tolerance,
                     up_log_mode=args.up_log_mode)


def _cmd_run(args) -> int:
    records = _load_records(args)
    if isinstance(records, int):
        return records
    try:
        config = _config_from(args)
    except ValueError as exc:
        print(f"daywatch: {exc}", file=sys.stderr)
        return EXIT_DEGRADED
    any_degraded = False
    for record in records:
        report = run_watch(record, config)
        any_degraded = any_degraded or report.degraded
        sys.stdout.write(emit_report(report, args.output))
    return EXIT_DEGRADED if any_degraded else EXIT_OK


def _cmd_sweep(args) -> int:
    records = _load_records(args)
    if isinstance(records, int):
        return records
    if not records:
        print("daywatch: sweep needs at least one base record",
              file=sys.stderr)
        return EXIT_UNPARSEABLE
    try:
        config = _config_from(args)
        spec = SweepSpec(parameter=args.param, start=args.start,
                         stop=args.stop, steps=args.steps)
    except ValueError as exc:
        print(f"daywatch: {exc}", file=sys.stderr)
        return EXIT_DEGRADED
    # Rows go out in blocks of a buffer's size, one write each, also when
    # stdout is unbuffered (python -u); only rows outlive a step, so one
    # report at a time is alive.
    block = io.StringIO()
    writer = csv.writer(block, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    degraded = SWEEP_COLUMNS.index("degraded")
    clean = True
    for row in map(sweep_row, sweep(records[0], spec, config)):
        writer.writerow(row)  # csv writes None as ""
        clean = clean and not row[degraded]
        if block.tell() >= io.DEFAULT_BUFFER_SIZE:
            sys.stdout.write(block.getvalue())
            block.seek(block.truncate(0))
    sys.stdout.write(block.getvalue())
    return EXIT_OK if clean else EXIT_DEGRADED


def _cmd_check(args) -> int:
    results = run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "check": _cmd_check}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
