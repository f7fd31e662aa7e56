"""Command-line surface: run, sweep, check.

Exit codes
    0   every processed record was clean (or all checks passed)
    1   a self-check failed
    2   at least one record degraded: errors, anomaly flags, or
        inadmissible parameter values; or an option value was bad
    3   the input could not be read, or a row of it could not be parsed
    141 stdout was closed early (128 + SIGPIPE), by any command

Whatever the code, a command writes out what it made before it stopped:
run the reports of the rows before an unparseable one (for JSON as for
CSV, since both are read one record at a time), sweep its header and the
rows of the points evaluated before a failure.

The first problem found sets the code, in this order: a usage error
(2, from argparse), an input file that cannot be opened (3), a bad
--tolerance, --steps, --from or --to (2), then the input's contents.
So `run --input <bad header> --tolerance -1` exits 2, and `sweep` of a
header-only file with --steps 1 exits 2, not 3.

run evaluates and writes one record at a time; an inadmissible record is
named on stderr with its row number, and the batch goes on.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

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
from .watch import RunConfig, run_watch

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DEGRADED = 2
EXIT_UNPARSEABLE = 3
EXIT_BROKEN_PIPE = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daywatch",
        description="Day-ahead prognostic watch for an electric power "
                    "system: seven scalars in, a classified report out.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="evaluate every record of an input file")
    _add_common_arguments(run_parser)
    run_parser.add_argument("--output", choices=OUTPUT_FORMATS,
                            default="json", help="report format")

    sweep_parser = subparsers.add_parser(
        "sweep", help="vary one parameter of the first record over a range")
    _add_common_arguments(sweep_parser)
    sweep_parser.add_argument("--param", required=True, choices=FIELD_ORDER,
                              help="input field to vary")
    sweep_parser.add_argument("--from", dest="start", type=float,
                              required=True, metavar="A",
                              help="range start (inclusive)")
    sweep_parser.add_argument("--to", dest="stop", type=float, required=True,
                              metavar="B", help="range stop (inclusive)")
    sweep_parser.add_argument("--steps", type=int, required=True,
                              help="number of evaluation points (>= 2)")

    subparsers.add_parser("check", help="run the built-in self-checks")
    return parser


def _add_common_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--input", required=True, metavar="FILE",
                           help="input records file")
    subparser.add_argument("--format", choices=INPUT_FORMATS, default="csv",
                           help="input file format")
    subparser.add_argument("--tolerance", type=float,
                           default=DEFAULT_TOLERANCE,
                           help="relative tolerance of grid-state equality")
    subparser.add_argument("--up-log-mode", dest="up_log_mode",
                           choices=UP_LOG_MODES, default=DEFAULT_UP_LOG_MODE,
                           help="handling of non-positive potentials in "
                                "the quenched probability")


class _Blocks(io.StringIO):
    """Text bound for stdout, sent a block at a time, one write each
    whether or not stdout is buffered (python -u).

    The first block goes out, flushed, as soon as it holds a piece (a
    report, or a sweep's header and first row), so the first output is
    not held back; every later block once it reaches a buffer's size.
    Leaving the `with` block sends the rest, also when a command fails.
    """

    full = 1  # the first piece fills the first block

    def send_if_full(self) -> None:
        """Write a full block out and start the next one in its place."""
        if self.tell() >= self.full:
            sys.stdout.write(self.getvalue())
            self.seek(self.truncate(0))
            if self.full == 1:
                sys.stdout.flush()
            self.full = io.DEFAULT_BUFFER_SIZE

    def __exit__(self, *exc_info) -> None:
        sys.stdout.write(self.getvalue())
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        super().__exit__(*exc_info)


def _cmd_run(output, config, records) -> int:
    any_degraded = False
    with _Blocks() as out:
        for row, record in records:
            try:
                report = run_watch(record, config)
            except ValidationError as exc:
                print(f"daywatch: inadmissible record: row {row}: {exc}",
                      file=sys.stderr)
                any_degraded = True
                continue
            any_degraded = any_degraded or report.degraded
            out.write(emit_report(report, output))
            out.send_if_full()
            del report  # hold none while the next record is evaluated
    return EXIT_DEGRADED if any_degraded else EXIT_OK


def _cmd_sweep(spec, config, records) -> int:
    _, base = next(records, (None, None))  # the only record read
    if base is None:
        print("daywatch: sweep needs at least one base record",
              file=sys.stderr)
        return EXIT_UNPARSEABLE
    degraded = SWEEP_COLUMNS.index("degraded")
    clean = True
    # only rows outlive a step, so one report at a time is alive
    with _Blocks() as out:
        # the writer fills the block itself: no Python-level write per row
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in map(sweep_row, sweep(base, spec, config)):
            writer.writerow(row)  # csv writes None as ""
            out.send_if_full()
            clean = clean and not row[degraded]
    return EXIT_OK if clean else EXIT_DEGRADED


def _cmd_check() -> int:
    from .checks import run_all  # loaded by this command alone

    results = run_all()
    with _Blocks() as out:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status}  {result.name}: {result.detail}", file=out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check()
        try:
            # utf-8-sig drops the byte-order mark spreadsheets write
            handle = open(args.input, "r", encoding="utf-8-sig")
        except OSError as exc:
            print(f"daywatch: cannot read {args.input}: {exc}",
                  file=sys.stderr)
            return EXIT_UNPARSEABLE
        with handle:
            try:
                config = RunConfig(equality_tolerance=args.tolerance,
                                   up_log_mode=args.up_log_mode)
                if args.command == "sweep":
                    spec = SweepSpec(parameter=args.param, start=args.start,
                                     stop=args.stop, steps=args.steps)
            except ValueError as exc:
                print(f"daywatch: {exc}", file=sys.stderr)
                return EXIT_DEGRADED
            records = parse_records(handle, args.format)
            if args.command == "run":
                return _cmd_run(args.output, config, records)
            return _cmd_sweep(spec, config, records)
    except (UnicodeDecodeError, ParseError) as exc:
        print(f"daywatch: unparseable input: {exc}", file=sys.stderr)
        return EXIT_UNPARSEABLE
    except BrokenPipeError:  # reader gone: the exit-time flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
