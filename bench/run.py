"""The daywatch benchmark: one seeded workload driven through the CLI.

    python3 bench/run.py --workload run-json --seed 1 --seconds 20 --trace 0

The corpus and its oracle reference come from corpus.py (cached).  A
first, untimed invocation fills the byte-code cache and has its output
checked in full by check.py.  Then the workload runs as a closed loop,
one `python3 -m daywatch` process at a time (the machine has 2 cores),
for --seconds and at least MIN_ROUNDS rounds.  Each round runs the whole
corpus, and its output must equal the checked output byte for byte or
is checked in full again, so every round attempts and fails the same
records.

--trace 0 reports the end-to-end metrics of the untraced rounds, as
medians: records per second of wall time from launch to exit, set-up
time from launch to the first byte of report output, and peak resident
memory of the child.  --trace 1 alternates untraced rounds with rounds
under tracing.py and reports the per-layer metrics instead, as medians
over the traced rounds; the difference between the two is the tracing
overhead.  Every time is scaled by a calibration loop timed around its
round (see CALIBRATION_REFERENCE_S).  Metric names and units are those
of BENCHMARK.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import corpus
import tracing
from corpus import CACHE, ROOT

MIN_ROUNDS = 3
TRACED_MIN_ROUNDS = 2
# The host's speed swings by up to 2x within a minute, with other tenants'
# load.  Every time is therefore scaled by the calibration loop timed around
# its round, relative to the loop's typical time on the reference machine
# (a 2-core Xeon VM, where it took 0.13-0.24 s).  Over five seeds this cut
# the spread of records_per_s from 14-19 % to 5-11 %.
CALIBRATION_REFERENCE_S = 0.15


@dataclass
class Invocation:
    stdout: bytes
    exit_code: int
    wall_s: float
    setup_s: float
    calibration_s: float
    peak_rss_mb: float

    def calibrated(self, seconds: float) -> float:
        """Seconds scaled to the reference speed of the calibration loop."""
        return seconds * CALIBRATION_REFERENCE_S / self.calibration_s


class Launcher:
    """The launcher.py process, which forks and measures every child."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        # At end of input the launcher exits once its current child has.
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()
        self.stdout.unlink(missing_ok=True)
        self.stderr.unlink(missing_ok=True)

    @property
    def stdout(self) -> Path:
        return CACHE / f"stdout-{self.process.pid}.bin"

    @property
    def stderr(self) -> Path:
        return CACHE / f"stderr-{self.process.pid}.txt"

    def run(self, argv: list[str]) -> Invocation:
        """Run one child to its end; time it and take its peak memory."""
        request = {"argv": argv, "cwd": str(ROOT),
                   "stdout": str(self.stdout), "stderr": str(self.stderr),
                   "env": dict(os.environ, PYTHONPATH=str(ROOT / "src"))}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py ended early")
        return Invocation(self.stdout.read_bytes(), **json.loads(reply))


class Harness:
    """Runs rounds of one workload and tallies their checked records."""

    def __init__(self, data: corpus.Corpus, launcher: Launcher):
        self.data, self.launcher = data, launcher
        self.source = CACHE / f"input-{data.workload.name}-{data.seed}." \
                              f"{data.workload.input_format}"
        self.source.write_text(data.input_text(), encoding="utf-8")
        self.cli_args = data.cli_args(self.source)
        self.schema = check.schema_validator() \
            if data.workload.output == "json" else None
        self.attempted = self.failed = 0
        self.correct = True
        self.first = launcher.run(daywatch(self.cli_args))
        self.verdict = self._check(self.first)
        self._count(self.first)

    def _check(self, run: Invocation) -> check.Verdict:
        verdict = check.check_output(self.data, run.stdout, run.exit_code,
                                     self.schema)
        for problem in verdict.problems:
            print(f"check: {problem}", file=sys.stderr)
        if verdict.fatal:
            stderr = self.launcher.stderr.read_text(errors="replace")
            print(f"daywatch stderr: {stderr[-2000:]}", file=sys.stderr)
        return verdict

    def _count(self, run: Invocation) -> None:
        same = (run.stdout == self.first.stdout
                and run.exit_code == self.first.exit_code)
        verdict = self.verdict if same else self._check(run)
        self.attempted += verdict.records
        self.failed += verdict.failed
        self.correct = self.correct and not verdict.fatal

    def round(self, argv: list[str]) -> Invocation:
        """One invocation over the whole corpus, checked and counted."""
        run = self.launcher.run(argv)
        self._count(run)
        return run


def until(deadline: float, rounds: int, minimum: int) -> bool:
    return rounds < minimum or time.perf_counter() < deadline


def daywatch(cli_args: list[str]) -> list[str]:
    return [sys.executable, "-m", "daywatch", *cli_args]


def end_to_end(harness: Harness, seconds: float) -> dict[str, float]:
    argv = daywatch(harness.cli_args)
    rounds = []
    deadline = time.perf_counter() + seconds
    while until(deadline, len(rounds), MIN_ROUNDS):
        rounds.append(harness.round(argv))
    records = len(harness.data.points)
    return {
        "records_per_s": statistics.median(
            records / run.calibrated(run.wall_s) for run in rounds),
        "setup_s": statistics.median(
            run.calibrated(run.setup_s) for run in rounds),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in rounds),
    }


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def per_layer(harness: Harness, seconds: float) -> dict[str, float]:
    data, cli_args = harness.data, harness.cli_args
    records = len(data.points)
    spans = CACHE / f"spans-{data.workload.name}-{data.seed}.json"
    traced = [sys.executable, tracing.__file__, str(spans)]
    untraced_s, traced_s, samples, accuracy = [], [], [], None
    deadline = time.perf_counter() + seconds
    while until(deadline, len(samples), TRACED_MIN_ROUNDS):
        run = harness.round(daywatch(cli_args))
        untraced_s.append(run.calibrated(run.wall_s))
        capture = ["--capture"] if accuracy is None else []
        run = harness.round(traced + capture + ["--", *cli_args])
        traced_s.append(run.calibrated(run.wall_s))
        result = json.loads(spans.read_text(encoding="utf-8"))
        samples.append(tracing.layer_metrics(result, records,
                                             run.calibrated(1.0)))
        if accuracy is None:
            accuracy = check.check_reports(data, result["reports"])
    checks = harness.launcher.run(traced + ["--", "check"])
    if checks.exit_code != 0:
        print(f"daywatch check failed:\n{checks.stdout.decode()}",
              file=sys.stderr)
        harness.correct = False
    result = json.loads(spans.read_text(encoding="utf-8"))
    verdict = harness.verdict
    return {
        **tracing.median_metrics(samples),
        "io.emit_bytes_per_record": len(harness.first.stdout) / records,
        "watch.error_records_per_record": verdict.error_records / records,
        "watch.threat_defined_frac": verdict.threat_defined / records,
        "lyapunov.max_rel_err": accuracy.max_rel_err["lyapunov"],
        "grid_model.max_rel_err": accuracy.max_rel_err["grid_model"],
        "grid_analysis.max_rel_err": accuracy.max_rel_err["grid_analysis"],
        "grid_analysis.reliability_max_rel_err":
            accuracy.max_rel_err["grid_analysis.reliability"],
        "watch.max_rel_err": accuracy.max_rel_err["watch"],
        "checks.run_all_s": checks.calibrated(
            tracing.span_seconds(result, "checks.run_all")),
        "src.lines": src_lines(),
        "trace.overhead_us_per_record": 1e6 * (
            statistics.median(traced_s) - statistics.median(untraced_s))
            / records,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    CACHE.mkdir(exist_ok=True)
    with Launcher() as launcher:
        harness = Harness(corpus.load(args.workload, args.seed), launcher)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(harness, args.seconds)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    print(f"{args.workload} seed {args.seed}: {harness.attempted} records "
          f"attempted, {harness.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": harness.correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
