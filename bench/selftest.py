"""Self-test of the benchmark's checks; not part of the tier-1 tests.

    python3 bench/selftest.py [--seed 1]

1. The checker counts a report as failed when its p_t is changed in the
   ninth significant digit (changes below the 1e-9 tolerance pass by
   design), when its threat level is wrong, and when a sweep row's
   trade volume or a text report's grid state is wrong.
2. Two runs of the benchmark command on the same seed fail the same
   number of records in every round, on every workload.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys

import check
import corpus
import run

LEVELS = ("low", "guarded", "elevated", "high", "severe")
STATES = ("normal", "restorative", "emergency")
failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def passing_index(data: corpus.Corpus, wanted) -> int:
    """A seeded record, which passes, whose reference satisfies wanted."""
    return next(i for i, ref in enumerate(data.reference)
                if i not in data.fixed_points and wanted(ref))


def corrupt_json(data, harness) -> None:
    reports = check.parse_json_reports(harness.first.stdout.decode())
    base = harness.verdict.failed

    def bump_p_t(report):
        report["probabilities"]["p_t"] *= 1 + 1e-8

    def wrong_threat(report):
        level = report["states"]["threat_level"]
        report["states"]["threat_level"] = \
            LEVELS[(LEVELS.index(level) + 1) % len(LEVELS)]

    for edit, wanted in (
            (bump_p_t, lambda ref: ref["probabilities"]["p_t"] is not None),
            (wrong_threat,
             lambda ref: ref["states"]["threat_level"] is not None)):
        index = passing_index(data, wanted)
        edited = copy.deepcopy(reports)
        edit(edited[index])
        stdout = "".join(json.dumps(r, indent=2) + "\n" for r in edited)
        verdict = check.check_output(data, stdout.encode(),
                                     harness.first.exit_code, harness.schema)
        expect(verdict.failed == base + 1,
               f"run-json: {edit.__name__} on record {index + 1} fails it "
               f"({verdict.failed} failed, {base} before)")


def corrupt_text(data, harness) -> None:
    text = harness.first.stdout.decode()
    index = passing_index(
        data, lambda ref: ref["states"]["grid_state"] is not None)
    blocks = text.split("degraded: ")
    state = data.reference[index]["states"]["grid_state"]
    other = STATES[(STATES.index(state) + 1) % len(STATES)]
    line = f"  {'grid_state':<18} "
    blocks[index] = blocks[index].replace(line + state, line + other)
    verdict = check.check_output(data, "degraded: ".join(blocks).encode(),
                                 harness.first.exit_code)
    expect(verdict.failed == harness.verdict.failed + 1,
           f"run-text-absolute: wrong grid state on record {index + 1} "
           f"fails it ({verdict.failed} failed)")


def corrupt_sweep(data, harness) -> None:
    lines = harness.first.stdout.decode().split("\n")
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-8))
    lines[1] = ",".join(cells)
    verdict = check.check_output(data, "\n".join(lines).encode(),
                                 harness.first.exit_code)
    expect(verdict.failed == harness.verdict.failed + 1,
           f"sweep-t16: wrong trade volume on the first row fails it "
           f"({verdict.failed} failed)")


def repeated_runs(workload: str, seed: int, per_round: int,
                  records: int) -> None:
    results = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, run.__file__, "--workload", workload,
             "--seed", str(seed), "--seconds", "1"],
            capture_output=True, text=True, check=True)
        results.append(json.loads(done.stdout.splitlines()[-1]))
    for result in results:
        rounds = result["attempted"] // records
        expect(result["attempted"] == rounds * records
               and result["failed"] == rounds * per_round,
               f"{workload}: {result['failed']} of {result['attempted']} "
               f"failed, {per_round} in each of {rounds} rounds")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    corpus.CACHE.mkdir(exist_ok=True)
    with run.Launcher() as launcher:
        for name, corrupt in (("run-json", corrupt_json),
                              ("run-text-absolute", corrupt_text),
                              ("sweep-t16", corrupt_sweep)):
            data = corpus.load(name, args.seed)
            harness = run.Harness(data, launcher)
            corrupt(data, harness)
            repeated_runs(name, args.seed, harness.verdict.failed,
                          len(data.points))
    print(f"{len(failures)} expectation(s) failed" if failures
          else "all expectations hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
