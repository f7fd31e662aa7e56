"""Write BENCH_<label>.json: the benchmark's figures for this checkout.

    python3 tools/bench_snapshot.py --label pr12 --seeds 401 402 403 \
        --trace-seed 401

Runs `python3 bench/run.py` once per workload and seed, with the run
length BENCHMARK.json sets, so that every BENCH file is comparable, and
writes to the checkout's root a JSON file holding the commit (and
whether src/ differs from it), the src/ line count and, per workload,
the seeds, each end-to-end metric's per-seed values with their median
and quartiles, the attempted and failed record counts, and whether every
run's output was correct.
With --trace-seed, one `--trace 1` run per workload on that seed adds
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one bench/run.py run."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(f"bench/run.py {workload} seed {seed} failed:\n"
                           f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles of per-seed values, in seed order."""
    quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else [values[0]] * 3)
    return {"values": values, "median": statistics.median(values),
            "q1": quartiles[0], "q3": quartiles[2]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def src_lines() -> int:
    # counted as bench/run.py counts its src.lines metric
    return sum(len(path.read_bytes().splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="the file written is BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seed", type=int,
                        help="also take the per-layer metrics on this seed")
    args = parser.parse_args()

    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(bench(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}",
                  file=sys.stderr)
        entry = {
            "seeds": args.seeds,
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": {
                metric["name"]: {"unit": metric["unit"], **summary(
                    [run["metrics"][metric["name"]]["value"]
                     for run in runs])}
                for metric in spec["end_to_end"]},
        }
        if args.trace_seed is not None:
            traced = bench(workload, args.trace_seed, spec["run_seconds"],
                           1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "correct": traced["correct"],
                                  "metrics": traced["metrics"]}
        workloads[workload] = entry

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({
        "label": args.label,
        "commit": git("rev-parse", "HEAD") or "unknown",
        # whether src/ differs from that commit: measured before committing
        "src_uncommitted": bool(git("status", "--porcelain", "--", "src")),
        "src_lines": src_lines(),
        "seconds": spec["run_seconds"],
        "workloads": workloads,
    }, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
