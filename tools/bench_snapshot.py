"""Write BENCH_<label>.json: the benchmark's figures for a checkout, or a pair.

    python3 tools/bench_snapshot.py --label pr12 --seeds 401 402 403 \
        --trace-seed 401
    python3 tools/bench_snapshot.py --label pr13 --seeds 801 802 803 \
        --trace-seed 801 --pair ../parent ../change

Runs `python3 bench/run.py` once per workload and seed, with the run
length BENCHMARK.json sets, so that every BENCH file is comparable, and
writes to this checkout's root a JSON file holding the commit (and
whether src/ differs from it), the src/ line count, whether
PYTHONDONTWRITEBYTECODE and PYTHONUNBUFFERED are set, whether src/ held
byte code before the runs, how many CPUs the runs may use, the Python
version and, per workload, the seeds, each end-to-end metric's per-seed
values with their median and quartiles, the attempted and failed record
counts, and whether every run's output was correct.
With --trace-seed, one `--trace 1` run per workload on that seed adds
the per-layer metrics.

With --pair PARENT CHANGE, the runs are made in those two checkouts
instead, each seed once in each, and the side that runs first alternates
from seed to seed: the first run of a pair tends to read faster, and
where a checkout lies can move its figures too, so the two should be
fresh clones in sibling directories.  A side whose src/ already holds
byte code would start without compiling src/, and its setup_s would not
compare, so such a pairing is refused before any run, naming that side.
Each side gets the figures above, and each end-to-end metric the number
of seeds on which the change did better than the parent and two verdicts
(see verdicts): whether the change showed a gain, and whether it stayed
within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(root: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """The result line of one bench/run.py run in the checkout at root."""
    completed = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
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


def results(runs: list[dict], metrics: list[dict]) -> dict:
    """Correctness, record counts and end-to-end figures of some runs."""
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": {
            metric["name"]: {"unit": metric["unit"], **summary(
                [run["metrics"][metric["name"]]["value"] for run in runs])}
            for metric in metrics},
    }


def verdicts(entry: dict, metrics: list[dict]) -> dict:
    """gain_shown and within_bound of each end-to-end metric of a pairing.

    A gain is shown when the change wins at least 9 pairs in 10 and its
    median beats the parent's by more than the parent's q3 - q1.  The
    change is within bound when its median is worse than the parent's by
    at most the metric's BENCHMARK.json bound times the parent's median.
    """
    result = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = entry["parent"]["end_to_end"][name]
        change = entry["change"]["end_to_end"][name]
        gain = sign * (change["median"] - parent["median"])
        result[name] = {
            "gain_shown": (10 * entry["change_wins"][name]
                           >= 9 * len(entry["seeds"])
                           and gain > parent["q3"] - parent["q1"]),
            "within_bound": -gain <= metric["bound"] * parent["median"],
        }
    return result


def per_layer(root: Path, workload: str, seed: int, seconds: float) -> dict:
    traced = bench(root, workload, seed, seconds, 1)
    return {"seed": seed, "correct": traced["correct"],
            "metrics": traced["metrics"]}


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True).stdout.strip()


def checkout(root: Path) -> dict:
    """The commit of a checkout, whether src/ differs from it, its size,
    and what its runs inherit that moves setup_s and parallel figures.
    Taken before the runs, which may write byte code into src/."""
    return {
        "commit": git(root, "rev-parse", "HEAD") or "unknown",
        # measured before committing, src/ differs from that commit
        "src_uncommitted": bool(git(root, "status", "--porcelain", "--",
                                    "src")),
        # counted as bench/run.py counts its src.lines metric
        "src_lines": sum(len(path.read_bytes().splitlines())
                         for path in (root / "src").rglob("*.py")),
        # set, every daywatch start compiles src/ afresh
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        # held, daywatch starts without compiling src/, so a working tree's
        # setup_s reads lower than a fresh clone's
        "src_bytecode": any((root / "src").rglob("__pycache__/*.pyc")),
        "cpus": len(os.sched_getaffinity(0)),
        # set, stdout is unbuffered: its write sizes change, and peak_rss_mb
        # follows them through bench/launcher.py
        "unbuffered": bool(os.environ.get("PYTHONUNBUFFERED")),
        # compile and float.__repr__ speed depend on the interpreter
        "python": platform.python_version(),
    }


def single(spec: dict, seeds: list[int], trace_seed: int | None) -> dict:
    """The figures of this checkout, per workload."""
    figures = checkout(ROOT)
    seconds, workloads = spec["run_seconds"], {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(bench(ROOT, workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}",
                  file=sys.stderr)
        workloads[workload] = {"seeds": seeds,
                               **results(runs, spec["end_to_end"])}
        if trace_seed is not None:
            workloads[workload]["per_layer"] = per_layer(
                ROOT, workload, trace_seed, seconds)
    return {**figures, "seconds": seconds, "workloads": workloads}


def paired(spec: dict, seeds: list[int], trace_seed: int | None,
           roots: dict[str, Path]) -> dict:
    """The figures of the parent and the change, run in alternating pairs."""
    sides = {side: checkout(root) for side, root in roots.items()}
    for side, figures in sides.items():
        if figures["src_bytecode"]:
            raise SystemExit(f"bench_snapshot: the {side} checkout "
                             f"{roots[side]} holds byte code in src/; "
                             "pair fresh clones")
    seconds, workloads = spec["run_seconds"], {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        first = []
        for number, seed in enumerate(seeds):
            order = ("parent", "change") if number % 2 == 0 \
                else ("change", "parent")
            first.append(order[0])
            for side in order:
                runs[side].append(bench(roots[side], workload, seed,
                                        seconds, 0))
                print(f"{workload} seed {seed} {side}: "
                      f"{runs[side][-1]['metrics']}", file=sys.stderr)
        entry = {"seeds": seeds, "first": first,
                 **{side: results(runs[side], spec["end_to_end"])
                    for side in roots}}
        # a tie is no win
        entry["change_wins"] = {
            metric["name"]: sum(
                (change["metrics"][metric["name"]]["value"]
                 - parent["metrics"][metric["name"]]["value"])
                * (1 if metric["better"] == "higher" else -1) > 0
                for parent, change in zip(runs["parent"], runs["change"]))
            for metric in spec["end_to_end"]}
        entry["verdicts"] = verdicts(entry, spec["end_to_end"])
        if trace_seed is not None:
            entry["per_layer"] = {side: per_layer(roots[side], workload,
                                                  trace_seed, seconds)
                                  for side in roots}
        workloads[workload] = entry
    return {**sides, "seconds": seconds, "workloads": workloads}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="the file written is BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seed", type=int,
                        help="also take the per-layer metrics on this seed")
    parser.add_argument("--pair", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"),
                        help="compare these two checkouts, run in "
                             "alternating pairs")
    args = parser.parse_args()

    if args.pair is None:
        figures = single(spec, args.seeds, args.trace_seed)
    else:
        roots = dict(zip(("parent", "change"),
                         (path.resolve() for path in args.pair)))
        figures = paired(spec, args.seeds, args.trace_seed, roots)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({"label": args.label, **figures}, indent=2)
                    + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
