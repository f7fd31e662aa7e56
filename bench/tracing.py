"""Traced daywatch runs: spans around every public layer function.

Run as a program, this wraps the public functions of the daywatch
modules from outside, runs the CLI with the remaining arguments, and
writes the spans (name, start, end, parent) to SPANS_FILE when the CLI
returns:

    PYTHONPATH=src python3 bench/tracing.py SPANS_FILE [--capture] -- run ...

A wrapper replaces a function wherever callers look it up: on its own
module, where run_watch resolves it at call time, and in every daywatch
module that imported it by name (cli imports parse_records, emit_report,
sweep, sweep_rows, run_watch and run_all; io imports run_watch and
validate).  With --capture the reports run_watch returns are kept and
written out too, so that a run whose output holds only some fields can
still be checked field by field.

Imported by run.py, the module turns spans into per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

MODULES = ("inputs", "lyapunov", "grid_model", "grid_analysis", "watch",
           "io", "checks")

# Per-layer groups of grid_analysis functions, in pipeline order.
GRID_ANALYSIS_GROUPS = {
    "potentials": ("energy_potential", "auxiliary_potential",
                   "frequency_from_auxiliary", "trade_volume"),
    "distances": ("elliptic_distance", "hyperbolic_distance",
                  "critical_distance"),
    "reliability": ("star_reliability", "triangle_reliability",
                    "quenched_probability"),
    "classify": ("classify_market", "classify_grid", "threat_level"),
}


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name, parent, start, end]
        self.stack: list[int] = []
        self.captured: list = []

    def wrap(self, name: str, function, capture: bool = False):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        captured = self.captured

        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if capture:
                captured.append(result)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self, package, capture_reports: bool) -> None:
        modules = [getattr(package, name) for name in MODULES + ("cli",)]
        for short in MODULES:
            module = getattr(package, short)
            for attr, function in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(function) \
                        or function.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(
                    f"{short}.{attr}", function,
                    capture_reports and f"{short}.{attr}" == "watch.run_watch")
                for holder in modules + [package]:
                    for name, value in vars(holder).copy().items():
                        if value is function:
                            setattr(holder, name, wrapper)


def main(argv: list[str]) -> int:
    spans_file, rest = argv[0], argv[1:]
    capture = rest[:1] == ["--capture"]
    cli_args = rest[rest.index("--") + 1:]
    start = time.perf_counter()
    import daywatch
    import daywatch.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(daywatch, capture)
    exit_code = daywatch.cli.main(cli_args)
    sys.stdout.flush()
    report_as_dict = inspect.unwrap(daywatch.io.report_as_dict)
    reports = [report_as_dict(report) for report in tracer.captured]
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "names": tracer.names,
                   "spans": tracer.spans, "reports": reports}, handle)
    return exit_code


def layer_metrics(trace: dict, records: int,
                  scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, times multiplied by scale.

    A layer's time is the sum of its outermost spans: those whose parent
    is not a span of the same layer.  A span's self time is its duration
    minus the durations of its direct children.
    """
    names, spans = trace["names"], trace["spans"]
    layer = [name.split(".")[0] for name in names]
    duration = [(end - start) * scale for _, _, start, end in spans]
    children = [0] * len(spans)
    for index, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[index]

    def spans_of(*wanted):
        return [i for i, span in enumerate(spans) if names[span[0]] in wanted]

    def total_us(indices):
        return sum(duration[i] for i in indices) / 1e3

    def per(value, count):
        return value / count if count else 0.0

    def layer_us(short, members=None):
        total = 0
        for i, (name, parent, _, _) in enumerate(spans):
            if layer[name] == short and (members is None
                                         or names[name] in members) \
                    and (parent < 0 or layer[spans[parent][0]] != short):
                total += duration[i]
        return total / 1e3

    validate = spans_of("inputs.validate")
    scale_times = spans_of("inputs.scale_times")
    permanent = spans_of("lyapunov.permanent")
    run_watch = spans_of("watch.run_watch")
    sweeps = set(spans_of("io.sweep", "io.sweep_rows"))
    watch_in_sweep = [i for i in run_watch if spans[i][1] in sweeps]
    metrics = {
        "io.parse_us_per_record":
            per(total_us(spans_of("io.parse_records")), records),
        "io.emit_us_per_record":
            per(total_us(spans_of("io.emit_report")), records),
        "io.sweep_us_per_point":
            per(total_us(sweeps) - total_us(watch_in_sweep), records),
        "inputs.validate_calls_per_record": per(len(validate), records),
        "inputs.validate_us_per_call": per(total_us(validate), len(validate)),
        "inputs.scale_us_per_call":
            per(total_us(scale_times), len(scale_times)),
        "lyapunov.permanent_us_per_call":
            per(total_us(permanent), len(permanent)),
        "lyapunov.exponents_us_per_record":
            per(layer_us("lyapunov"), records),
        "grid_model.us_per_record": per(layer_us("grid_model"), records),
        "watch.run_watch_us_per_record": per(total_us(run_watch), records),
        "watch.self_us_per_record": per(
            sum(duration[i] - children[i] for i in run_watch) / 1e3, records),
        "cli.import_s": trace["import_s"] * scale,
    }
    for group, members in GRID_ANALYSIS_GROUPS.items():
        metrics[f"grid_analysis.{group}_us_per_record"] = per(
            layer_us("grid_analysis",
                     {f"grid_analysis.{m}" for m in members}), records)
    return metrics


def span_seconds(trace: dict, name: str) -> float:
    index = trace["names"].index(name)
    return sum(end - start for span_name, _, start, end in trace["spans"]
               if span_name == index) / 1e9


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
