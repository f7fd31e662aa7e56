"""Built-in self-checks: permanent oracle, polynomial endpoints, golden run.

These are the fast invariants a deployment can verify on site without
the test suite installed.  `daywatch check` runs them all.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import grid_analysis, lyapunov
from .inputs import InputParameters
from .io import emit_report, report_as_dict
from .watch import run_watch

# The record the golden report was generated from.
BASELINE = InputParameters(t6_1=6.0, t6_2=6.0, t16=16.0, t24=24.0,
                           k_c=4.0, c_0=50.0, delta=0.035)

GOLDEN_RESOURCE = "golden_baseline.json"
GOLDEN_RELATIVE_TOLERANCE = 1e-9
PERMANENT_RELATIVE_TOLERANCE = 1e-12
ENDPOINT_TOLERANCE = 1e-12


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def payload_mismatches(actual, expected, rel: float = GOLDEN_RELATIVE_TOLERANCE,
                       path: str = "") -> list[str]:
    """Recursive comparison of two report payloads; [] means equal."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected object, got {type(actual).__name__}"]
        problems = []
        if set(actual) != set(expected):
            problems.append(f"{path}: keys {sorted(actual)} != "
                            f"{sorted(expected)}")
        for key in expected:
            if key in actual:
                problems.extend(payload_mismatches(
                    actual[key], expected[key], rel, f"{path}.{key}"))
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list):
            return [f"{path}: expected array, got {type(actual).__name__}"]
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        problems = []
        for index, (a, e) in enumerate(zip(actual, expected)):
            problems.extend(payload_mismatches(a, e, rel, f"{path}[{index}]"))
        return problems
    # bool is an int subtype, but a bool equals only a bool here, and two
    # numbers (ints or floats that are not bools) compare by math.isclose
    bools = isinstance(actual, bool) + isinstance(expected, bool)
    if not bools and isinstance(actual, (int, float)) \
            and isinstance(expected, (int, float)):
        if math.isclose(actual, expected, rel_tol=rel):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel {rel})"]
    if bools == 1 or actual != expected:  # a str-enum equals its value
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def load_golden() -> dict:
    resource = importlib.resources.files("daywatch").joinpath(
        "data", GOLDEN_RESOURCE)
    return json.loads(resource.read_text(encoding="utf-8"))


def exact_permanent(matrix) -> Fraction:
    """per(A) of a 4x4 float matrix by the full 24-term expansion, exactly.

    Each float entry is n/d with d a power of two, so over the largest d
    the expansion is a sum of integer products: exact, and fast.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in matrix]
    unit = max(d for row in ratios for _, d in row)
    numerators = [[n * (unit // d) for n, d in row] for row in ratios]
    return Fraction(sum(
        math.prod(numerators[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(4))), unit ** 4)


def check_permanent(count: int = 1000, seed: int = 20260818) -> CheckResult:
    """The permanent vs. the exact 24-term expansion on random matrices."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        matrix = tuple(tuple(rng.uniform(0.0, 3.0) for _ in range(4))
                       for _ in range(4))
        exact = exact_permanent(matrix)
        gap = abs(Fraction(lyapunov.permanent(matrix)) - exact)
        worst = max(worst, float(gap / exact))
    passed = worst <= PERMANENT_RELATIVE_TOLERANCE
    return CheckResult("permanent-oracle", passed,
                       f"{count} matrices, worst relative gap {worst:.3e}")


def check_endpoints() -> CheckResult:
    """Both reliability polynomials hit 1 at 0 and 0 at 1."""
    gaps = (
        abs(grid_analysis.star_reliability(0.0) - 1.0),
        abs(grid_analysis.star_reliability(1.0)),
        abs(grid_analysis.triangle_reliability(0.0) - 1.0),
        abs(grid_analysis.triangle_reliability(1.0)),
    )
    worst = max(gaps)
    return CheckResult("polynomial-endpoints", worst <= ENDPOINT_TOLERANCE,
                       f"worst endpoint gap {worst:.3e}")


def check_golden() -> CheckResult:
    """The baseline record still reproduces the frozen golden report."""
    report = run_watch(BASELINE)
    payload = report_as_dict(report)
    problems = payload_mismatches(payload, load_golden())
    emitted = emit_report(report)
    if payload_mismatches(json.loads(emitted), payload, rel=0.0):
        problems.append("emitted JSON does not decode to the report")
    if emitted != emit_report(run_watch(BASELINE)):
        problems.append("repeated runs are not byte-identical")
    detail = "matches frozen report" if not problems \
        else "; ".join(problems[:4])
    return CheckResult("golden-baseline", not problems, detail)


def run_all() -> list[CheckResult]:
    return [check_permanent(), check_endpoints(), check_golden()]
