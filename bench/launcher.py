"""Starts the daywatch processes of a benchmark run and measures each one.

Linux keeps a process's peak resident set size across fork and exec, so
a child forked by run.py, which holds the corpus and its reference,
would report run.py's memory as its own.  This small process forks the
children instead, and its own footprint stays below any child's.

One JSON request per line on standard input,
    {"argv": [...], "env": {...}, "cwd": ..., "stdout": PATH, "stderr": PATH}
one JSON reply per line on standard output,
    {"exit_code": ..., "wall_s": ..., "setup_s": ..., "calibration_s": ...,
     "peak_rss_mb": ...}
where wall_s runs from launch to exit, setup_s from launch to the first
byte on the child's standard output, which is copied to PATH, and
calibration_s is the mean time of the calibration loop before and after.
"""

import json
import math
import os
import subprocess
import sys
import time


# A fixed pure-Python loop timed before and after each child gauges the
# machine's speed around it.  It allocates almost nothing, so that it does
# not raise the peak RSS this process hands on to its children.
CALIBRATION_STEPS = 100000


def calibrate() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_STEPS):
        a = i * 0.001 + 1.0
        x = math.exp(-a / 50) * math.log(a + (i & 15) + 0.5) + math.sqrt(a)
        table[i & 255] = repr(x)
    return time.perf_counter() - start


def run(request: dict) -> dict:
    before = calibrate()
    with open(request["stdout"], "wb") as stdout, \
            open(request["stderr"], "wb") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, stderr=stderr,
                                 cwd=request["cwd"], env=request["env"])
        first = None
        try:
            while chunk := os.read(child.stdout.fileno(), 1 << 20):
                if first is None:
                    first = time.perf_counter()
                stdout.write(chunk)
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        end = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    return {"exit_code": child.returncode, "wall_s": end - start,
            "setup_s": (end if first is None else first) - start,
            "calibration_s": (before + calibrate()) / 2,
            "peak_rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
