"""Op timings scaled to a reference machine speed.

The machine the benchmark was tuned on (2-core Xeon, shared host) changes
speed from one minute to the next: over a few minutes the same pure-Python
work took up to twice as long, with next to no steal time, and CPU time
drifted with wall time.  Raw latencies of one 20 s run then differed from
those of the next by more than the regressions the benchmark should catch.

So the worker times a fixed reference kernel before every op and once after
the last, off the clock.  The kernel uses the standard library only, so the
program under test cannot change its cost, and it runs with the garbage
collector off, so the program's heap does not either.  Each op latency is
scaled by REFERENCE_S over the median kernel time of the samples taken
within WINDOW_S of the op; a scaled time reads as the time the op would take
on a machine where the kernel takes REFERENCE_S.

Set-up (interpreter start, imports, warm-up) followed the kernel poorly, so
it has its own reference: a fresh interpreter that imports a fixed set of
standard modules, timed just before and just after each set-up worker.  Over
two minutes of alternating runs, 10 s medians of set-up time ranged over
0.25 of their median raw, 0.18 scaled by the kernel and 0.07 scaled by this
start-up reference.  On the tuning machine, the
median latency of the same op over 20 s windows varied by 0.22-0.34
(IQR/median) raw and by 0.03-0.05 scaled.  The raw times stay in the
results record.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0015  # nominal kernel time, about its fast-state time on the tuning machine
WINDOW_S = 0.5  # kernel samples this close to an op set its speed
START_REFERENCE_S = 0.05  # nominal time of START_ARGV, about its median on the tuning machine
START_ARGV = [sys.executable, "-S", "-c",
              "import json, fractions, decimal, argparse, concurrent.futures"]


def kernel():
    """Fixed object work in the program's mix: int and dict traffic, a sort,
    float maths and a small Fraction sum.  A bare bytecode loop followed the
    program's slowdowns less closely, and so did a long Fraction sum."""
    table = {}
    s = 0
    for i in range(3000):
        s = (s * 31 + i) & 0xFFFFFFFF
        table[i % 97, i % 89] = s
    values = sorted(table.values())
    t = 0.0
    for x in values[:2000]:
        t += (x % 1000) ** 0.5
    return t, sum(Fraction(i, i + 1) for i in range(1, 60))


def sample() -> tuple[float, float]:
    """(start, duration) of one kernel call, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return t0, perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def start_sample() -> float:
    """Wall time of one reference interpreter start-up."""
    t0 = perf_counter()
    subprocess.run(START_ARGV, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def scaled(starts: list[float], latencies: list[float], samples: list) -> list[float]:
    """Each latency times REFERENCE_S over the median kernel time of the
    samples that start within WINDOW_S of the op, which always include the
    ones just before and just after it."""
    times = [t for t, _ in samples]
    out = []
    for t0, dt in zip(starts, latencies):
        lo = bisect.bisect_left(times, t0 - WINDOW_S)
        hi = bisect.bisect_right(times, t0 + dt + WINDOW_S)
        out.append(dt * REFERENCE_S / statistics.median(d for _, d in samples[lo:hi]))
    return out
