"""Run on the machine's fastest core.

On a shared virtual machine the cores do not run at one speed: another
tenant on the same physical core can slow one of them by half for seconds
at a time, and which one changes.  A process that the kernel moves between
cores then sees its times jump from op to op.  So the benchmark times a
short fixed loop (the probe) on each core it may use, and pins itself to
the fastest before each stretch of work it measures.  This acts only on
the benchmark's own processes.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_STEPS = 4_000
PROBE_REPEATS = 3


def cpus() -> list[int]:
    """The cores this process may run on."""
    return sorted(os.sched_getaffinity(0))


def probe() -> float:
    """Median seconds of a few runs of a fixed loop: how fast this core runs now."""
    times = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        x = 0
        for k in range(PROBE_STEPS):
            x += k
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def pin_fastest(allowed: list[int]) -> float:
    """Probe each allowed core, pin this process to the fastest, and return
    its probe time."""
    best_cpu, best = allowed[0], float("inf")
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        t = probe()
        if t < best:
            best_cpu, best = cpu, t
    os.sched_setaffinity(0, {best_cpu})
    return best

