"""Host speed, measured beside the timings the benchmark reports.

The benchmark runs on a few cores of a shared host. For seconds to tens
of seconds at a time the same interpreted code runs up to 2.4x slower
there, each core on its own schedule, and the slowdown is not steal
time: process CPU time grows with it. A median over one run cannot
remove a slow stretch that covers the run. So the simulations'
operation times and every set-up time are reported at reference speed:
the measured seconds scaled by how much slower than :data:`REFERENCE_S`
a fixed loop of interpreted code ran right before and right after the
measurement, on the same core (:func:`pin`). The loop is benchmark
code, so no change to ``repro`` can make it faster.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

#: Seconds :func:`_loop` takes at reference speed, the speed of a quiet
#: 2.1 GHz Xeon vCPU (Python 3.11); a reported time is what the
#: measured work would have taken there.
REFERENCE_S = 0.0009
#: Timings of the loop per sample; their median is the sample.
ROUNDS = 5


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


def _loop() -> int:
    """Work shaped like the simulators': small objects, dict lookups, integers."""
    table: dict[int, _Line] = {}
    order: list[int] = []
    state = 12345
    for step in range(2000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & 511
        line = table.get(key)
        if line is None:
            line = table[key] = _Line(key)
            order.append(key)
        elif step & 1:
            line.dirty = True
        if len(order) > 256:
            del table[order.pop(0)]
    return state


def pin() -> None:
    """Keep this process, and every process it starts, on one core.

    The loop then times the core the measured work runs on; unpinned,
    the two can sit on differently loaded cores.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sample() -> float:
    """Seconds the fixed loop takes now (median of :data:`ROUNDS`).

    The collector is off meanwhile: a collection of the workload's heap
    would otherwise land in the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Meter:
    """Factors that scale times measured one after another to reference speed."""

    def __init__(self) -> None:
        self._before = sample()
        #: Every factor handed out, in order.
        self.factors: list[float] = []

    def factor(self) -> float:
        """The factor for what ran since the previous call (or since creation)."""
        after = sample()
        factor = REFERENCE_S * 2 / (self._before + after)
        self._before = after
        self.factors.append(factor)
        return factor
