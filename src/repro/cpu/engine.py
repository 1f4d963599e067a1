"""Minimal discrete-event simulation engine.

The CPU substrate is event-driven: cores, caches and memory models never
poll a clock; they schedule callbacks at absolute nanosecond timestamps.
The engine is deliberately tiny — a monotone priority queue with a
deterministic tiebreak — because determinism matters more than features:
every experiment in the paper reproduction must be exactly repeatable.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from ..errors import SimulationError
from ..telemetry import registry as telemetry


class Engine:
    """Discrete-event scheduler with deterministic FIFO tiebreaking."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        #: Current simulation time in nanoseconds; only :meth:`run` moves it.
        self.now_ns = 0.0
        self._running = False
        # Telemetry is recorded once per run() call (never per event),
        # so even an active registry costs nothing on the hot loop.
        self._tel = telemetry.active()
        if self._tel is not None:
            self._tel_events = self._tel.counter(
                "engine.events", help="discrete events executed"
            )
            self._tel_runs = self._tel.counter(
                "engine.runs", help="run() invocations"
            )

    def schedule(self, when_ns: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute time ``when_ns``.

        Scheduling in the past is an error: it would silently reorder
        causality and produce curves that depend on queue internals.
        """
        if when_ns < self.now_ns - 1e-9:
            raise SimulationError(
                f"cannot schedule at {when_ns} ns; current time is {self.now_ns} ns"
            )
        heapq.heappush(self._queue, (when_ns, next(self._counter), callback))

    def schedule_after(self, delay_ns: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"delay must be non-negative, got {delay_ns}")
        # a non-negative delay never lands in the past: push directly
        heapq.heappush(
            self._queue, (self.now_ns + delay_ns, next(self._counter), callback)
        )

    def run(self, until_ns: float | None = None, max_events: int | None = None) -> int:
        """Drain the event queue; returns the number of events executed.

        Stops when the queue empties, when the next event would exceed
        ``until_ns``, or after ``max_events`` events — whichever comes
        first. ``until_ns`` still advances the clock to the stop time so
        repeated bounded runs compose.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        horizon = math.inf if until_ns is None else until_ns
        executed = 0
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                when, _, callback = queue[0]
                if when > horizon:
                    self.now_ns = horizon
                    break
                heappop(queue)
                self.now_ns = when
                callback()
                executed += 1
            else:
                if until_ns is not None:
                    self.now_ns = max(self.now_ns, until_ns)
        finally:
            self._running = False
        if self._tel is not None:
            self._tel_events.inc(executed)
            self._tel_runs.inc()
        return executed

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def discard_pending(self) -> None:
        """Drop every queued event without running it.

        Queued callbacks are typically bound methods of objects that
        themselves hold the engine; dropping them breaks that cycle, so
        a finished simulation is freed by reference counting instead of
        waiting for the cyclic garbage collector.
        """
        self._queue.clear()
