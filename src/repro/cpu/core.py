"""Core model: issues a workload's memory operations into the hierarchy.

A core executes an operation stream (an iterator of :class:`MemOp` /
:class:`Delay`). Two knobs capture the microarchitectural behaviours the
paper leans on:

- ``mshrs`` bounds the number of outstanding misses. In-order Ariane
  cores with 2-entry MSHRs cap OpenPiton's bandwidth (Section IV-C);
  wide out-of-order server cores have 10-20+.
- ``dependent`` operations serialize on their own completion, which is
  exactly the pointer-chase structure (each load's address comes from
  the previous load, Appendix A).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Union

from ..errors import ConfigurationError, SimulationError
from ..telemetry import registry as telemetry
from .engine import Engine
from .hierarchy import MemoryHierarchy


class MemOp(NamedTuple):
    """One load or store instruction reaching the cache hierarchy.

    ``non_temporal`` marks a streaming (non-temporal) store: it bypasses
    the cache hierarchy and writes directly to memory, producing pure
    write traffic instead of the write-allocate read+write pair (the
    paper's footnote on x86 streaming stores).
    """

    address: int
    is_store: bool = False
    dependent: bool = False
    non_temporal: bool = False


class Delay(NamedTuple):
    """Non-memory work: the core stalls ``ns`` nanoseconds.

    The Mess traffic generator's nop loop (Appendix A, Listing 3)
    becomes a ``Delay`` whose length scales with the nop count.
    """

    ns: float


Operation = Union[MemOp, Delay]


@dataclass
class CoreStats:
    """Per-core execution counters."""

    loads: int = 0
    stores: int = 0
    delays: int = 0
    dependent_latency_sum_ns: float = 0.0
    dependent_loads: int = 0
    finish_time_ns: float | None = None
    latencies_ns: list[float] = field(default_factory=list)

    @property
    def mean_dependent_latency_ns(self) -> float:
        """Average latency of dependent loads — the pointer-chase metric."""
        if not self.dependent_loads:
            return 0.0
        return self.dependent_latency_sum_ns / self.dependent_loads


class Core:
    """One core executing an operation stream on the event engine.

    Parameters
    ----------
    index:
        Core id; selects the private L1/L2 in the hierarchy.
    engine / hierarchy:
        Shared simulation infrastructure.
    operations:
        The instruction stream to execute.
    issue_gap_ns:
        Minimum time between issuing consecutive independent memory
        operations (models issue width / frontend throughput).
    mshrs:
        Maximum outstanding memory operations.
    record_latencies:
        Keep every dependent-load latency (used by latency probes).
    """

    def __init__(
        self,
        index: int,
        engine: Engine,
        hierarchy: MemoryHierarchy,
        operations: Iterator[Operation],
        issue_gap_ns: float = 0.3,
        mshrs: int = 10,
        record_latencies: bool = False,
    ) -> None:
        if issue_gap_ns < 0:
            raise ConfigurationError(f"issue_gap_ns must be >= 0, got {issue_gap_ns}")
        if mshrs < 1:
            raise ConfigurationError(f"mshrs must be >= 1, got {mshrs}")
        self.index = index
        self.engine = engine
        self.hierarchy = hierarchy
        self.operations = operations
        self.issue_gap_ns = issue_gap_ns
        self.mshrs = mshrs
        self.record_latencies = record_latencies
        self.stats = CoreStats()
        self.finished = False
        self._inflight: list[float] = []  # completion-time heap
        self._started = False
        # Null-sink fast path: one None check per issued memory op.
        tel = telemetry.active()
        self._tel_mshr = (
            tel.histogram(
                "cpu.mshr_occupancy",
                help="outstanding misses (incl. the new one) at issue",
            )
            if tel is not None
            else None
        )
        self._tel_stalls = (
            tel.counter(
                "cpu.mshr_stalls",
                help="issue attempts deferred because every MSHR was busy",
            )
            if tel is not None
            else None
        )

    def start(self) -> None:
        """Schedule the core's first step at the current time."""
        if self._started:
            raise SimulationError(f"core {self.index} already started")
        self._started = True
        self.engine.schedule(self.engine.now_ns, self._step)

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------

    def _step(self) -> None:
        """Retire finished misses, then issue the next operation.

        One event per operation, in one frame: the retire loop, the
        MSHR check and the issue of a memory operation all run here.
        """
        engine = self.engine
        now = engine.now_ns
        inflight = self._inflight
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        if len(inflight) >= self.mshrs:
            # all MSHRs busy: wake when the earliest miss returns
            if self._tel_stalls is not None:
                self._tel_stalls.inc()
            engine.schedule(inflight[0], self._step)
            return
        try:
            op = next(self.operations)
        except StopIteration:
            self.finished = True
            self.stats.finish_time_ns = now
            return
        stats = self.stats
        if isinstance(op, Delay):
            stats.delays += 1
            engine.schedule_after(op.ns, self._step)
            return
        address, is_store, dependent, non_temporal = op
        latency = self.hierarchy.access(
            self.index, address, is_store, now, non_temporal
        ).latency_ns
        completion = now + latency
        heapq.heappush(inflight, completion)
        if self._tel_mshr is not None:
            self._tel_mshr.observe(len(inflight))
        if is_store:
            stats.stores += 1
        else:
            stats.loads += 1
        if dependent:
            stats.dependent_loads += 1
            stats.dependent_latency_sum_ns += latency
            if self.record_latencies:
                stats.latencies_ns.append(latency)
            engine.schedule(completion, self._step)
        else:
            engine.schedule_after(self.issue_gap_ns, self._step)
