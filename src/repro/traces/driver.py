"""Trace-driven memory simulation (Section IV-D methodology).

Replays a memory trace through a model in isolation from any CPU
simulator, "to exclude any simulation error caused by the CPU simulators
or their memory interfaces". Two replay modes:

- *paced*: requests keep their recorded inter-arrival gaps (scaled by an
  optional pressure factor), with a closed-loop cap on outstanding
  requests so saturated models produce bounded latencies;
- *FR-FCFS*: additionally, requests inside a reorder window may be
  served out of order, row-buffer hits first — only meaningful for the
  cycle-level :class:`~repro.dram.controller.DramController`, which
  classifies a pending request's row-buffer outcome
  (:meth:`~repro.dram.controller.DramController.peek_outcome`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from ..dram.address import DecodedAddress
from ..dram.controller import DramController
from ..dram.stats import RowBufferOutcome
from ..errors import TraceError
from ..memmodels.base import AccessType, MemoryModel
from ..request import MemoryRequest
from ..telemetry import registry as telemetry
from .format import TraceRecord


@dataclass(frozen=True)
class ReplayResult:
    """Aggregate outcome of one trace replay."""

    requests: int
    bandwidth_gbps: float
    mean_read_latency_ns: float
    max_read_latency_ns: float
    duration_ns: float


def replay_trace(
    model: MemoryModel,
    records: Sequence[TraceRecord],
    pressure: float = 1.0,
    max_outstanding: int = 64,
    warmup_fraction: float = 0.1,
) -> ReplayResult:
    """Paced closed-loop replay of ``records`` through ``model``.

    ``pressure`` scales the recorded inter-arrival gaps down (2.0 means
    requests arrive twice as fast), which is how one trace explores a
    range of bandwidth points, mirroring the paper's trace-driven
    bandwidth sweeps.
    """
    if not records:
        raise TraceError("cannot replay an empty trace")
    if pressure <= 0:
        raise TraceError(f"pressure must be positive, got {pressure}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise TraceError("warmup fraction must be in [0, 1)")
    warmup = int(len(records) * warmup_fraction)
    inflight: list[float] = []
    now = 0.0
    previous_recorded = records[0].issue_time_ns
    read_latency_sum = 0.0
    read_count = 0
    max_read_latency = 0.0
    measured_bytes = 0
    measure_start: float | None = None
    last_completion = 0.0

    for index, record in enumerate(records):
        gap = max(0.0, record.issue_time_ns - previous_recorded) / pressure
        previous_recorded = record.issue_time_ns
        now += gap
        if len(inflight) >= max_outstanding:
            now = max(now, heapq.heappop(inflight))
        request = MemoryRequest(record.address, record.access_type, now)
        latency = model.access(request)
        completion = now + latency
        heapq.heappush(inflight, completion)
        if index >= warmup:
            if measure_start is None:
                measure_start = now
            measured_bytes += request.size_bytes
            last_completion = max(last_completion, completion)
            if record.access_type is AccessType.READ:
                read_latency_sum += latency
                read_count += 1
                max_read_latency = max(max_read_latency, latency)

    if measure_start is None or last_completion <= measure_start:
        raise TraceError("replay produced no measurable window")
    duration = last_completion - measure_start
    return ReplayResult(
        requests=len(records),
        bandwidth_gbps=measured_bytes / duration,
        mean_read_latency_ns=(
            read_latency_sum / read_count if read_count else 0.0
        ),
        max_read_latency_ns=max_read_latency,
        duration_ns=duration,
    )


def replay_trace_frfcfs(
    controller: DramController,
    records: Sequence[TraceRecord],
    pressure: float = 1.0,
    window: int = 16,
    warmup_fraction: float = 0.1,
) -> ReplayResult:
    """FR-FCFS replay against the cycle-level controller.

    Maintains a pending window; at each step the request that would hit
    an open row is served first (first-ready), falling back to the
    oldest (first-come first-served). This is the scheduling freedom a
    real controller has and an arrival-ordered interface lacks — the
    ablation benches quantify the difference.
    """
    if window < 1:
        raise TraceError(f"window must be >= 1, got {window}")
    if not records:
        raise TraceError("cannot replay an empty trace")
    warmup = int(len(records) * warmup_fraction)
    # each pending request carries its coordinates, decoded once on
    # entering the window: the scan below classifies every pending
    # request at every step
    pending: list[tuple[int, TraceRecord, DecodedAddress]] = []
    decode = controller.mapper.decode
    now = 0.0
    previous_recorded = records[0].issue_time_ns
    read_latency_sum = 0.0
    read_count = 0
    max_read_latency = 0.0
    measured_bytes = 0
    measure_start: float | None = None
    last_completion = 0.0
    source = iter(enumerate(records))
    exhausted = False
    tel = telemetry.active()
    reorders = (
        tel.counter(
            "trace.frfcfs_reorders",
            help="requests served ahead of an older pending request",
        )
        if tel is not None
        else None
    )

    while pending or not exhausted:
        # refill the window at the current time
        while not exhausted and len(pending) < window:
            try:
                index, record = next(source)
            except StopIteration:
                exhausted = True
                break
            gap = max(0.0, record.issue_time_ns - previous_recorded) / pressure
            previous_recorded = record.issue_time_ns
            now += gap
            pending.append((index, record, decode(record.address)))
        if not pending:
            break
        # first-ready: prefer a row-buffer hit, else the oldest request
        choice = None
        for position, (_, _, decoded) in enumerate(pending):
            if controller._peek(decoded) is RowBufferOutcome.HIT:
                choice = position
                break
        if choice is None:
            choice = 0
        elif choice > 0 and reorders is not None:
            reorders.inc()
        index, record, _ = pending.pop(choice)
        request = MemoryRequest(record.address, record.access_type, now)
        result = controller.submit(request)
        latency = result.completion_ns - now
        if index >= warmup:
            if measure_start is None:
                measure_start = now
            measured_bytes += request.size_bytes
            last_completion = max(last_completion, result.completion_ns)
            if record.access_type is AccessType.READ:
                read_latency_sum += latency
                read_count += 1
                max_read_latency = max(max_read_latency, latency)
        # closed loop: time advances with the service backlog
        now = max(now, result.completion_ns - latency)

    if measure_start is None or last_completion <= measure_start:
        raise TraceError("replay produced no measurable window")
    duration = last_completion - measure_start
    return ReplayResult(
        requests=len(records),
        bandwidth_gbps=measured_bytes / duration,
        mean_read_latency_ns=(
            read_latency_sum / read_count if read_count else 0.0
        ),
        max_read_latency_ns=max_read_latency,
        duration_ns=duration,
    )


def synthesize_mess_trace(
    ops: int,
    read_ratio: float,
    gap_ns: float,
    streams: int = 16,
    stream_bytes: int = 8 * 1024 * 1024,
    base_address: int = 0,
) -> list[TraceRecord]:
    """Generate a Mess-shaped trace without running a full simulation.

    Interleaved sequential streams with a Bresenham read/write schedule —
    the memory-level image of the Mess traffic generator. Used by the
    Figure 6/7 benches when a captured trace is not supplied.
    """
    if ops < 1:
        raise TraceError("ops must be >= 1")
    if not 0.0 <= read_ratio <= 1.0:
        raise TraceError(f"read_ratio must be in [0, 1], got {read_ratio}")
    if gap_ns <= 0:
        raise TraceError("gap must be positive")
    lines = stream_bytes // 64
    positions = [0] * streams
    records = []
    reads_acc = 0
    now = 0.0
    for index in range(ops):
        stream = index % streams
        address = (
            base_address
            + stream * stream_bytes
            + positions[stream] * 64
        )
        positions[stream] = (positions[stream] + 1) % lines
        target_reads = round((index + 1) * read_ratio)
        is_read = target_reads > reads_acc
        if is_read:
            reads_acc += 1
        records.append(
            TraceRecord(
                issue_time_ns=now,
                address=address,
                access_type=AccessType.READ if is_read else AccessType.WRITE,
            )
        )
        now += gap_ns
    return records
