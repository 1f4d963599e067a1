"""Direct characterization of a memory model (no CPU simulation).

Two experiment classes in the paper measure a memory component without a
full CPU in front of it: the trace-driven simulator runs of Section IV-D
and the manufacturer's SystemC characterization of the CXL expander
(Section V-C). This probe is our equivalent: it drives a
:class:`~repro.memmodels.base.MemoryModel` with a closed-loop stream of
interleaved reads and writes at a controlled issue rate and read ratio,
and records the (bandwidth, read latency) operating point.

Closed-loop means the probe keeps at most ``max_outstanding`` requests
in flight — mirroring the finite MSHRs/queues that bound latency in any
real measurement; an open-loop probe of a saturated model would just
integrate unbounded queueing delay.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..core.builder import CurveBuilder
from ..core.family import CurveFamily
from ..errors import BenchmarkError
from ..specs import SpecConvertible
from ..memmodels.base import AccessType, MemoryModel, MemoryRequest
from ..units import CACHE_LINE_BYTES


@dataclass(frozen=True)
class ProbeConfig(SpecConvertible):
    """Sweep parameters for the direct model probe.

    ``gaps_ns`` are target inter-request issue gaps (smaller = more
    pressure); ``read_ratios`` are memory-traffic compositions. Unlike
    the full-system harness, ratios below 0.5 are legal here — the CXL
    characterization sweeps 0%-read to 100%-read traffic.
    """

    read_ratios: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    gaps_ns: tuple[float, ...] = (
        0.35, 0.45, 0.6, 0.8, 1.1, 1.6, 2.4, 4.0, 8.0, 20.0, 60.0,
    )
    ops_per_point: int = 6000
    warmup_ops: int = 1000
    streams: int = 16
    stream_bytes: int = 8 * 1024 * 1024
    max_outstanding: int = 64

    def __post_init__(self) -> None:
        if not self.read_ratios or not self.gaps_ns:
            raise BenchmarkError("sweeps must not be empty")
        for ratio in self.read_ratios:
            if not 0.0 <= ratio <= 1.0:
                raise BenchmarkError(f"read ratio {ratio} outside [0, 1]")
        if any(gap <= 0 for gap in self.gaps_ns):
            raise BenchmarkError("issue gaps must be positive")
        if self.warmup_ops < 0:
            raise BenchmarkError(f"warmup_ops must be >= 0, got {self.warmup_ops}")
        if self.ops_per_point <= self.warmup_ops:
            raise BenchmarkError("ops_per_point must exceed warmup_ops")
        if self.stream_bytes < CACHE_LINE_BYTES:
            raise BenchmarkError(
                f"stream_bytes must hold at least one {CACHE_LINE_BYTES}-byte "
                f"line, got {self.stream_bytes}"
            )
        if self.streams < 1 or self.max_outstanding < 1:
            raise BenchmarkError("streams and max_outstanding must be >= 1")


@dataclass(frozen=True)
class ProbePoint:
    """One measured operating point of the probed model."""

    read_ratio: float
    gap_ns: float
    bandwidth_gbps: float
    read_latency_ns: float


def probe_point(
    model: MemoryModel, read_ratio: float, gap_ns: float, config: ProbeConfig
) -> ProbePoint:
    """Measure one (ratio, pressure) point against ``model``.

    Requests round-robin over sequential address streams (the Mess
    generator's many-concurrent-arrays pattern); reads and writes are
    interleaved by a Bresenham schedule to hit the requested ratio
    exactly over any window.
    """
    stream_lines = config.stream_bytes // CACHE_LINE_BYTES
    positions = [0] * config.streams
    inflight: list[float] = []
    now = 0.0
    reads_acc = 0
    read_latency_sum = 0.0
    read_count = 0
    measured_bytes = 0
    measure_start = None
    last_completion = 0.0

    for op_index in range(config.ops_per_point):
        if len(inflight) >= config.max_outstanding:
            now = max(now, heapq.heappop(inflight))
        stream = op_index % config.streams
        address = (
            stream * config.stream_bytes
            + positions[stream] * CACHE_LINE_BYTES
        )
        positions[stream] = (positions[stream] + 1) % stream_lines
        # Bresenham read/write interleave: exact ratio over any window
        target_reads = round((op_index + 1) * read_ratio)
        is_read = target_reads > reads_acc
        if is_read:
            reads_acc += 1
        request = MemoryRequest(
            address, AccessType.READ if is_read else AccessType.WRITE, now
        )
        latency = model.access(request)
        completion = now + latency
        heapq.heappush(inflight, completion)
        in_measurement = op_index >= config.warmup_ops
        if in_measurement:
            if measure_start is None:
                measure_start = now
            measured_bytes += CACHE_LINE_BYTES
            last_completion = max(last_completion, completion)
            if is_read:
                read_latency_sum += latency
                read_count += 1
        now += gap_ns

    if measure_start is None or last_completion <= measure_start:
        raise BenchmarkError("probe produced no measurable window")
    bandwidth = measured_bytes / (last_completion - measure_start)
    if read_count == 0:
        # pure-write point: report the mean write latency instead
        read_latency_sum = model.stats.mean_latency_ns
        read_count = 1
    return ProbePoint(
        read_ratio=read_ratio,
        gap_ns=gap_ns,
        bandwidth_gbps=bandwidth,
        read_latency_ns=read_latency_sum / read_count,
    )


def characterize_model(
    model_factory,
    config: ProbeConfig | None = None,
    name: str = "probed",
    theoretical_bandwidth_gbps: float | None = None,
) -> CurveFamily:
    """Sweep a model factory into a full curve family.

    ``model_factory`` is invoked per measurement point so queue state
    never leaks between configurations (matching the paper's practice
    of rebooting the system under test between runs).

    Each point is first attempted as one batched numpy evaluation
    (:mod:`repro.engine.probe`); a point whose exactness preconditions
    fail falls back to the scalar :func:`probe_point`, so the measured
    curves are bit-identical to an all-scalar sweep.
    """
    # lazy import: the batched probe imports ProbePoint from here
    from ..engine.probe import probe_point_vectorized

    config = config or ProbeConfig()
    builder = CurveBuilder(
        name=name, theoretical_bandwidth_gbps=theoretical_bandwidth_gbps
    )
    for ratio in config.read_ratios:
        for gap in config.gaps_ns:
            model = model_factory()
            # None (leaving the model untouched) when the batch
            # preconditions fail for this model or schedule
            point = probe_point_vectorized(model, ratio, gap, config)
            if point is None:
                point = probe_point(model, ratio, gap, config)
            builder.add(
                read_ratio=ratio,
                pressure=-gap,
                bandwidth_gbps=point.bandwidth_gbps,
                latency_ns=point.read_latency_ns,
            )
    return builder.build()
