"""Coarse "internal DDR" model (ZSim / gem5 built-in DDR analog).

CPU simulators ship simplified DDR models: a handful of timing
parameters, per-channel pipes, and a crude write-turnaround charge. The
paper's evaluation (Figures 4c and 5c) finds these models get the curve
*shape* right — linear region, saturation, writes hurting — but
underestimate the saturated bandwidth (69-93 GB/s simulated vs
92-116 GB/s measured on Skylake) and excessively penalize writes,
spreading the write-heavy curves too far. This analog reproduces both
biases: a scheduling-inefficiency inflation on every access and a full
turnaround charge on *every* direction switch (real controllers batch
writes to amortize it).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import CACHE_LINE_BYTES, MAX_MODEL_UNITS
from .base import MemoryModel, MemoryRequest
from .queueing import SingleServerQueue


class InternalDdrModel(MemoryModel):
    """Per-channel pipes with pessimistic write turnarounds.

    Parameters
    ----------
    unloaded_latency_ns:
        Idle-device read latency (row hit path).
    peak_bandwidth_gbps:
        Theoretical aggregate bandwidth of the memory system.
    channels:
        Number of independent pipes; requests round-robin by line address.
    inefficiency:
        Service-time inflation modeling unmodeled scheduling slack; the
        reciprocal bounds achievable bandwidth (0.78 -> ~78% of peak).
    turnaround_ns:
        Charge applied whenever a channel switches between reads and
        writes; applied unbatched, which over-penalizes mixed traffic
        exactly the way the paper observed.
    """

    def __init__(
        self,
        unloaded_latency_ns: float = 28.0,
        peak_bandwidth_gbps: float = 128.0,
        channels: int = 6,
        inefficiency: float = 0.78,
        turnaround_ns: float = 9.0,
    ) -> None:
        super().__init__()
        if unloaded_latency_ns <= 0 or peak_bandwidth_gbps <= 0:
            raise ConfigurationError("latency and bandwidth must be positive")
        if not 1 <= channels <= MAX_MODEL_UNITS:
            raise ConfigurationError(
                f"channels must be in [1, {MAX_MODEL_UNITS}], got {channels}"
            )
        if not 0.0 < inefficiency <= 1.0:
            raise ConfigurationError("inefficiency must be in (0, 1]")
        if turnaround_ns < 0:
            raise ConfigurationError("turnaround must be non-negative")
        self.unloaded_latency_ns = unloaded_latency_ns
        self.peak_bandwidth_gbps = peak_bandwidth_gbps
        self.channels = channels
        self.inefficiency = inefficiency
        self.turnaround_ns = turnaround_ns
        per_channel = peak_bandwidth_gbps / channels
        service = CACHE_LINE_BYTES / (per_channel * inefficiency)
        self._pipes = [SingleServerQueue(service) for _ in range(channels)]
        self._last_was_write = [False] * channels

    @property
    def name(self) -> str:
        return "internal-ddr"

    def _service_latency_ns(self, request: MemoryRequest) -> float:
        channel = (request.address // CACHE_LINE_BYTES) % self.channels
        pipe = self._pipes[channel]
        is_write = request.access_type.is_write
        service = pipe.service_ns
        if is_write != self._last_was_write[channel]:
            service += self.turnaround_ns
        self._last_was_write[channel] = is_write
        wait = pipe.admit(request.issue_time_ns, service_ns=service)
        return self.unloaded_latency_ns + wait

    def reset(self) -> None:
        super().reset()
        for pipe in self._pipes:
            pipe.reset()
        self._last_was_write = [False] * self.channels
