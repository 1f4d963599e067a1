"""Common interface between CPU simulators and memory models.

The paper's CPU simulators (ZSim, gem5, OpenPiton) all talk to memory
through the same narrow contract: the CPU issues a memory operation with
an address, a direction and an issue timestamp, and the memory model
answers with the service latency (Section V-A). Every model in this
package — fixed latency, M/D/1, the cycle-level DRAM controller, the
flawed simulator analogs, CXL, and the Mess analytical simulator itself —
implements this interface, which is what makes them interchangeable
inside :class:`repro.cpu.system.System`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..request import AccessType, MemoryRequest

__all__ = [
    "AccessType",
    "MemoryModel",
    "MemoryModelStats",
    "MemoryRequest",
]


@dataclass
class MemoryModelStats:
    """Counters every memory model keeps."""

    reads: int = 0
    writes: int = 0
    total_latency_ns: float = 0.0
    bytes_transferred: int = 0
    first_issue_ns: float = field(default=float("nan"))
    last_completion_ns: float = 0.0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def mean_latency_ns(self) -> float:
        """Average service latency over all accesses (0 when idle)."""
        return self.total_latency_ns / self.accesses if self.accesses else 0.0

    @property
    def read_ratio(self) -> float:
        """Fraction of accesses that were reads (1.0 when idle)."""
        return self.reads / self.accesses if self.accesses else 1.0

    @property
    def bandwidth_gbps(self) -> float:
        """Achieved bandwidth over the active interval, in GB/s."""
        if self.accesses == 0:
            return 0.0
        span = self.last_completion_ns - self.first_issue_ns
        if span <= 0:
            return 0.0
        return self.bytes_transferred / span  # bytes/ns == GB/s

    def record(self, request: MemoryRequest, latency_ns: float) -> None:
        """Account one completed access."""
        _, access_type, issue_ns, size_bytes = request
        if not (self.reads or self.writes):  # the first access
            self.first_issue_ns = issue_ns
        if access_type is AccessType.WRITE:
            self.writes += 1
        else:
            self.reads += 1
        self.total_latency_ns += latency_ns
        self.bytes_transferred += size_bytes
        completion_ns = issue_ns + latency_ns
        if completion_ns > self.last_completion_ns:
            self.last_completion_ns = completion_ns


class MemoryModel(abc.ABC):
    """Abstract memory model: maps a request to its service latency.

    Subclasses implement :meth:`_service_latency_ns`; this base class
    handles statistics so every model reports bandwidth, latency and
    read-ratio uniformly.
    """

    def __init__(self) -> None:
        self.stats = MemoryModelStats()

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier used in experiment tables."""

    @abc.abstractmethod
    def _service_latency_ns(self, request: MemoryRequest) -> float:
        """Latency from issue to data return for ``request``."""

    def access(self, request: MemoryRequest) -> float:
        """Serve one request and return its latency in nanoseconds."""
        latency = self._service_latency_ns(request)
        self.stats.record(request, latency)
        return latency

    def reset(self) -> None:
        """Clear statistics and any queue/occupancy state."""
        self.stats = MemoryModelStats()

    def notify_window(self, now_ns: float) -> None:  # noqa: B027
        """Hook invoked periodically by the CPU simulator.

        Most models ignore it; the Mess analytical simulator uses it to
        run its feedback-control iteration at simulation-window
        boundaries.
        """
