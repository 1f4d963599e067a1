"""Intel Optane persistent-memory model (App Direct mode).

The paper's Mess simulator release supports Optane, characterized on a
16-core Cascade Lake with 2x 128 GB Optane DIMMs in App Direct mode
(Section V-B footnote). The technology was discontinued in 2023, so the
paper does not analyze it further — but the model belongs in a complete
reproduction of the released artifact.

The behaviours that distinguish Optane from DRAM (well documented by
the UCSD characterization studies the paper cites, [39] and [40]):

- much higher media latency: ~170 ns sequential, ~300 ns random reads
  at the device, versus ~30 ns for DRAM;
- an order of magnitude less bandwidth, strongly asymmetric: ~6.6 GB/s
  reads but only ~2.3 GB/s writes per DIMM;
- a 256-byte internal access granularity (the XPLine): cache-line
  requests that fall in the same XPLine merge in the on-DIMM buffer,
  others pay the full media access;
- writes are absorbed by a small on-DIMM write-pending queue and then
  drain at media speed, so sustained write traffic collapses quickly.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import CACHE_LINE_BYTES, MAX_MODEL_UNITS
from .base import AccessType, MemoryModel, MemoryRequest
from .queueing import SingleServerQueue

#: Internal access granularity of the 3D-XPoint media.
XPLINE_BYTES = 256


class OptaneModel(MemoryModel):
    """Two-DIMM Optane memory target.

    Parameters
    ----------
    dimms:
        Interleaved Optane DIMMs (the paper's platform has two).
    read_bandwidth_gbps_per_dimm / write_bandwidth_gbps_per_dimm:
        Sustained media bandwidths per DIMM.
    sequential_read_ns / random_read_ns:
        Media latency of an XPLine-buffered versus an uncached read.
    write_ack_latency_ns:
        Latency of a write absorbed by the write-pending queue.
    write_queue_lines:
        Write-pending queue capacity per DIMM, in cache lines.
    """

    def __init__(
        self,
        dimms: int = 2,
        read_bandwidth_gbps_per_dimm: float = 6.6,
        write_bandwidth_gbps_per_dimm: float = 2.3,
        sequential_read_ns: float = 170.0,
        random_read_ns: float = 305.0,
        write_ack_latency_ns: float = 60.0,
        write_queue_lines: int = 64,
    ) -> None:
        super().__init__()
        # two queues per DIMM
        if not 1 <= dimms <= MAX_MODEL_UNITS // 2:
            raise ConfigurationError(
                f"dimms must be in [1, {MAX_MODEL_UNITS // 2}], got {dimms}"
            )
        if read_bandwidth_gbps_per_dimm <= 0 or write_bandwidth_gbps_per_dimm <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if sequential_read_ns <= 0 or random_read_ns < sequential_read_ns:
            raise ConfigurationError(
                "need 0 < sequential_read_ns <= random_read_ns"
            )
        if write_ack_latency_ns <= 0 or write_queue_lines < 1:
            raise ConfigurationError("invalid write-queue parameters")
        self.dimms = dimms
        self.sequential_read_ns = sequential_read_ns
        self.random_read_ns = random_read_ns
        self.write_ack_latency_ns = write_ack_latency_ns
        self.write_queue_lines = write_queue_lines
        self._read_pipes = [
            SingleServerQueue(CACHE_LINE_BYTES / read_bandwidth_gbps_per_dimm)
            for _ in range(dimms)
        ]
        self._write_pipes = [
            SingleServerQueue(CACHE_LINE_BYTES / write_bandwidth_gbps_per_dimm)
            for _ in range(dimms)
        ]
        self._open_xpline = [-1] * dimms

    @property
    def name(self) -> str:
        return f"optane-x{self.dimms}"

    @property
    def peak_read_bandwidth_gbps(self) -> float:
        return self.dimms * CACHE_LINE_BYTES / self._read_pipes[0].service_ns

    @property
    def peak_write_bandwidth_gbps(self) -> float:
        return self.dimms * CACHE_LINE_BYTES / self._write_pipes[0].service_ns

    def _route(self, address: int) -> int:
        """DIMM selection: XPLine-granular interleave."""
        return (address // XPLINE_BYTES) % self.dimms

    def _service_latency_ns(self, request: MemoryRequest) -> float:
        dimm = self._route(request.address)
        xpline = request.address // XPLINE_BYTES
        if request.access_type is AccessType.READ:
            buffered = self._open_xpline[dimm] == xpline
            self._open_xpline[dimm] = xpline
            media = (
                self.sequential_read_ns if buffered else self.random_read_ns
            )
            wait = self._read_pipes[dimm].admit(request.issue_time_ns)
            return media + wait
        # write: absorbed by the write-pending queue unless the media
        # drain is backlogged past the queue's reach
        wait = self._write_pipes[dimm].admit(request.issue_time_ns)
        allowance = self.write_queue_lines * self._write_pipes[dimm].service_ns
        stall = max(0.0, wait - allowance)
        return self.write_ack_latency_ns + stall

    def reset(self) -> None:
        super().reset()
        for pipe in (*self._read_pipes, *self._write_pipes):
            pipe.reset()
        self._open_xpline = [-1] * self.dimms
