"""HPCG benchmark proxy (Section VI's profiling subject).

Two representations:

- :class:`HpcgPhaseProfile` — the benchmark's iterative structure as a
  timeline of (phase, MPI call, duration, memory demand) segments. The
  profiling experiments (Figures 15 and 16) sample this timeline against
  a platform's curves exactly the way Extrae samples hardware counters
  every 10 ms.
- :class:`HpcgProxy` — a runnable :class:`~repro.workloads.base.Workload`
  whose cores stream through sparse-matrix-shaped traffic, for
  integration tests of the live sampler.

HPCG is dominated by memory-bound sparse kernels (SpMV and the
multigrid smoother), with dot-product reductions and MPI_Allreduce
barriers between them; most of its execution sits in the saturated
bandwidth area of the host platform (Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..cpu.core import Delay, MemOp, Operation
from ..cpu.system import System, SystemResult
from ..errors import ConfigurationError
from ..units import CACHE_LINE_BYTES
from .base import Workload


@dataclass(frozen=True)
class PhaseSegment:
    """One segment of the HPCG timeline.

    ``bandwidth_fraction`` is relative to the platform's best sustained
    bandwidth; the profiler converts it to GB/s against a concrete curve
    family. ``mpi_call`` labels communication segments (None for pure
    compute), enabling the Figure 16 timeline analysis.
    """

    label: str
    duration_ms: float
    bandwidth_fraction: float
    read_ratio: float
    mpi_call: str | None = None

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ConfigurationError(f"{self.label}: duration must be positive")
        if not 0.0 <= self.bandwidth_fraction <= 1.2:
            raise ConfigurationError(
                f"{self.label}: bandwidth fraction {self.bandwidth_fraction} "
                "outside [0, 1.2]"
            )
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ConfigurationError(f"{self.label}: bad read ratio")


#: One HPCG main-loop iteration, shaped after the Figure 16 trace: a
#: halo exchange, the long SpMV phase with two distinct stress levels,
#: the multigrid smoother, a dot-product reduction, and the
#: MPI_Allreduce delimiter.
HPCG_ITERATION: tuple[PhaseSegment, ...] = (
    PhaseSegment("halo_exchange", 25.0, 0.30, 0.90, mpi_call="MPI_Send"),
    PhaseSegment("spmv_head", 300.0, 0.95, 0.80),
    PhaseSegment("spmv_tail", 260.0, 0.86, 0.82),
    PhaseSegment("mg_smoother", 220.0, 0.80, 0.80),
    PhaseSegment("dot_product", 80.0, 0.55, 0.95),
    PhaseSegment("allreduce", 35.0, 0.05, 1.00, mpi_call="MPI_Allreduce"),
)


@dataclass
class HpcgPhaseProfile:
    """A multi-iteration HPCG timeline."""

    iterations: int = 2
    segments: tuple[PhaseSegment, ...] = HPCG_ITERATION
    start_us: float = 241_748_818.0  # Figure 16's trace window start

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not self.segments:
            raise ConfigurationError("segments must not be empty")

    @property
    def duration_ms(self) -> float:
        """Total timeline length in milliseconds."""
        return self.iterations * sum(s.duration_ms for s in self.segments)

    def timeline(self) -> Iterator[tuple[float, PhaseSegment]]:
        """Yield (start_time_ms, segment) over all iterations."""
        clock_ms = 0.0
        for _ in range(self.iterations):
            for segment in self.segments:
                yield clock_ms, segment
                clock_ms += segment.duration_ms


def _sparse_stream_ops(
    lines: int, base: int, store_every: int, compute_ns: float
) -> Iterator[Operation]:
    """SpMV-shaped traffic: streaming reads with periodic stores."""
    for line in range(lines):
        yield MemOp(base + line * CACHE_LINE_BYTES)
        if store_every and line % store_every == store_every - 1:
            yield MemOp(base + (lines + line) * CACHE_LINE_BYTES, True)
        if compute_ns > 0:
            yield Delay(compute_ns)


@dataclass
class HpcgProxy(Workload):
    """Runnable HPCG-shaped workload: one rank per core.

    The paper's use case runs 16 benchmark copies on a 16-core Cascade
    Lake socket; here each core streams SpMV-shaped traffic over a
    private slice.
    """

    lines_per_core: int = 12_000
    store_every: int = 5
    compute_ns_per_line: float = 0.8
    metric_name: str = "bandwidth_gbps"
    higher_is_better: bool = True
    name: str = "hpcg-proxy"

    def __post_init__(self) -> None:
        if self.lines_per_core < 1:
            raise ConfigurationError("lines_per_core must be >= 1")
        if self.store_every < 0:
            raise ConfigurationError("store_every must be >= 0")

    def attach(self, system: System) -> None:
        slice_bytes = 2 * self.lines_per_core * CACHE_LINE_BYTES
        for core in range(system.config.cores):
            system.add_workload(
                core,
                _sparse_stream_ops(
                    self.lines_per_core,
                    base=core * slice_bytes,
                    store_every=self.store_every,
                    compute_ns=self.compute_ns_per_line,
                ),
            )

    def score(self, result: SystemResult) -> float:
        """Architecture-level bandwidth achieved by the proxy."""
        return result.memory_bandwidth_gbps
