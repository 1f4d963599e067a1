"""STREAM benchmark (McCalpin) memory behaviour.

The four kernels and their per-element application-level traffic:

========  ================  =====  ======  ==================
kernel    statement         loads  stores  app bytes/element
========  ================  =====  ======  ==================
Copy      c[i] = a[i]           1       1  16
Scale     b[i] = k*c[i]         1       1  16
Add       c[i] = a[i]+b[i]      2       1  24
Triad     a[i] = b[i]+k*c[i]    2       1  24
========  ================  =====  ======  ==================

STREAM reports bandwidth as *assumed* bytes moved divided by runtime:
one read per load and one write per store. On a write-allocate machine
every store really costs a read + a write, which is precisely why Mess
(counting at the memory controller) measures more traffic than STREAM
reports (Section III). Both numbers are exposed here: :meth:`score`
returns the STREAM-methodology bandwidth, while the run result's memory
counters give the architecture-level view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..cpu.core import Delay, MemOp, Operation
from ..cpu.system import System, SystemResult
from ..errors import ConfigurationError
from ..units import CACHE_LINE_BYTES
from .base import Workload

#: (name, loads per element, app bytes per element)
_KERNELS = {
    "copy": (1, 16),
    "scale": (1, 16),
    "add": (2, 24),
    "triad": (2, 24),
}


def _kernel_ops(
    loads_per_line: int,
    lines: int,
    array_bases: tuple[int, ...],
    store_base: int,
    compute_ns_per_line: float,
) -> Iterator[Operation]:
    """Line-granularity operations of one kernel pass over one slice."""
    for line in range(lines):
        offset = line * CACHE_LINE_BYTES
        for source in range(loads_per_line):
            yield MemOp(array_bases[source] + offset)
        yield MemOp(store_base + offset, True)
        if compute_ns_per_line > 0:
            yield Delay(compute_ns_per_line)


@dataclass
class StreamWorkload(Workload):
    """One STREAM kernel run on every core over private array slices.

    Parameters
    ----------
    kernel:
        ``"copy"``, ``"scale"``, ``"add"`` or ``"triad"``.
    lines_per_core:
        Cache lines (of 8 doubles) each core processes; total footprint
        must exceed the LLC for the measurement to be meaningful.
    compute_ns_per_line:
        FP work per line; small, STREAM is bandwidth-bound.
    """

    kernel: str = "triad"
    lines_per_core: int = 20_000
    compute_ns_per_line: float = 0.6
    metric_name: str = "bandwidth_gbps"
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        if self.kernel not in _KERNELS:
            raise ConfigurationError(
                f"unknown STREAM kernel {self.kernel!r}; "
                f"available: {sorted(_KERNELS)}"
            )
        if self.lines_per_core < 1:
            raise ConfigurationError("lines_per_core must be >= 1")
        self.name = f"stream-{self.kernel}"
        self._cores_attached = 0

    def attach(self, system: System) -> None:
        loads_per_line, _ = _KERNELS[self.kernel]
        # three disjoint arrays per core (a, b, c), laid out per core
        slice_bytes = self.lines_per_core * CACHE_LINE_BYTES
        self._cores_attached = system.config.cores
        for core in range(system.config.cores):
            base = core * 3 * slice_bytes
            array_bases = (base, base + slice_bytes)
            store_base = base + 2 * slice_bytes
            system.add_workload(
                core,
                _kernel_ops(
                    loads_per_line,
                    self.lines_per_core,
                    array_bases,
                    store_base,
                    self.compute_ns_per_line,
                ),
            )

    def score(self, result: SystemResult) -> float:
        """STREAM-methodology bandwidth: assumed app bytes / runtime."""
        _, app_bytes_per_element = _KERNELS[self.kernel]
        elements = self.lines_per_core * 8 * self._cores_attached
        total_bytes = elements * app_bytes_per_element
        if result.duration_ns <= 0:
            raise ConfigurationError("run produced no elapsed time")
        return total_bytes / result.duration_ns  # bytes/ns == GB/s


def best_stream_bandwidth(
    system_factory, kernels: tuple[str, ...] = ("copy", "scale", "add", "triad"),
    lines_per_core: int = 20_000,
) -> dict[str, float]:
    """Run all four kernels on fresh systems; returns kernel -> GB/s."""
    results = {}
    for kernel in kernels:
        system = system_factory()
        workload = StreamWorkload(kernel=kernel, lines_per_core=lines_per_core)
        results[kernel] = workload.run(system)
    return results
