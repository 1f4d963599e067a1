"""Configurable memory traffic generator (Appendix A, Listings 2-3).

The original interleaves a long unrolled sequence of vector loads from
array ``a`` and vector stores to array ``c`` with calls to a dummy nop
loop; the nop count throttles the issue rate and hence the generated
bandwidth, while the load/store mix in the unrolled body sets the
traffic composition. This port reproduces the same structure: bursts of
sequential loads and stores over two private arrays, separated by a
:class:`~repro.cpu.core.Delay` standing in for the nop loop.

Remember the write-allocate arithmetic (Section II-A): a kernel with
store fraction ``s`` produces memory traffic whose read ratio is
``1 / (1 + s)`` — 100%-store traffic is 50% reads / 50% writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..cpu.core import Delay, MemOp, Operation
from ..errors import BenchmarkError
from ..specs import SpecConvertible
from ..units import CACHE_LINE_BYTES

#: Simulated cost of one nop-loop iteration, in nanoseconds. Matches a
#: ~3 GHz core retiring one nop plus loop overhead per iteration.
NS_PER_NOP = 0.4


def read_ratio_for_store_fraction(
    store_fraction: float, non_temporal: bool = False
) -> float:
    """Memory-traffic read ratio produced by an instruction mix.

    Under write-allocate each store contributes one read (the line
    fill) and one write (the eviction), so a kernel with store fraction
    ``s`` yields ``1 / (1 + s)`` reads in its memory traffic — never
    less than 50% reads. With non-temporal (streaming) stores, each
    store is a single memory write, so the ratio is ``1 - s`` and the
    whole write-dominated half of the space opens up (the paper's
    footnote on the x86 streaming-store benchmark variant).
    """
    if not 0.0 <= store_fraction <= 1.0:
        raise BenchmarkError(
            f"store_fraction must be in [0, 1], got {store_fraction}"
        )
    if non_temporal:
        return 1.0 - store_fraction
    return 1.0 / (1.0 + store_fraction)


def store_fraction_for_read_ratio(read_ratio: float) -> float:
    """Inverse of :func:`read_ratio_for_store_fraction` (clamped to [0.5, 1])."""
    if not 0.5 <= read_ratio <= 1.0:
        raise BenchmarkError(
            "write-allocate traffic has read ratio in [0.5, 1], got "
            f"{read_ratio}"
        )
    return 1.0 / read_ratio - 1.0


@dataclass(frozen=True)
class TrafficGenConfig(SpecConvertible):
    """One traffic-generator kernel configuration.

    ``ops_per_burst`` mirrors the ~100-instruction unrolled loop body of
    Listing 2; ``nop_count`` the dummy-loop iterations of Listing 3.
    """

    store_fraction: float
    nop_count: int
    array_bytes: int = 64 * 1024 * 1024
    ops_per_burst: int = 16
    ns_per_nop: float = NS_PER_NOP
    #: Use streaming (non-temporal) stores: pure write traffic instead
    #: of the write-allocate read+write pair.
    non_temporal_stores: bool = False
    #: Lines skipped between consecutive accesses of each array. 1 is
    #: the sequential Listing 2 pattern; a stride of one row's worth of
    #: lines touches a new DRAM row on every access (Section IV-D's
    #: strided extension).
    stride_lines: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.store_fraction <= 1.0:
            raise BenchmarkError(
                f"store_fraction must be in [0, 1], got {self.store_fraction}"
            )
        if self.nop_count < 0:
            raise BenchmarkError(f"nop_count must be >= 0, got {self.nop_count}")
        if self.array_bytes < CACHE_LINE_BYTES:
            raise BenchmarkError("arrays must hold at least one line")
        if self.ops_per_burst < 1:
            raise BenchmarkError("ops_per_burst must be >= 1")
        if self.stride_lines < 1:
            raise BenchmarkError("stride_lines must be >= 1")

    @property
    def pause_ns(self) -> float:
        """Length of the nop pause between bursts."""
        return self.nop_count * self.ns_per_nop


def traffic_gen_ops(
    config: TrafficGenConfig,
    load_base: int,
    store_base: int,
    initial_delay_ns: float = 0.0,
) -> Iterator[Operation]:
    """Infinite operation stream for one generator core.

    Each burst interleaves loads from the load array and stores to the
    store array, advancing sequentially and wrapping at the array size;
    a nop pause follows each burst. Stores are spaced through the burst
    to approximate the interleaved Listing 2 body.

    ``initial_delay_ns`` phase-shifts the core's burst schedule. Real
    cores drift apart naturally; simulated cores with identical
    latencies stay in lockstep and would hammer the memory system with
    perfectly synchronized burst waves no hardware ever sees.
    """
    lines = config.array_bytes // CACHE_LINE_BYTES
    stores_per_burst = round(config.store_fraction * config.ops_per_burst)
    load_line = 0
    store_line = 0
    if initial_delay_ns > 0:
        yield Delay(initial_delay_ns)
    while True:
        for slot in range(config.ops_per_burst):
            # distribute stores evenly through the burst
            is_store = (
                stores_per_burst > 0
                and (slot * stores_per_burst) // config.ops_per_burst
                != ((slot + 1) * stores_per_burst) // config.ops_per_burst
            )
            # fields by position: (address, is_store, dependent,
            # non_temporal); one op is built per simulated access
            if is_store:
                yield MemOp(
                    store_base + store_line * CACHE_LINE_BYTES,
                    True,
                    False,
                    config.non_temporal_stores,
                )
                store_line = (store_line + config.stride_lines) % lines
            else:
                yield MemOp(load_base + load_line * CACHE_LINE_BYTES)
                load_line = (load_line + config.stride_lines) % lines
        if config.pause_ns > 0:
            yield Delay(config.pause_ns)
