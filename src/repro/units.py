"""Unit helpers shared across the package.

The paper reports latency in nanoseconds, bandwidth in GB/s and device
timings in cycles at a given clock. Internally every simulator in this
package works in nanoseconds (time) and bytes (data); these helpers keep
conversions explicit and in one place.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

#: Size of a cache line in bytes. All memory traffic in the paper (and in
#: this reproduction) moves at cache-line granularity.
CACHE_LINE_BYTES = 64

#: Most per-unit state objects (DRAM banks, channel or DIMM queues) one
#: memory model may allocate. Models check it before they allocate, so
#: a spec naming 10**29 ranks fails at once instead of exhausting
#: memory. The largest configuration in this repository is 32 channels
#: x 2 ranks x 32 banks = 2,048 banks.
MAX_MODEL_UNITS = 16_384

#: Bytes per gigabyte as used for bandwidth (decimal GB, matching GB/s in
#: the paper's figures and DRAM datasheets).
BYTES_PER_GB = 1e9

#: Nanoseconds per second.
NS_PER_S = 1e9


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Convert a bandwidth in GB/s to bytes per nanosecond.

    1 GB/s is 1e9 bytes per 1e9 ns, i.e. exactly 1 byte/ns, which makes
    this an identity; the function exists so call sites state their units.
    """
    return gbps * BYTES_PER_GB / NS_PER_S


def bytes_per_ns_to_gbps(bytes_per_ns: float) -> float:
    """Convert a bandwidth in bytes/ns to GB/s (inverse of the above)."""
    return bytes_per_ns * NS_PER_S / BYTES_PER_GB


def lines_per_ns_to_gbps(lines_per_ns: float) -> float:
    """Convert a cache-line rate (lines/ns) to a bandwidth in GB/s."""
    return bytes_per_ns_to_gbps(lines_per_ns * CACHE_LINE_BYTES)


def gbps_to_lines_per_ns(gbps: float) -> float:
    """Convert a bandwidth in GB/s to a cache-line rate in lines/ns."""
    return gbps_to_bytes_per_ns(gbps) / CACHE_LINE_BYTES


def cycles_to_ns(cycles: float, freq_ghz: float) -> float:
    """Convert a cycle count at ``freq_ghz`` GHz to nanoseconds."""
    if freq_ghz <= 0:
        raise ConfigurationError(f"frequency must be positive, got {freq_ghz} GHz")
    return cycles / freq_ghz


def ns_to_cycles(ns: float, freq_ghz: float) -> float:
    """Convert nanoseconds to cycles at ``freq_ghz`` GHz."""
    if freq_ghz <= 0:
        raise ConfigurationError(f"frequency must be positive, got {freq_ghz} GHz")
    return ns * freq_ghz


def ddr_rate_to_gbps(mega_transfers_per_s: float, bus_bytes: int = 8) -> float:
    """Peak bandwidth of one DDR channel.

    ``mega_transfers_per_s`` is the DDR data rate (e.g. 2666 for
    DDR4-2666); ``bus_bytes`` is the data-bus width (8 bytes for DDRx
    DIMMs, wider for HBM pseudo-channels).
    """
    if mega_transfers_per_s <= 0:
        raise ConfigurationError(
            f"data rate must be positive, got {mega_transfers_per_s} MT/s"
        )
    return mega_transfers_per_s * 1e6 * bus_bytes / BYTES_PER_GB


def scaled(base: int, scale: float, minimum: int = 1) -> int:
    """Scale an integer quantity, clamped below by ``minimum``."""
    if not 0 < scale < math.inf:  # NaN fails both comparisons
        raise ConfigurationError(
            f"scale must be a finite positive number, got {scale}"
        )
    return max(minimum, int(round(base * scale)))
