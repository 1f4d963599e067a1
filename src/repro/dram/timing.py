"""DRAM device timing parameters and technology presets.

Timings are expressed directly in nanoseconds (the JEDEC datasheet values
for the speed grades modeled), which keeps the controller clock-free.
Presets cover the technologies evaluated in the paper: DDR4-2666/3200,
DDR5-4800/5600, HBM2 and HBM2E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError
from ..specs import SpecConvertible, from_spec
from ..units import CACHE_LINE_BYTES, ddr_rate_to_gbps


@dataclass(frozen=True)
class DramTiming(SpecConvertible):
    """Timing and geometry of one DRAM channel.

    All delays are nanoseconds. The burst time is derived from the
    channel's peak bandwidth so the model stays exact for technologies
    with different prefetch lengths and bus widths.

    Attributes
    ----------
    name: technology label (e.g. ``"DDR4-2666"``).
    channel_peak_gbps: peak data-bus bandwidth of one channel.
    tCL: column-access (read) latency.
    tCWL: column write latency.
    tRCD: row-to-column delay (activate to column command).
    tRP: row precharge time.
    tRAS: minimum row-active time.
    tWR: write recovery after the last write burst before precharge.
    tWTR: write-to-read turnaround on the same rank.
    tRTW: read-to-write bus turnaround.
    tFAW: four-activate window per rank.
    tRRD: activate-to-activate delay between banks.
    tRFC: refresh cycle time (rank blocked).
    tREFI: average refresh interval.
    banks_per_rank: number of banks in each rank.
    ranks: ranks per channel.
    row_bytes: bytes covered by one open row (row-buffer reach).
    """

    name: str
    channel_peak_gbps: float
    tCL: float
    tCWL: float
    tRCD: float
    tRP: float
    tRAS: float
    tWR: float
    tWTR: float
    tRTW: float
    tFAW: float
    tRRD: float
    tRFC: float
    tREFI: float
    banks_per_rank: int = 16
    ranks: int = 2
    row_bytes: int = 8192

    def __post_init__(self) -> None:
        numeric = {
            "channel_peak_gbps": self.channel_peak_gbps,
            "tCL": self.tCL,
            "tCWL": self.tCWL,
            "tRCD": self.tRCD,
            "tRP": self.tRP,
            "tRAS": self.tRAS,
            "tWR": self.tWR,
            "tWTR": self.tWTR,
            "tRTW": self.tRTW,
            "tFAW": self.tFAW,
            "tRRD": self.tRRD,
            "tRFC": self.tRFC,
            "tREFI": self.tREFI,
        }
        for field_name, value in numeric.items():
            # NaN fails every comparison, so ``value <= 0`` alone lets it
            # through, and an infinite delay or bandwidth is positive
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{self.name}: {field_name} must be finite and positive, "
                    f"got {value}"
                )
        if self.banks_per_rank < 1 or self.ranks < 1:
            raise ConfigurationError(
                f"{self.name}: banks_per_rank and ranks must be >= 1"
            )
        if self.row_bytes < CACHE_LINE_BYTES:
            raise ConfigurationError(
                f"{self.name}: row_bytes must cover at least one cache line"
            )

    @property
    def tBURST(self) -> float:
        """Data-bus occupancy of one cache-line burst, in ns."""
        return CACHE_LINE_BYTES / self.channel_peak_gbps

    @property
    def total_banks(self) -> int:
        """Banks per channel across all ranks."""
        return self.banks_per_rank * self.ranks

    @property
    def random_read_latency(self) -> float:
        """Idle-device latency of a row-miss read (tRP + tRCD + tCL)."""
        return self.tRP + self.tRCD + self.tCL

    @classmethod
    def from_spec(cls, payload: object, where: str = "") -> "DramTiming":
        """Resolve a timing spec: preset name, preset dict, or full spec.

        Accepts ``"DDR4-2666"``, ``{"preset": "DDR4-2666"}`` or a full
        field-by-field timing object. The canonical ``to_spec()`` form
        is always the full object, so a scenario digest depends on the
        actual timing values, never on how they were spelled.
        """
        where = where or cls.__name__
        if isinstance(payload, str):
            return preset(payload)
        if isinstance(payload, Mapping) and set(payload) == {"preset"}:
            name = payload["preset"]
            if not isinstance(name, str):
                raise ConfigurationError(
                    f"{where}.preset: expected a preset name string"
                )
            return preset(name)
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"{where}: expected a preset name or timing object, "
                f"got {type(payload).__name__}"
            )
        return from_spec(cls, payload, where=where)


def _ddr4(name: str, rate_mts: int, cl_ns: float) -> DramTiming:
    return DramTiming(
        name=name,
        channel_peak_gbps=ddr_rate_to_gbps(rate_mts),
        tCL=cl_ns,
        tCWL=cl_ns * 0.72,
        tRCD=cl_ns,
        tRP=cl_ns,
        tRAS=32.0,
        tWR=15.0,
        tWTR=7.5,
        tRTW=2.5,
        tFAW=21.0,
        tRRD=5.3,
        tRFC=350.0,
        tREFI=7800.0,
        banks_per_rank=16,
        ranks=2,
        row_bytes=8192,
    )


#: DDR4-2666, CL19 (Skylake / Cascade Lake / Power9 class servers).
DDR4_2666 = _ddr4("DDR4-2666", 2666, 14.25)

#: DDR4-3200, CL22 (AMD Zen 2 class servers).
DDR4_3200 = _ddr4("DDR4-3200", 3200, 13.75)

#: DDR5-4800, CL40 (Graviton 3 / Sapphire Rapids class servers).
DDR5_4800 = DramTiming(
    name="DDR5-4800",
    channel_peak_gbps=ddr_rate_to_gbps(4800),
    tCL=16.7,
    tCWL=15.0,
    tRCD=16.7,
    tRP=16.7,
    tRAS=32.0,
    tWR=30.0,
    tWTR=10.0,
    tRTW=2.5,
    tFAW=13.3,
    tRRD=5.0,
    tRFC=295.0,
    tREFI=3900.0,
    banks_per_rank=32,
    ranks=2,
    row_bytes=8192,
)

#: DDR5-5600, CL46 (backend DIMM of the CXL memory expander, Section V-C).
DDR5_5600 = DramTiming(
    name="DDR5-5600",
    channel_peak_gbps=ddr_rate_to_gbps(5600),
    tCL=16.4,
    tCWL=14.9,
    tRCD=16.4,
    tRP=16.4,
    tRAS=32.0,
    tWR=30.0,
    tWTR=10.0,
    tRTW=2.5,
    tFAW=11.4,
    tRRD=5.0,
    tRFC=295.0,
    tREFI=3900.0,
    banks_per_rank=32,
    ranks=2,
    row_bytes=8192,
)

#: One HBM2 channel: 128-bit @ 2.0 Gb/s/pin = 32 GB/s (8 channels/stack).
HBM2 = DramTiming(
    name="HBM2",
    channel_peak_gbps=32.0,
    tCL=14.0,
    tCWL=7.0,
    tRCD=14.0,
    tRP=14.0,
    tRAS=33.0,
    tWR=16.0,
    tWTR=6.5,
    tRTW=2.0,
    tFAW=16.0,
    tRRD=4.0,
    tRFC=260.0,
    tREFI=3900.0,
    banks_per_rank=16,
    ranks=1,
    row_bytes=2048,
)

#: One HBM2E channel: 128-bit @ ~3.2 Gb/s/pin = 51 GB/s (H100 class).
HBM2E = DramTiming(
    name="HBM2E",
    channel_peak_gbps=51.0,
    tCL=14.0,
    tCWL=7.0,
    tRCD=14.0,
    tRP=14.0,
    tRAS=33.0,
    tWR=16.0,
    tWTR=6.5,
    tRTW=2.0,
    tFAW=16.0,
    tRRD=4.0,
    tRFC=260.0,
    tREFI=3900.0,
    banks_per_rank=16,
    ranks=1,
    row_bytes=2048,
)

#: Name -> preset lookup for configuration files and CLI tools.
PRESETS: dict[str, DramTiming] = {
    timing.name: timing
    for timing in (DDR4_2666, DDR4_3200, DDR5_4800, DDR5_5600, HBM2, HBM2E)
}


def preset(name: str) -> DramTiming:
    """Look up a timing preset by name, with a helpful error."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown DRAM preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
