"""Row-buffer and controller statistics (Figure 7 methodology)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RowBufferOutcome(enum.Enum):
    """Result of the row-buffer check for one column access.

    ``HIT``: the target row was already open. ``EMPTY``: the bank had no
    open row (a precharged bank, e.g. after refresh or under a
    closed-page policy). ``MISS``: a different row was open and had to
    be closed first. These are exactly the three classes the paper's
    hardware counters and simulators report.
    """

    HIT = "hit"
    EMPTY = "empty"
    MISS = "miss"


@dataclass
class RowBufferStats:
    """Hit / empty / miss census of a controller or one bank.

    The controller's scheduler counts into the fields directly, in the
    branch that classified the access.
    """

    hits: int = 0
    empties: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.empties + self.misses

    def rates(self) -> tuple[float, float, float]:
        """(hit, empty, miss) rates; (0, 0, 0) when no accesses."""
        if not self.total:
            return (0.0, 0.0, 0.0)
        return (
            self.hits / self.total,
            self.empties / self.total,
            self.misses / self.total,
        )

    def merged_with(self, other: "RowBufferStats") -> "RowBufferStats":
        """Sum of two censuses (e.g. across channels)."""
        return RowBufferStats(
            hits=self.hits + other.hits,
            empties=self.empties + other.empties,
            misses=self.misses + other.misses,
        )

    def to_dict(self) -> dict:
        """JSON-ready census (telemetry summaries, manifest embedding)."""
        hit, empty, miss = self.rates()
        return {
            "hits": self.hits,
            "empties": self.empties,
            "misses": self.misses,
            "hit_rate": hit,
            "empty_rate": empty,
            "miss_rate": miss,
        }


@dataclass
class ControllerStats:
    """Aggregate controller statistics across all channels."""

    row_buffer: RowBufferStats = field(default_factory=RowBufferStats)
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    write_stalls: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def to_dict(self) -> dict:
        """JSON-ready controller census (telemetry and analysis dumps)."""
        return {
            "row_buffer": self.row_buffer.to_dict(),
            "reads": self.reads,
            "writes": self.writes,
            "refreshes": self.refreshes,
            "write_stalls": self.write_stalls,
            "accesses": self.accesses,
        }
