"""Typed telemetry instruments: counters, gauges, histograms.

Instruments are deliberately dumb value holders — no locks, no labels,
no clock access — so touching one from a simulation hot path costs an
attribute access and an add. Aggregation across processes happens at the
registry level (:meth:`repro.telemetry.registry.TelemetryRegistry.merge_dict`),
not inside the instruments.

Naming convention: dotted lowercase paths (``dram.row_hits``,
``sim.windows``). The Prometheus exporter sanitizes dots into the
underscore names that format requires.
"""

from __future__ import annotations

from bisect import bisect_left

from ..errors import TelemetryError

#: Default histogram bucket upper bounds (occupancies / small counts).
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class Counter:
    """A monotonically increasing count (requests served, rows missed)."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """A point-in-time value that can move both ways (queue depth)."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def to_dict(self) -> dict:
        return {"kind": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """A distribution over fixed bucket boundaries.

    ``bounds`` are inclusive upper bounds of the finite buckets; one
    implicit overflow bucket catches everything above the last bound —
    the exact layout Prometheus exposition expects (cumulative buckets
    are derived at export time, raw per-bucket counts are kept here).
    """

    __slots__ = ("name", "help", "bounds", "counts", "total", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise TelemetryError(
                f"histogram {self.__class__.__name__} {name!r} needs strictly "
                f"increasing non-empty bounds, got {bounds!r}"
            )
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left keeps the bounds inclusive (a value equal to a
        # bound lands in that bucket), matching Prometheus ``le``
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }


Instrument = Counter | Gauge | Histogram
