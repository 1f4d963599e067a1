"""The telemetry registry: instruments, spans, events, samples.

One :class:`TelemetryRegistry` holds everything a process observes:

- **instruments** — named :class:`~repro.telemetry.instruments.Counter` /
  ``Gauge`` / ``Histogram`` values (get-or-create by name, kind-checked);
- **spans** — wall-clock intervals (an experiment, one sweep point),
  timestamped in absolute unix microseconds so spans recorded in
  different worker processes line up on one timeline;
- **events** — wall-clock instants with attributes;
- **samples** — *simulation-time* series (the Mess control loop's
  per-window bandwidth/latency estimates), kept separate from wall
  spans because their clock is the simulated nanosecond, not ours.

Nothing here is active by default. Hot code guards every touch with
``self._tel is not None`` where ``self._tel`` was read once from
:func:`active` at construction — the null-sink fast path costs one
attribute check per request when telemetry is off.

Cross-process transport: a worker serializes its registry with
:meth:`TelemetryRegistry.to_dict`; the parent folds it in with
:meth:`TelemetryRegistry.merge_dict` (counters add, gauges take the
incoming value, histograms add bucket-wise, record lists concatenate).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..errors import TelemetryError
from .instruments import Counter, Gauge, Histogram, Instrument

#: Cap on stored spans, events and samples each; excess is counted, not kept.
MAX_RECORDS = 100_000


@dataclass(frozen=True)
class SpanRecord:
    """One completed wall-clock interval."""

    name: str
    ts_us: float  # absolute unix time, microseconds
    dur_us: float
    category: str = ""
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
            "category": self.category,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class EventRecord:
    """One wall-clock instant with attributes."""

    name: str
    ts_us: float
    category: str = ""
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ts_us": self.ts_us,
            "category": self.category,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class SampleRecord:
    """One simulation-time multi-value sample of a named series."""

    series: str
    ts_us: float  # simulated time, microseconds
    values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "series": self.series,
            "ts_us": self.ts_us,
            "values": dict(self.values),
        }


class TelemetryRegistry:
    """Process-local home of every instrument and trace record."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.samples: list[SampleRecord] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # Instruments (get-or-create)
    # ------------------------------------------------------------------

    def _get(self, name: str, kind: type, factory) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TelemetryError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).kind}, requested {kind.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None, help: str = ""
    ) -> Histogram:
        def factory() -> Histogram:
            if bounds is None:
                return Histogram(name, help=help)
            return Histogram(name, bounds=bounds, help=help)

        return self._get(name, Histogram, factory)

    def instruments(self) -> Mapping[str, Instrument]:
        """Read-only view of every registered instrument."""
        return dict(self._instruments)

    # ------------------------------------------------------------------
    # Spans / events / samples
    # ------------------------------------------------------------------

    def _keep(self, records: list) -> bool:
        if len(records) >= MAX_RECORDS:
            self.dropped += 1
            return False
        return True

    @contextmanager
    def span(self, name: str, category: str = "", **attrs) -> Iterator[None]:
        """Record the wall-clock duration of the enclosed block."""
        wall_start = time.time()
        tick = time.perf_counter()
        try:
            yield
        finally:
            dur_us = (time.perf_counter() - tick) * 1e6
            if self._keep(self.spans):
                self.spans.append(
                    SpanRecord(
                        name=name,
                        ts_us=wall_start * 1e6,
                        dur_us=dur_us,
                        category=category,
                        attrs=attrs,
                    )
                )

    def event(self, name: str, category: str = "", **attrs) -> None:
        """Record an instantaneous wall-clock event."""
        if self._keep(self.events):
            self.events.append(
                EventRecord(
                    name=name,
                    ts_us=time.time() * 1e6,
                    category=category,
                    attrs=attrs,
                )
            )

    def sample(self, series: str, ts_us: float, **values: float) -> None:
        """Record one simulation-time sample of ``series``."""
        if self._keep(self.samples):
            self.samples.append(
                SampleRecord(series=series, ts_us=ts_us, values=values)
            )

    # ------------------------------------------------------------------
    # Serialization / merge / summary
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dump of everything (cross-process transport)."""
        return {
            "instruments": {
                name: instrument.to_dict()
                for name, instrument in sorted(self._instruments.items())
            },
            "spans": [span.to_dict() for span in self.spans],
            "events": [event.to_dict() for event in self.events],
            "samples": [sample.to_dict() for sample in self.samples],
            "dropped": self.dropped,
        }

    def merge_dict(self, payload: Mapping) -> None:
        """Fold a :meth:`to_dict` payload (e.g. from a worker) into this.

        Counters and histograms accumulate; gauges take the incoming
        value (last writer wins, matching scrape semantics); spans,
        events and samples concatenate subject to the record cap.
        """
        try:
            for name, entry in payload.get("instruments", {}).items():
                kind = entry.get("kind")
                if kind == "counter":
                    self.counter(name, entry.get("help", "")).inc(
                        int(entry.get("value", 0))
                    )
                elif kind == "gauge":
                    self.gauge(name, entry.get("help", "")).set(
                        entry.get("value", 0.0)
                    )
                elif kind == "histogram":
                    histogram = self.histogram(
                        name,
                        bounds=tuple(entry["bounds"]),
                        help=entry.get("help", ""),
                    )
                    counts = entry.get("counts", [])
                    if len(counts) != len(histogram.counts):
                        raise TelemetryError(
                            f"histogram {name!r} bucket layouts disagree"
                        )
                    for index, count in enumerate(counts):
                        histogram.counts[index] += int(count)
                    histogram.total += float(entry.get("total", 0.0))
                    histogram.count += int(entry.get("count", 0))
                else:
                    raise TelemetryError(
                        f"unknown instrument kind {kind!r} for {name!r}"
                    )
            for span in payload.get("spans", []):
                if self._keep(self.spans):
                    self.spans.append(SpanRecord(**span))
            for event in payload.get("events", []):
                if self._keep(self.events):
                    self.events.append(EventRecord(**event))
            for sample in payload.get("samples", []):
                if self._keep(self.samples):
                    self.samples.append(SampleRecord(**sample))
            self.dropped += int(payload.get("dropped", 0))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed telemetry payload: {exc}") from exc

    def summary(self) -> dict:
        """Compact JSON summary: counter totals, span durations, etc.

        The one rollup: the run manifest embeds it per experiment,
        serve's ``/stats`` reports its instruments and ``repro
        telemetry summarize`` prints it for a trace file — small enough
        to read in a diff, rich enough to spot a regression.
        """
        spans: dict[str, dict] = {}
        for span in self.spans:
            entry = spans.setdefault(
                span.name, {"count": 0, "total_us": 0.0, "max_us": 0.0}
            )
            entry["count"] += 1
            entry["total_us"] += span.dur_us
            entry["max_us"] = max(entry["max_us"], span.dur_us)
        counters = {}
        gauges = {}
        histograms = {}
        for name, instrument in sorted(self._instruments.items()):
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = {
                    "count": instrument.count,
                    "total": instrument.total,
                    "mean": instrument.mean,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": spans,
            "events": len(self.events),
            "samples": len(self.samples),
            "dropped": self.dropped,
        }


# ----------------------------------------------------------------------
# Process-global activation (mirrors repro.runner.cache)
# ----------------------------------------------------------------------
#
# Instrumented constructors read the active registry once; when nothing
# is active they hold None and every hot-path guard short-circuits.
# Importing the package never activates anything.

_ACTIVE: TelemetryRegistry | None = None


def activate(registry: TelemetryRegistry | None = None) -> TelemetryRegistry:
    """Install ``registry`` (or a fresh one) as the process's registry."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else TelemetryRegistry()
    return _ACTIVE


def deactivate() -> None:
    """Disable telemetry; instrumented code built afterwards is null-sink."""
    global _ACTIVE
    _ACTIVE = None


def active() -> TelemetryRegistry | None:
    """The currently active registry, if any."""
    return _ACTIVE
