"""Observability for the Mess reproduction: counters, spans, traces.

The Mess simulator's defining behaviour is internal dynamics — a
controller repositioning the application on the bandwidth-latency curves
every window — and this subsystem makes those dynamics observable
without ad-hoc prints:

- :class:`TelemetryRegistry` — process-local, typed instruments
  (:class:`Counter`, :class:`Gauge`, :class:`Histogram`), wall-clock
  spans/events and simulation-time samples;
- :func:`activate` / :func:`deactivate` / :func:`active` — the
  process-global switch. Nothing is active by default: instrumented
  constructors read :func:`active` once and hot paths pay a single
  ``is not None`` check when telemetry is off (the null-sink fast path);
- :func:`write_chrome_trace` — the one telemetry file
  (``repro run --trace``): a ``chrome://tracing`` / Perfetto timeline
  that also carries every instrument; :func:`prometheus_text` is
  serve's ``/metrics`` scrape;
- :func:`summarize_file` — offline rollup of that file, used by
  ``python -m repro telemetry summarize``: the registry's own
  :meth:`TelemetryRegistry.summary` plus each sample series' range.

Typical use::

    from repro import telemetry

    registry = telemetry.activate()
    ...  # build + run simulators, benchmarks, experiments
    telemetry.write_chrome_trace(registry, "trace.json")
    telemetry.deactivate()
    print(telemetry.summarize_file("trace.json")["counters"])
"""

from __future__ import annotations

from .exporters import (
    chrome_trace,
    metric_name,
    prometheus_text,
    write_chrome_trace,
)
from .instruments import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
)
from .registry import (
    EventRecord,
    SampleRecord,
    SpanRecord,
    TelemetryRegistry,
    activate,
    active,
    deactivate,
)
from .summary import format_summary, summarize_file

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "EventRecord",
    "Gauge",
    "Histogram",
    "SampleRecord",
    "SpanRecord",
    "TelemetryRegistry",
    "activate",
    "active",
    "chrome_trace",
    "deactivate",
    "format_summary",
    "metric_name",
    "prometheus_text",
    "summarize_file",
    "write_chrome_trace",
]
