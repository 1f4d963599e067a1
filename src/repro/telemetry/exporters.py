"""Telemetry exporters: Chrome trace-event JSON, Prometheus text.

Two formats, two audiences:

- **Chrome trace-event** (:func:`chrome_trace`, :func:`write_chrome_trace`)
  — the one telemetry file (``repro run --trace``), loadable in
  ``chrome://tracing`` and Perfetto. Wall-clock spans and events go on
  pid 1; simulation-time series (the control loop's per-window samples)
  become counter tracks on pid 2, because their clock is the simulated
  nanosecond, not ours. ``otherData["instruments"]`` carries every
  counter, gauge and histogram, so ``repro telemetry summarize``
  rebuilds the whole registry from the file.
- **Prometheus text exposition** (:func:`prometheus_text`) — serve's
  ``/metrics`` scrape of every counter, gauge and histogram; dotted
  instrument names are sanitized into the ``repro_*`` metric namespace.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .instruments import Counter, Gauge, Histogram
from .registry import TelemetryRegistry

_WALL_PID = 1
_SIM_PID = 2

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


# ----------------------------------------------------------------------
# Chrome trace-event
# ----------------------------------------------------------------------


def chrome_trace(registry: TelemetryRegistry) -> dict:
    """The registry as a Chrome trace-event document (JSON object format).

    Wall timestamps are re-based to the earliest span/event so the
    timeline starts near zero regardless of when the run happened.
    """
    wall_ts = [span.ts_us for span in registry.spans] + [
        event.ts_us for event in registry.events
    ]
    wall_base = min(wall_ts) if wall_ts else 0.0
    trace_events: list[dict] = [
        {
            "ph": "M",
            "pid": _WALL_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro (wall clock)"},
        },
        {
            "ph": "M",
            "pid": _SIM_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro (simulated time)"},
        },
    ]
    for span in registry.spans:
        trace_events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.ts_us - wall_base,
                "dur": span.dur_us,
                "pid": _WALL_PID,
                "tid": 1,
                "args": dict(span.attrs),
            }
        )
    for event in registry.events:
        trace_events.append(
            {
                "name": event.name,
                "cat": event.category or "event",
                "ph": "i",
                "s": "p",
                "ts": event.ts_us - wall_base,
                "pid": _WALL_PID,
                "tid": 1,
                "args": dict(event.attrs),
            }
        )
    for sample in registry.samples:
        trace_events.append(
            {
                "name": sample.series,
                "cat": "sample",
                "ph": "C",
                "ts": sample.ts_us,
                "pid": _SIM_PID,
                "args": {
                    key: float(value) for key, value in sample.values.items()
                },
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "dropped_records": registry.dropped,
            "instruments": {
                name: instrument.to_dict()
                for name, instrument in sorted(registry.instruments().items())
            },
        },
    }


def write_chrome_trace(registry: TelemetryRegistry, path: str | Path) -> None:
    Path(path).write_text(json.dumps(chrome_trace(registry)) + "\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def metric_name(name: str) -> str:
    """Sanitize a dotted instrument name into the metric namespace."""
    sanitized = _INVALID_METRIC_CHARS.sub("_", name)
    if not sanitized.startswith("repro_"):
        sanitized = f"repro_{sanitized}"
    return sanitized


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: TelemetryRegistry) -> str:
    """Text exposition (version 0.0.4) of every instrument."""
    lines: list[str] = []
    for name, instrument in sorted(registry.instruments().items()):
        if isinstance(instrument, Counter):
            metric = metric_name(name) + "_total"
            if instrument.help:
                lines.append(f"# HELP {metric} {instrument.help}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_fmt(instrument.value)}")
        elif isinstance(instrument, Gauge):
            metric = metric_name(name)
            if instrument.help:
                lines.append(f"# HELP {metric} {instrument.help}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt(instrument.value)}")
        elif isinstance(instrument, Histogram):
            metric = metric_name(name)
            if instrument.help:
                lines.append(f"# HELP {metric} {instrument.help}")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(instrument.bounds, instrument.counts):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                )
            lines.append(
                f'{metric}_bucket{{le="+Inf"}} {instrument.count}'
            )
            lines.append(f"{metric}_sum {_fmt(instrument.total)}")
            lines.append(f"{metric}_count {instrument.count}")
    return "\n".join(lines) + "\n" if lines else ""
