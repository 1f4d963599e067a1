"""Offline rollup of the telemetry file ``repro run --trace`` writes.

``python -m repro telemetry summarize PATH`` reads the Chrome
trace-event document of :func:`~repro.telemetry.exporters.write_chrome_trace`
and rebuilds the :class:`~repro.telemetry.registry.TelemetryRegistry` it
was written from: spans from its ``X`` events, events from its ``i``
events, simulation-time samples from its ``C`` events, and every
instrument from ``otherData["instruments"]`` (span and event categories
and attributes are not read back; no rollup uses them). The summary is that
registry's :meth:`~repro.telemetry.registry.TelemetryRegistry.summary`
— the rollup the run manifest and serve's ``/stats`` use too — plus
the range of each sample series. Useful for eyeballing a trace without
loading Perfetto.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import TelemetryError
from .registry import SampleRecord, TelemetryRegistry


def _registry_payload(document: dict) -> dict:
    """A trace document as a :meth:`TelemetryRegistry.to_dict` payload."""
    other = document.get("otherData", {})
    spans, events, samples = [], [], []
    for entry in document["traceEvents"]:
        phase = entry.get("ph")
        if phase == "X":
            spans.append(
                {
                    "name": str(entry["name"]),
                    "ts_us": float(entry["ts"]),
                    "dur_us": float(entry["dur"]),
                }
            )
        elif phase == "i":
            events.append({"name": str(entry["name"]), "ts_us": float(entry["ts"])})
        elif phase == "C":
            samples.append(
                {
                    "series": str(entry["name"]),
                    "ts_us": float(entry["ts"]),
                    "values": {
                        str(key): float(value)
                        for key, value in (entry.get("args") or {}).items()
                    },
                }
            )
    return {
        "instruments": other.get("instruments", {}),
        "spans": spans,
        "events": events,
        "samples": samples,
        "dropped": other.get("dropped_records", 0),
    }


def _series_ranges(samples: list[SampleRecord]) -> dict[str, dict]:
    """Per series: sample count, simulated-time extent, value ranges."""
    series: dict[str, dict] = {}
    for sample in samples:
        entry = series.setdefault(
            sample.series,
            {"samples": 0, "first_ts_us": sample.ts_us, "last_ts_us": sample.ts_us},
        )
        entry["samples"] += 1
        entry["first_ts_us"] = min(entry["first_ts_us"], sample.ts_us)
        entry["last_ts_us"] = max(entry["last_ts_us"], sample.ts_us)
        for key, value in sample.values.items():
            stats = entry.setdefault("values", {}).setdefault(
                key, {"min": value, "max": value, "last": value}
            )
            stats["min"] = min(stats["min"], value)
            stats["max"] = max(stats["max"], value)
            stats["last"] = value
    return series


def summarize_file(path: str | Path) -> dict:
    """Summarize one Chrome trace written by ``repro run --trace``.

    Returns :meth:`TelemetryRegistry.summary` of the registry the file
    holds, plus ``series``: the range of each sample series. Anything
    else — a missing or unreadable path, a file that is not a
    trace-event document, a malformed event — raises a one-line
    :class:`TelemetryError` (the CLI prints it and exits 1).
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise TelemetryError(f"cannot read telemetry file {path}: {exc}") from exc
    except ValueError as exc:
        raise TelemetryError(f"{path} is not a trace-event document: {exc}") from exc
    if not (
        isinstance(document, dict)
        and isinstance(document.get("traceEvents"), list)
        and isinstance(document.get("otherData", {}), dict)
    ):
        raise TelemetryError(
            f"{path} is not a trace-event document: expected an object "
            "with a traceEvents list"
        )
    try:
        payload = _registry_payload(document)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TelemetryError(f"{path}: malformed trace event: {exc!r}") from exc
    registry = TelemetryRegistry()
    registry.merge_dict(payload)
    summary = registry.summary()
    summary["series"] = _series_ranges(registry.samples)
    return summary


def format_summary(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize_file` output."""
    lines = []
    if summary["spans"]:
        lines.append("spans:")
        for name, entry in sorted(summary["spans"].items()):
            lines.append(
                f"  {name}: n={entry['count']} "
                f"total={entry['total_us'] / 1e3:.2f}ms "
                f"max={entry['max_us'] / 1e3:.2f}ms"
            )
    for section in ("counters", "gauges"):
        if summary[section]:
            lines.append(f"{section}:")
            for name, value in sorted(summary[section].items()):
                lines.append(f"  {name}: {value}")
    if summary["histograms"]:
        lines.append("histograms:")
        for name, entry in sorted(summary["histograms"].items()):
            lines.append(
                f"  {name}: n={entry['count']} mean={entry['mean']:.2f}"
            )
    if summary["series"]:
        lines.append("series:")
        for name, entry in sorted(summary["series"].items()):
            span_us = entry["last_ts_us"] - entry["first_ts_us"]
            lines.append(
                f"  {name}: samples={entry['samples']} over {span_us:.0f}us sim time"
            )
            for key, stats in sorted(entry.get("values", {}).items()):
                lines.append(
                    f"    {key}: min={stats['min']:.3f} max={stats['max']:.3f} "
                    f"last={stats['last']:.3f}"
                )
    lines.append(f"events: {summary['events']}")
    return "\n".join(lines)
