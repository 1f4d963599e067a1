"""Exporter tests: Chrome trace validity and round trip, Prometheus parsing.

The acceptance bar: the emitted Chrome trace file must be valid
trace-event JSON that summarizes to the registry's own summary, and the
Prometheus export must parse — so this module contains a miniature
parser for Prometheus text exposition 0.0.4 and runs it against the
real export.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    TelemetryRegistry,
    chrome_trace,
    metric_name,
    prometheus_text,
    summarize_file,
    write_chrome_trace,
)

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)


def parse_prometheus(text: str) -> dict:
    """Tiny Prometheus text-exposition 0.0.4 parser.

    Returns {metric_name: {labels_frozenset: value}} plus the TYPE
    declarations; raises AssertionError on any malformed line.
    """
    metrics: dict[str, dict] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            assert len(line.split(" ", 3)) == 4, line
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in {"counter", "gauge", "histogram", "summary", "untyped"}
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        match = _METRIC_LINE.match(line)
        assert match is not None, f"unparseable sample line: {line}"
        labels = frozenset(
            tuple(part.split("=", 1))
            for part in (match.group("labels") or "").split(",")
            if part
        )
        value = float(match.group("value"))
        assert math.isfinite(value)
        metrics.setdefault(match.group("name"), {})[labels] = value
    return {"metrics": metrics, "types": types}


def populated_registry() -> TelemetryRegistry:
    registry = TelemetryRegistry()
    registry.counter("dram.row_hits", help="row buffer hits").inc(7)
    registry.gauge("sim.controller_error_gbps").set(-0.25)
    histogram = registry.histogram("dram.write_queue_occupancy", bounds=(1.0, 4.0))
    for value in (0.0, 2.0, 3.0, 9.0):
        histogram.observe(value)
    with registry.span("bench.characterize", category="bench", family="x"):
        pass
    registry.event("runner.result_cache_hit", id="fig2")
    registry.sample("sim.window", ts_us=10.0, cpu_bw_gbps=12.0)
    registry.sample("sim.window", ts_us=20.0, cpu_bw_gbps=14.0)
    return registry


class TestChromeTrace:
    def test_document_is_valid_trace_event_json(self, tmp_path):
        registry = populated_registry()
        path = tmp_path / "trace.json"
        write_chrome_trace(registry, path)
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        phases = {"M", "X", "i", "C", "B", "E", "b", "e", "s", "t", "f"}
        for entry in document["traceEvents"]:
            assert entry["ph"] in phases
            assert isinstance(entry["pid"], int)
            if entry["ph"] in {"X", "i", "C"}:
                assert isinstance(entry["ts"], (int, float))
            if entry["ph"] == "X":
                assert entry["dur"] >= 0.0

    def test_span_timestamps_rebased_to_zero(self):
        document = chrome_trace(populated_registry())
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert spans and min(span["ts"] for span in spans) == pytest.approx(0.0)

    def test_sim_samples_live_on_their_own_pid(self):
        document = chrome_trace(populated_registry())
        counter_events = [e for e in document["traceEvents"] if e["ph"] == "C"]
        span_events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in counter_events} == {2}
        assert {e["pid"] for e in span_events} == {1}
        assert counter_events[0]["args"] == {"cpu_bw_gbps": 12.0}

    def test_empty_registry_still_valid(self):
        document = chrome_trace(TelemetryRegistry())
        assert all(e["ph"] == "M" for e in document["traceEvents"])


class TestPrometheus:
    def test_export_parses(self):
        parsed = parse_prometheus(prometheus_text(populated_registry()))
        assert parsed["metrics"]["repro_dram_row_hits_total"] == {
            frozenset(): 7.0
        }
        assert parsed["types"]["repro_dram_row_hits_total"] == "counter"
        assert parsed["metrics"]["repro_sim_controller_error_gbps"] == {
            frozenset(): -0.25
        }

    def test_histogram_buckets_cumulative(self):
        parsed = parse_prometheus(prometheus_text(populated_registry()))
        buckets = parsed["metrics"]["repro_dram_write_queue_occupancy_bucket"]
        assert buckets[frozenset({("le", '"1"')})] == 1.0
        assert buckets[frozenset({("le", '"4"')})] == 3.0
        assert buckets[frozenset({("le", '"+Inf"')})] == 4.0
        counts = parsed["metrics"]["repro_dram_write_queue_occupancy_count"]
        assert counts[frozenset()] == 4.0
        sums = parsed["metrics"]["repro_dram_write_queue_occupancy_sum"]
        assert sums[frozenset()] == 14.0

    def test_metric_name_sanitization(self):
        assert metric_name("dram.row_hits") == "repro_dram_row_hits"
        assert metric_name("weird name!") == "repro_weird_name_"
        assert metric_name("repro_already") == "repro_already"

    def test_empty_registry_exports_empty(self):
        assert prometheus_text(TelemetryRegistry()) == ""


class TestSummarize:
    def test_round_trip_equals_registry_summary(self, tmp_path):
        registry = populated_registry()
        path = tmp_path / "trace.json"
        write_chrome_trace(registry, path)
        series = {
            "sim.window": {
                "samples": 2,
                "first_ts_us": 10.0,
                "last_ts_us": 20.0,
                "values": {
                    "cpu_bw_gbps": {"min": 12.0, "max": 14.0, "last": 14.0}
                },
            }
        }
        assert summarize_file(path) == {**registry.summary(), "series": series}

    def test_merged_registries_round_trip(self, tmp_path):
        merged = TelemetryRegistry()
        merged.merge_dict(populated_registry().to_dict())
        merged.merge_dict(populated_registry().to_dict())
        path = tmp_path / "trace.json"
        write_chrome_trace(merged, path)
        summary = summarize_file(path)
        assert summary["counters"] == {"dram.row_hits": 14}
        assert summary["histograms"]["dram.write_queue_occupancy"]["count"] == 8
        assert summary["spans"]["bench.characterize"]["count"] == 2
        assert summary == {**merged.summary(), "series": summary["series"]}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            prometheus_text(populated_registry()),
            '{"type": "instrument", "kind": "counter"}\n{"type": "span"}\n',
            "[1, 2]",
            '{"counters": {}}',
            '{"traceEvents": {}}',
            '{"traceEvents": [], "otherData": []}',
            '{"traceEvents": [1]}',
            '{"traceEvents": [{"ph": "X", "name": "a", "ts": 0}]}',
            '{"traceEvents": [{"ph": "C", "name": "s", "ts": 0, "args": {"v": "x"}}]}',
            '{"traceEvents": [], "otherData": {"instruments": {"c": {"kind": "?"}}}}',
            '{"traceEvents": [], "otherData": {"instruments": [1]}}',
        ],
        ids=[
            "empty",
            "prometheus",
            "jsonl",
            "array",
            "no-trace-events",
            "trace-events-object",
            "other-data-list",
            "event-not-object",
            "span-without-dur",
            "sample-not-numeric",
            "unknown-instrument-kind",
            "instruments-list",
        ],
    )
    def test_not_a_trace_is_a_one_line_error(self, tmp_path, text):
        path = tmp_path / "telemetry.json"
        path.write_text(text)
        with pytest.raises(TelemetryError) as caught:
            summarize_file(path)
        assert "\n" not in str(caught.value)
