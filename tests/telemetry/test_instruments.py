"""Unit tests for telemetry instruments and the registry."""

from __future__ import annotations

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    TelemetryRegistry,
)
from repro.telemetry import registry as telemetry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(TelemetryError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_bucketing_is_inclusive_upper_bound(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(27.5)
        assert histogram.mean == pytest.approx(5.5)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(TelemetryError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(TelemetryError):
            Histogram("h", bounds=())


class TestRegistryInstruments:
    def test_get_or_create_returns_same_object(self):
        registry = TelemetryRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = TelemetryRegistry()
        registry.counter("a")
        with pytest.raises(TelemetryError):
            registry.gauge("a")

    def test_span_event_sample_recorded(self):
        registry = TelemetryRegistry()
        with registry.span("work", category="test", item=3):
            pass
        registry.event("happened", detail="x")
        registry.sample("series", ts_us=12.5, value=1.0)
        assert registry.spans[0].name == "work"
        assert registry.spans[0].dur_us >= 0.0
        assert registry.spans[0].attrs == {"item": 3}
        assert registry.events[0].name == "happened"
        assert registry.samples[0].values == {"value": 1.0}

    def test_record_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(telemetry, "MAX_RECORDS", 2)
        registry = TelemetryRegistry()
        for index in range(5):
            registry.event(f"e{index}")
        assert len(registry.events) == 2
        assert registry.dropped == 3

    def test_span_recorded_even_when_body_raises(self):
        registry = TelemetryRegistry()
        with pytest.raises(ValueError):
            with registry.span("boom"):
                raise ValueError("x")
        assert [span.name for span in registry.spans] == ["boom"]


class TestMergeAndSummary:
    def test_merge_accumulates_counters_and_histograms(self):
        source = TelemetryRegistry()
        source.counter("c").inc(3)
        source.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        source.gauge("g").set(7.0)
        source.sample("s", ts_us=1.0, v=2.0)
        with source.span("sp"):
            pass

        target = TelemetryRegistry()
        target.counter("c").inc(1)
        target.merge_dict(source.to_dict())
        target.merge_dict(source.to_dict())
        assert target.counter("c").value == 7
        assert target.histogram("h", bounds=(1.0, 2.0)).count == 2
        assert target.gauge("g").value == 7.0
        assert len(target.samples) == 2
        assert len(target.spans) == 2

    def test_merge_rejects_garbage(self):
        registry = TelemetryRegistry()
        with pytest.raises(TelemetryError):
            registry.merge_dict({"instruments": {"x": {"kind": "nope"}}})

    def test_summary_shape(self):
        registry = TelemetryRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(3.0)
        with registry.span("sp"):
            pass
        summary = registry.summary()
        assert summary["counters"] == {"c": 2}
        assert summary["histograms"]["h"]["count"] == 1
        assert summary["spans"]["sp"]["count"] == 1
        assert summary["spans"]["sp"]["max_us"] >= 0.0


class TestActivation:
    def test_activate_deactivate_roundtrip(self):
        assert telemetry.active() is None
        try:
            registry = telemetry.activate()
            assert telemetry.active() is registry
        finally:
            telemetry.deactivate()
        assert telemetry.active() is None
