"""Unit tests for the Mess analytical memory simulator."""

from __future__ import annotations

import pytest

from repro.core.simulator import MessMemorySimulator, drive_fixed_rate
from repro.errors import ConfigurationError
from repro.request import AccessType, MemoryRequest
from repro.telemetry import registry as telemetry


def drive(simulator, gap_ns, ops, read_every=1):
    """Open-loop fixed-rate request stream; returns every latency."""
    now = 0.0
    latencies = []
    for index in range(ops):
        access = (
            AccessType.READ if index % read_every == 0 else AccessType.WRITE
        )
        latencies.append(
            simulator.access(MemoryRequest((index % 4096) * 64, access, now))
        )
        now += gap_ns
    return latencies


def window_samples(registry):
    """The ``sim.window`` samples a registry collected, in order."""
    return [sample for sample in registry.samples if sample.series == "sim.window"]


class TestConfiguration:
    def test_invalid_window(self, small_family):
        with pytest.raises(ConfigurationError):
            MessMemorySimulator(small_family, window_ops=0)

    def test_invalid_overhead(self, small_family):
        with pytest.raises(ConfigurationError):
            MessMemorySimulator(small_family, cpu_overhead_ns=-1)

    def test_invalid_min_latency(self, small_family):
        with pytest.raises(ConfigurationError):
            MessMemorySimulator(small_family, min_latency_ns=0)

    def test_name(self, small_family):
        assert MessMemorySimulator(small_family).name == "mess"


class TestFeedbackLoop:
    def test_starts_at_unloaded_latency(self, small_family):
        simulator = MessMemorySimulator(small_family)
        assert simulator.current_latency_ns == pytest.approx(
            small_family.latency_at(0.0, 1.0)
        )

    def test_converges_to_offered_bandwidth(self, small_family):
        simulator = MessMemorySimulator(small_family, window_ops=200)
        drive(simulator, gap_ns=1.0, ops=8000)  # offered: 64 GB/s
        assert simulator.controller.updates == 40
        assert simulator.current_position_gbps == pytest.approx(64.0, rel=0.1)

    def test_latency_follows_curve_at_position(self, small_family):
        simulator = MessMemorySimulator(small_family, window_ops=200)
        drive(simulator, gap_ns=1.0, ops=8000)
        expected = small_family.latency_at(64.0, 1.0)
        assert simulator.current_latency_ns == pytest.approx(expected, rel=0.15)

    def test_cpu_overhead_subtracted(self, small_family):
        plain = MessMemorySimulator(small_family, window_ops=200)
        adjusted = MessMemorySimulator(
            small_family, window_ops=200, cpu_overhead_ns=50.0
        )
        drive(plain, 2.0, 3000)
        drive(adjusted, 2.0, 3000)
        assert plain.current_latency_ns - adjusted.current_latency_ns == (
            pytest.approx(50.0, abs=1.0)
        )

    def test_min_latency_floor(self, small_family):
        simulator = MessMemorySimulator(
            small_family, cpu_overhead_ns=10_000.0, min_latency_ns=3.0
        )
        drive(simulator, 5.0, 1500)
        assert simulator.current_latency_ns >= 3.0

    def test_ratio_selects_curve(self, small_family):
        # 50/50 traffic must read latency from the write-heavy curve
        read_only = MessMemorySimulator(small_family, window_ops=200)
        mixed = MessMemorySimulator(small_family, window_ops=200)
        drive(read_only, gap_ns=1.5, ops=6000)
        drive(mixed, gap_ns=1.5, ops=6000, read_every=2)
        assert mixed.current_latency_ns > read_only.current_latency_ns

    def test_capacity_pipe_bounds_bandwidth(self, small_family):
        # demand far beyond the curve peak: completions must not imply
        # more bandwidth than the family's maximum
        simulator = MessMemorySimulator(small_family, window_ops=200)
        now = 0.0
        last_completion = 0.0
        ops = 20000
        for index in range(ops):
            latency = simulator.access(
                MemoryRequest((index % 4096) * 64, AccessType.READ, now)
            )
            last_completion = max(last_completion, now + latency)
            now += 0.1  # offered 640 GB/s
        achieved = ops * 64 / last_completion
        assert achieved <= small_family.max_bandwidth_gbps * 1.1

    def test_window_record_telemetry(self, small_family):
        registry = telemetry.activate()
        try:
            simulator = MessMemorySimulator(small_family, window_ops=100)
            drive(simulator, 1.0, 1000)
        finally:
            telemetry.deactivate()
        samples = window_samples(registry)
        assert len(samples) == simulator.controller.updates == 10
        first = samples[0]
        assert first.values["read_ratio"] == 1.0
        assert 0.0 < first.ts_us < samples[1].ts_us
        last = samples[-1].values
        assert last["mess_bw_gbps"] == simulator.current_position_gbps
        assert last["latency_ns"] == simulator.current_latency_ns

    def test_notify_window_forces_iteration(self, small_family):
        simulator = MessMemorySimulator(small_family, window_ops=10_000)
        drive(simulator, 1.0, 500)
        assert simulator.controller.updates == 0
        simulator.notify_window(10_000.0)
        assert simulator.controller.updates == 1
        assert simulator.current_position_gbps > 0.0

    def test_reset_restores_initial_state(self, small_family):
        simulator = MessMemorySimulator(small_family, window_ops=100)
        drive(simulator, 0.5, 5000)
        assert simulator.current_position_gbps > 0
        simulator.reset()
        assert simulator.current_position_gbps == 0.0
        assert simulator.stats.accesses == 0
        assert simulator.current_latency_ns == pytest.approx(
            small_family.latency_at(0.0, 1.0)
        )

    def test_degenerate_window_does_not_crash(self, small_family):
        simulator = MessMemorySimulator(small_family, window_ops=5)
        for index in range(20):  # all at the same instant
            simulator.access(MemoryRequest(index * 64, AccessType.READ, 0.0))
        assert simulator.stats.accesses == 20


class TestTelemetry:
    def test_null_sink_without_active_registry(self, small_family):
        assert telemetry.active() is None
        assert MessMemorySimulator(small_family)._tel is None

    def test_active_registry_counts_without_changing_results(
        self, small_family
    ):
        def run():
            simulator = MessMemorySimulator(small_family, window_ops=100)
            return simulator, drive(simulator, 0.5, 1000, read_every=3)

        plain, plain_latencies = run()
        registry = telemetry.activate()
        try:
            observed, observed_latencies = run()
        finally:
            telemetry.deactivate()
        assert observed._tel is registry
        assert registry.counter("sim.requests").value == 1000
        windows = registry.counter("sim.windows").value
        assert windows == observed.controller.updates == 10
        assert len(window_samples(registry)) == 10
        assert observed_latencies == plain_latencies
        assert observed.stats == plain.stats
        assert observed.current_position_gbps == plain.current_position_gbps


class TestDriveFixedRate:
    def test_estimates_are_the_window_samples(self, small_family):
        plain = drive_fixed_rate(
            MessMemorySimulator(small_family, window_ops=100), 1.0, 2500
        )
        registry = telemetry.activate()
        try:
            simulator = MessMemorySimulator(small_family, window_ops=100)
            estimates = drive_fixed_rate(simulator, 1.0, 2500)
        finally:
            telemetry.deactivate()
        assert registry.counter("sim.requests").value == 2500
        assert len(estimates) == 25
        assert estimates == [
            sample.values["mess_bw_gbps"] for sample in window_samples(registry)
        ]
        assert estimates == plain

    def test_one_estimate_per_completed_window(self, small_family):
        simulator = MessMemorySimulator(small_family, window_ops=100)
        estimates = drive_fixed_rate(simulator, 1.0, 317)  # ragged tail
        assert len(estimates) == simulator.controller.updates == 3
        assert estimates[-1] == simulator.current_position_gbps
        assert (simulator.stats.reads, simulator.stats.writes) == (317, 0)
        # a window issued at one instant is degenerate: no control update
        stalled = MessMemorySimulator(small_family, window_ops=100)
        assert drive_fixed_rate(stalled, 0.0, 300) == []
        assert stalled.controller.updates == 0
