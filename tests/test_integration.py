"""End-to-end integration: the full Mess workflow on a tiny platform.

The quickstart pipeline as a test: characterize a cycle-level memory
system, derive metrics, serialize the curves, feed them to the Mess
simulator, and verify the simulated machine behaves like the measured
one — the framework's central claim, at test scale.
"""

from __future__ import annotations

import pytest

from repro import (
    CurveFamily,
    MessBenchmark,
    MessBenchmarkConfig,
    MessMemorySimulator,
    compute_metrics,
)
from repro.cpu import System
from repro.dram import DDR4_2666
from repro.memmodels import CycleAccurateModel
from repro.workloads import LmbenchLatency, StreamWorkload


@pytest.fixture(scope="module")
def measured(tiny_system_config_module):
    bench = MessBenchmark(
        system_config=tiny_system_config_module,
        memory_factory=lambda: CycleAccurateModel(
            DDR4_2666, channels=2, write_queue_depth=48
        ),
        config=MessBenchmarkConfig(
            store_fractions=(0.0, 1.0),
            nop_counts=(0, 150, 1000),
            warmup_ns=2500.0,
            measure_ns=6000.0,
            chase_array_bytes=4 * 1024 * 1024,
            traffic_array_bytes=2 * 1024 * 1024,
        ),
        name="integration",
        theoretical_bandwidth_gbps=2 * DDR4_2666.channel_peak_gbps,
    )
    return bench, bench.run()


@pytest.fixture(scope="module")
def tiny_system_config_module():
    from repro.cpu import CacheConfig, HierarchyConfig, SystemConfig

    return SystemConfig(
        cores=4,
        hierarchy=HierarchyConfig(
            l1=CacheConfig(8 * 1024, 4, 1.5),
            l2=CacheConfig(32 * 1024, 4, 5.0),
            l3=CacheConfig(128 * 1024, 8, 18.0),
            noc_latency_ns=45.0,
        ),
        mshrs=8,
    )


class TestEndToEnd:
    def test_characterization_produces_sane_family(self, measured):
        _, family = measured
        metrics = compute_metrics(family)
        assert 80 < metrics.unloaded_latency_ns < 250
        assert metrics.max_latency_max_ns > metrics.unloaded_latency_ns
        assert 0 < family.max_bandwidth_gbps <= 2 * DDR4_2666.channel_peak_gbps

    def test_family_roundtrips_through_disk(self, measured, tmp_path):
        _, family = measured
        path = tmp_path / "family.json"
        family.to_json(path)
        loaded = CurveFamily.from_json(path)
        assert loaded.read_ratios == family.read_ratios
        probe_bw = 0.5 * family.max_bandwidth_gbps
        assert loaded.latency_at(probe_bw, 1.0) == pytest.approx(
            family.latency_at(probe_bw, 1.0)
        )

    def test_mess_simulated_machine_matches_measured_one(
        self, measured, tiny_system_config_module
    ):
        """The paper's core claim, at test scale (cf. Figure 11)."""
        _, family = measured
        overhead = tiny_system_config_module.hierarchy.total_hit_path_ns

        def run_workloads(memory_factory):
            latency = LmbenchLatency(
                array_bytes=4 * 1024 * 1024, chase_ops=800
            ).run(System(tiny_system_config_module, memory_factory()))
            bandwidth = StreamWorkload(
                kernel="triad", lines_per_core=2500
            ).run(System(tiny_system_config_module, memory_factory()))
            return latency, bandwidth

        actual_lat, actual_bw = run_workloads(
            lambda: CycleAccurateModel(DDR4_2666, channels=2, write_queue_depth=48)
        )
        mess_lat, mess_bw = run_workloads(
            lambda: MessMemorySimulator(family, cpu_overhead_ns=overhead)
        )
        assert mess_lat == pytest.approx(actual_lat, rel=0.15)
        assert mess_bw == pytest.approx(actual_bw, rel=0.30)

    def test_write_allocate_visible_in_measured_ratios(self, measured):
        bench, _ = measured
        store_points = [p for p in bench.points if p.store_fraction == 1.0]
        assert all(
            p.measured_read_ratio == pytest.approx(0.5, abs=0.06)
            for p in store_points
        )
