"""Integration tests for the full-system Mess benchmark harness."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.bench.harness import MessBenchmark, MessBenchmarkConfig
from repro.cpu.hierarchy import MemoryHierarchy
from repro.errors import BenchmarkError
from repro.memmodels.fixed import FixedLatencyModel
from repro.memmodels.cycle_accurate import CycleAccurateModel
from repro.dram.timing import DDR4_2666


@pytest.fixture
def tiny_sweep():
    return MessBenchmarkConfig(
        store_fractions=(0.0, 1.0),
        nop_counts=(0, 200),
        warmup_ns=1500.0,
        measure_ns=4000.0,
        chase_array_bytes=4 * 1024 * 1024,
        traffic_array_bytes=2 * 1024 * 1024,
    )


@pytest.fixture
def bench(tiny_system_config, tiny_sweep):
    return MessBenchmark(
        system_config=tiny_system_config,
        memory_factory=lambda: CycleAccurateModel(DDR4_2666, channels=2),
        config=tiny_sweep,
        name="tiny",
        theoretical_bandwidth_gbps=2 * DDR4_2666.channel_peak_gbps,
    )


class TestConfigValidation:
    def test_empty_sweeps_rejected(self):
        with pytest.raises(BenchmarkError):
            MessBenchmarkConfig(store_fractions=(), nop_counts=(0,))

    def test_invalid_windows_rejected(self):
        with pytest.raises(BenchmarkError):
            MessBenchmarkConfig(measure_ns=0)


class TestCharacterization:
    def test_produces_family_with_requested_ratios(self, bench):
        family = bench.run()
        assert family.read_ratios == [0.5, 1.0]
        assert family.name == "tiny"
        assert family.theoretical_bandwidth_gbps == pytest.approx(42.656)

    def test_pressure_orders_points(self, bench):
        family = bench.run()
        for curve in family:
            # lower pressure (more nops) comes first and achieves less
            # bandwidth than full pressure
            assert curve.bandwidth_gbps[0] < curve.bandwidth_gbps[-1]

    def test_measured_write_allocate_ratio(self, bench):
        bench.run()
        full_store_points = [
            p for p in bench.points if p.store_fraction == 1.0 and p.nop_count == 0
        ]
        assert full_store_points[0].measured_read_ratio == pytest.approx(
            0.5, abs=0.05
        )

    def test_pure_load_ratio(self, bench):
        bench.run()
        read_points = [p for p in bench.points if p.store_fraction == 0.0]
        assert all(
            p.measured_read_ratio == pytest.approx(1.0, abs=0.01)
            for p in read_points
        )

    def test_latency_rises_with_pressure(self, bench):
        family = bench.run()
        curve = family[1.0]
        assert curve.latency_ns[-1] >= curve.latency_ns[0]

    def test_no_progress_raises(self, tiny_system_config):
        config = MessBenchmarkConfig(
            store_fractions=(0.0,),
            nop_counts=(0,),
            warmup_ns=1.0,
            measure_ns=0.5,  # far too short for a single chase load
            chase_array_bytes=4 * 1024 * 1024,
            traffic_array_bytes=2 * 1024 * 1024,
        )
        bench = MessBenchmark(
            system_config=tiny_system_config,
            memory_factory=lambda: FixedLatencyModel(latency_ns=100.0),
            config=config,
        )
        with pytest.raises(BenchmarkError, match="no progress"):
            bench.run()

    def test_point_system_freed_by_refcount(self, bench, monkeypatch):
        """A measured point's system dies without the cyclic collector."""
        built = []
        original = MemoryHierarchy.__init__

        def record(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(MemoryHierarchy, "__init__", record)
        gc.collect()
        gc.disable()
        try:
            bench.measure_point(1.0, 200)
            assert len(built) == 1
            assert built[0]() is None
        finally:
            gc.enable()
