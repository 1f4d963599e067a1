"""Tests for the benchmark extensions: streaming stores and strides.

The paper's footnote 1 (x86 non-temporal stores opening the sub-50%-read
traffic space) and Section IV-D's strided access pattern.
"""

from __future__ import annotations

import itertools

import pytest

from repro.bench.harness import MessBenchmark, MessBenchmarkConfig
from repro.bench.traffic_gen import (
    TrafficGenConfig,
    read_ratio_for_store_fraction,
    traffic_gen_ops,
)
from repro.cpu.core import MemOp
from repro.cpu.system import System
from repro.dram.timing import DDR4_2666
from repro.errors import BenchmarkError
from repro.memmodels.cycle_accurate import CycleAccurateModel


class TestNonTemporalMath:
    @pytest.mark.parametrize(
        "store_fraction,expected", [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    )
    def test_nt_ratio(self, store_fraction, expected):
        assert read_ratio_for_store_fraction(
            store_fraction, non_temporal=True
        ) == pytest.approx(expected)

    def test_nt_reaches_below_write_allocate_floor(self):
        nt = read_ratio_for_store_fraction(1.0, non_temporal=True)
        wa = read_ratio_for_store_fraction(1.0, non_temporal=False)
        assert nt == 0.0
        assert wa == 0.5


class TestNonTemporalOps:
    def test_stores_flagged_non_temporal(self):
        config = TrafficGenConfig(
            store_fraction=1.0, nop_count=0, non_temporal_stores=True
        )
        ops = list(itertools.islice(traffic_gen_ops(config, 0, 1 << 30), 8))
        assert all(op.non_temporal for op in ops)

    def test_loads_never_flagged(self):
        config = TrafficGenConfig(
            store_fraction=0.5, nop_count=0, non_temporal_stores=True
        )
        ops = list(itertools.islice(traffic_gen_ops(config, 0, 1 << 30), 16))
        loads = [op for op in ops if not op.is_store]
        assert loads and all(not op.non_temporal for op in loads)

    def test_nt_store_bypasses_caches(self, tiny_system_config):
        system = System(
            tiny_system_config, CycleAccurateModel(DDR4_2666, channels=2)
        )
        ops = iter([MemOp(0, is_store=True, non_temporal=True)])
        system.add_workload(0, ops)
        result = system.run()
        # one memory WRITE, no read-for-ownership, nothing cached
        assert result.memory_writes == 1
        assert result.memory_reads == 0
        assert not system.hierarchy.l3.contains(0)

    def test_nt_benchmark_measures_pure_write_traffic(self, tiny_system_config):
        config = MessBenchmarkConfig(
            store_fractions=(1.0,),
            nop_counts=(0,),
            warmup_ns=1500.0,
            measure_ns=4000.0,
            chase_array_bytes=4 * 1024 * 1024,
            traffic_array_bytes=2 * 1024 * 1024,
            non_temporal_stores=True,
        )
        bench = MessBenchmark(
            system_config=tiny_system_config,
            memory_factory=lambda: CycleAccurateModel(DDR4_2666, channels=2),
            config=config,
        )
        family = bench.run()
        assert family.read_ratios == [0.0]
        assert bench.points[0].measured_read_ratio < 0.05


class TestStride:
    def test_stride_spaces_addresses(self):
        config = TrafficGenConfig(
            store_fraction=0.0, nop_count=0, stride_lines=128
        )
        ops = list(itertools.islice(traffic_gen_ops(config, 0, 1 << 30), 3))
        assert ops[1].address - ops[0].address == 128 * 64

    def test_row_stride_degrades_row_locality(self):
        """Section IV-D: a new-row-per-access stride thrashes buffers."""

        def hit_rate(stride):
            model = CycleAccurateModel(
                DDR4_2666, channels=1, interleave_bytes=64
            )
            config = TrafficGenConfig(
                store_fraction=0.0, nop_count=0, stride_lines=stride
            )
            ops = traffic_gen_ops(config, 0, 1 << 30)
            from repro.request import AccessType, MemoryRequest

            for index, op in enumerate(itertools.islice(ops, 2000)):
                model.access(
                    MemoryRequest(op.address, AccessType.READ, index * 2.0)
                )
            return model.row_buffer_stats().rates()[0]

        lines_per_row = DDR4_2666.row_bytes // 64
        assert hit_rate(1) > hit_rate(lines_per_row) + 0.3

    def test_invalid_stride(self):
        with pytest.raises(BenchmarkError):
            TrafficGenConfig(store_fraction=0.0, nop_count=0, stride_lines=0)
