"""Tests for the benchmark machines and named scenario presets."""

from __future__ import annotations

import pytest

from repro.scenario import (
    BENCH_HIERARCHY,
    bench_sweep,
    bench_system,
    preset_scenario,
    substrate,
)


class TestSystemConfigs:
    def test_default_bench_system(self):
        config = bench_system()
        assert config.cores == 24
        assert not config.in_order

    def test_in_order_variant(self):
        config = bench_system(cores=8, in_order=True)
        assert config.effective_mshrs == 2

    def test_hierarchy_overhead_is_cpu_side_latency(self):
        assert BENCH_HIERARCHY.total_hit_path_ns == pytest.approx(69.5)


class TestSubstrates:
    def test_skylake_substrate_configuration(self):
        spec = preset_scenario("skylake-substrate").to_spec()
        assert spec["memory"]["kind"] == "cycle-accurate"
        assert spec["memory"]["params"]["channels"] == 6
        assert spec["memory"]["params"]["timing"]["name"] == "DDR4-2666"

    def test_graviton_substrate(self):
        spec = preset_scenario("graviton-substrate").to_spec()
        assert spec["memory"]["params"]["timing"]["name"] == "DDR5-4800"

    def test_substrate_channel_count(self):
        spec = substrate("hbm-8ch", "HBM2", channels=8).to_spec()
        assert spec["memory"]["params"]["channels"] == 8

    def test_substrate_builds_a_working_model(self):
        scenario = preset_scenario("skylake-substrate")
        model = scenario.materialize().memory_factory()
        assert model.controller.channels == 6
        assert model.controller.timing.name == "DDR4-2666"


class TestSweepScaling:
    def test_default_scale_sweep(self):
        sweep = bench_sweep(1.0)
        assert len(sweep.store_fractions) == 3
        assert len(sweep.nop_counts) == 5

    def test_high_scale_densifies(self):
        small = bench_sweep(1.0)
        large = bench_sweep(2.0)
        assert len(large.store_fractions) > len(small.store_fractions)
        assert len(large.nop_counts) > len(small.nop_counts)
