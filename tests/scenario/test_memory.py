"""Tests for the declarative memory-model registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenario.memory import (
    build_memory,
    canonical_memory_spec,
    default_theoretical_gbps,
    memory_factory,
    memory_kinds,
    validate_memory_spec,
)


class TestRegistry:
    def test_all_models_registered(self):
        kinds = memory_kinds()
        for expected in (
            "cycle-accurate",
            "fixed-latency",
            "md1",
            "internal-ddr",
            "gem5-simple",
            "dramsim3-analog",
            "ramulator-analog",
            "ramulator2-analog",
            "cxl-expander",
            "optane",
            "remote-socket",
            "mess",
        ):
            assert expected in kinds

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown memory kind"):
            build_memory("sram", {})

    def test_unknown_param_rejected(self):
        problems = validate_memory_spec("fixed-latency", {"bogus": 1})
        assert problems and "bogus" in problems[0]


class TestCanonicalization:
    def test_timing_preset_expands_to_full_object(self):
        by_name = canonical_memory_spec(
            "cycle-accurate", {"timing": "DDR4-2666", "channels": 6}
        )
        by_dict = canonical_memory_spec(
            "cycle-accurate",
            {"timing": {"preset": "DDR4-2666"}, "channels": 6},
        )
        assert by_name == by_dict
        assert by_name["params"]["timing"]["name"] == "DDR4-2666"

    def test_mess_requires_curves(self):
        with pytest.raises(ConfigurationError, match="curves"):
            canonical_memory_spec("mess", {})


class TestBuild:
    def test_builds_cycle_accurate(self):
        model = build_memory(
            "cycle-accurate", {"timing": "DDR4-2666", "channels": 2}
        )
        assert model.controller.channels == 2

    def test_factory_returns_fresh_models(self):
        factory = memory_factory("fixed-latency", {"latency_ns": 50.0})
        assert factory() is not factory()

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("fixed-latency", {"latency_ns": "abc"}),
            ("cycle-accurate", {}),
        ],
        ids=["wrongly-typed-latency", "missing-timing"],
    )
    def test_bad_parameter_is_a_typed_error(self, kind, params):
        with pytest.raises(ConfigurationError, match=f"memory kind '{kind}'"):
            build_memory(kind, params)
        with pytest.raises(ConfigurationError, match=f"memory kind '{kind}'"):
            memory_factory(kind, params)

    @pytest.mark.parametrize("params", [True, "x", 0, []])
    def test_params_that_are_no_object_are_a_typed_error(self, params):
        with pytest.raises(ConfigurationError, match="expected an object"):
            memory_factory("fixed-latency", params)

    def test_mess_platform_curves(self):
        model = build_memory(
            "mess",
            {"curves": {"platform": "Intel Skylake Xeon Platinum"}},
        )
        assert model is not None


class TestTheoreticalDefaults:
    def test_cycle_accurate_uses_timing_peak(self):
        value = default_theoretical_gbps(
            "cycle-accurate", {"timing": "DDR4-2666", "channels": 6}
        )
        assert value == pytest.approx(127.968)

    def test_explicit_peak_param_wins(self):
        value = default_theoretical_gbps(
            "md1", {"peak_bandwidth_gbps": 99.0, "unloaded_latency_ns": 80.0}
        )
        assert value == pytest.approx(99.0)
