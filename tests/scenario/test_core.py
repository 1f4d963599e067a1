"""Tests for Scenario: round-trip, validation, overrides, materialize."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import MessBenchmarkConfig
from repro.errors import ConfigurationError
from repro.scenario import (
    characterization,
    load_scenario,
    preset_scenario,
    scenario_ids,
)
from repro.scenario.core import FORMAT_KEY, Scenario
from repro.serve.service import BadRequestError, parse_request


def _tiny(name: str = "tiny") -> Scenario:
    return characterization(
        name=name,
        memory_kind="fixed-latency",
        memory_params={"latency_ns": 60.0},
        cores=2,
        sweep=MessBenchmarkConfig(
            store_fractions=(0.0, 1.0),
            nop_counts=(0, 600),
            warmup_ns=500.0,
            measure_ns=1500.0,
            chase_array_bytes=512 * 1024,
            traffic_array_bytes=512 * 1024,
        ),
    )


class TestRoundTrip:
    def test_spec_round_trip_preserves_digest(self):
        for name in scenario_ids():
            scenario = preset_scenario(name)
            rebuilt = Scenario.from_spec(scenario.to_spec())
            assert rebuilt.digest() == scenario.digest()

    def test_spec_survives_json_serialization(self):
        scenario = preset_scenario("skylake-substrate")
        payload = json.loads(json.dumps(scenario.to_spec()))
        assert Scenario.from_spec(payload).digest() == scenario.digest()

    def test_spec_carries_format_marker(self):
        assert preset_scenario("hbm-substrate").to_spec()[FORMAT_KEY] == 1

    def test_description_excluded_from_digest(self):
        a = _tiny()
        b = Scenario.from_spec({**a.to_spec(), "description": "different"})
        assert a.digest() == b.digest()

    def test_unknown_top_level_key_rejected(self):
        payload = {**_tiny().to_spec(), "bogus": 1}
        with pytest.raises(ConfigurationError, match="bogus"):
            Scenario.from_spec(payload)

    def test_wrong_format_version_rejected(self):
        payload = {**_tiny().to_spec(), FORMAT_KEY: 99}
        with pytest.raises(ConfigurationError, match="repro_scenario"):
            Scenario.from_spec(payload)


def _experiment_spec(scale) -> dict:
    spec = Scenario.for_experiment("fig2").to_spec()
    spec["workload"]["scale"] = scale
    return spec


def _characterize_spec(memory=None, **top) -> dict:
    spec = {**_tiny().to_spec(), **top}
    if memory is not None:
        spec["memory"] = memory
    return spec


_SKYLAKE = {"platform": "Intel Skylake Xeon Platinum"}

#: Malformed specs, each with the part of the error that names its fault.
MALFORMED = [
    pytest.param(_experiment_spec("abc"), "workload.scale", id="scale-string"),
    pytest.param(_experiment_spec([1]), "workload.scale", id="scale-list"),
    pytest.param(_experiment_spec(None), "workload.scale", id="scale-null"),
    pytest.param(_experiment_spec(True), "workload.scale", id="scale-bool"),
    pytest.param(
        _experiment_spec(json.loads("Infinity")), "workload.scale", id="scale-inf"
    ),
    pytest.param(_experiment_spec(float("nan")), "workload.scale", id="scale-nan"),
    *(
        pytest.param(
            _characterize_spec(theoretical_bandwidth_gbps=peak),
            "theoretical_bandwidth_gbps",
            id=f"peak-{label}",
        )
        for label, peak in (
            ("bool", True), ("nan", float("nan")), ("zero", 0), ("negative", -5)
        )
    ),
    pytest.param(
        _characterize_spec(
            {"kind": "fixed-latency", "params": {"latency_ns": "abc"}}
        ),
        "memory kind 'fixed-latency'",
        id="latency-string",
    ),
    pytest.param(
        _characterize_spec(
            {"kind": "mess", "params": {"curves": _SKYLAKE, "window_ops": None}}
        ),
        "memory kind 'mess'",
        id="window-null",
    ),
    pytest.param(
        _characterize_spec({"kind": "cycle-accurate", "params": {}}),
        "timing",
        id="no-timing",
    ),
    pytest.param(
        _characterize_spec(
            {"kind": "mess", "params": {"curves": _SKYLAKE, "keep_history": True}}
        ),
        r"unknown parameter\(s\) \['keep_history'\]",
        id="keep-history",
    ),
]


class TestValidation:
    @pytest.mark.parametrize("spec, fault", MALFORMED)
    def test_malformed_spec_is_a_typed_error(self, spec, fault):
        with pytest.raises(ConfigurationError, match=fault):
            Scenario.from_spec(spec)
        kind = spec["workload"]["kind"]
        verb = "characterize" if kind == "characterize" else "simulate"
        with pytest.raises(BadRequestError, match=fault) as caught:
            parse_request(verb, spec)
        assert caught.value.status == 400

    def test_presets_validate_clean(self):
        for name in scenario_ids():
            assert preset_scenario(name).validate() == []

    def test_characterize_requires_memory(self):
        scenario = Scenario(name="no-memory")
        problems = scenario.validate()
        assert problems and "memory" in problems[0]

    def test_experiment_workload_validates_id(self):
        scenario = Scenario.for_experiment("nonexistent")
        problems = scenario.validate()
        assert any("nonexistent" in problem for problem in problems)

    def test_experiment_workload_rejects_system_section(self):
        scenario = Scenario.for_experiment("fig2")
        payload = scenario.to_spec()
        payload["system"] = {"cores": 4}
        with pytest.raises(ConfigurationError):
            Scenario.from_spec(payload)


class TestOverrides:
    def test_override_changes_digest(self):
        scenario = preset_scenario("skylake-substrate")
        patched = scenario.with_overrides({"system.cores": 8})
        assert patched.system.cores == 8
        assert patched.digest() != scenario.digest()

    def test_override_invalid_path_rejected(self):
        scenario = preset_scenario("skylake-substrate")
        with pytest.raises(ConfigurationError):
            scenario.with_overrides({"nope.deep.path": 1})


class TestMaterialize:
    def test_characterize_produces_curves(self):
        family = _tiny().materialize().characterize()
        assert family.max_bandwidth_gbps > 0
        assert family.unloaded_latency_ns > 0

    def test_experiment_scenario_does_not_materialize(self):
        with pytest.raises(ConfigurationError):
            Scenario.for_experiment("fig2").materialize()

    def test_run_tabulates_characterization(self):
        result = _tiny("tiny-run").run()
        assert result.rows
        assert set(result.columns) == {
            "series",
            "read_ratio",
            "bandwidth_gbps",
            "latency_ns",
        }


class TestLoadScenario:
    def test_loads_example_file(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(_tiny().to_spec()))
        assert load_scenario(path).digest() == _tiny().digest()

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json_is_configuration_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_scenario(path)


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            preset_scenario("bogus")

    def test_scale_densifies_sweep(self):
        small = preset_scenario("skylake-substrate", 1.0)
        large = preset_scenario("skylake-substrate", 2.0)
        assert len(large.sweep.nop_counts) > len(small.sweep.nop_counts)
        assert large.digest() != small.digest()
