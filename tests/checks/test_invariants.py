"""Declarative validators: platform specs, curve families, manifests."""

from __future__ import annotations

import json

from repro.checks import (
    check_curve_family,
    check_fault_plan,
    check_fault_plan_file,
    check_json_file,
    check_manifest,
    check_manifest_file,
    check_platform_spec,
    check_scenario,
)
from repro.core.curve import BandwidthLatencyCurve
from repro.core.family import CurveFamily
from repro.platforms.presets import TABLE_I_PLATFORMS, family
from repro.platforms.spec import PlatformSpec, WaveformSpec
from repro.runner import RunManifest
from repro.runner.manifest import ExperimentRecord


def spec_with(**overrides) -> PlatformSpec:
    base = dict(
        name="Test",
        vendor="x",
        released=2020,
        cores=8,
        frequency_ghz=2.0,
        memory="DDR4",
        channels=6,
        theoretical_bw_gbps=128.0,
        unloaded_latency_ns=90.0,
        max_latency_range_ns=(300.0, 500.0),
        saturated_bw_range_pct=(80.0, 90.0),
        stream_range_pct=(70.0, 80.0),
    )
    base.update(overrides)
    return PlatformSpec(**base)


class TestPlatformSpecRPR101:
    def test_table_i_specs_are_all_valid(self):
        for spec in TABLE_I_PLATFORMS:
            assert check_platform_spec(spec) == []

    def test_fires_on_unsorted_read_ratios(self):
        spec = spec_with(read_ratios=(1.0, 0.5))
        assert any(
            "not sorted" in f.message for f in check_platform_spec(spec)
        )

    def test_fires_on_max_latency_below_unloaded(self):
        spec = spec_with(max_latency_range_ns=(50.0, 500.0))
        findings = check_platform_spec(spec)
        assert [f.rule_id for f in findings] == ["RPR101"]

    def test_fires_on_waveform_out_of_range(self):
        spec = spec_with(waveform=WaveformSpec(depth_fraction=1.5))
        assert any(
            "depth_fraction" in f.message for f in check_platform_spec(spec)
        )
        spec = spec_with(waveform=WaveformSpec(points=0))
        assert any("point" in f.message for f in check_platform_spec(spec))


class TestCurveFamilyRPR102:
    def test_generated_table_i_families_are_plausible(self):
        # The property used to falsify Ramulator 2.0's curves must hold
        # for every family this package generates.
        for spec in TABLE_I_PLATFORMS:
            assert check_curve_family(family(spec), spec) == []

    def test_fires_on_latency_dropping_under_pressure(self):
        bad = CurveFamily(
            [BandwidthLatencyCurve(1.0, [10.0, 20.0, 30.0], [90.0, 60.0, 120.0])],
            name="bad",
        )
        findings = check_curve_family(bad)
        assert [f.rule_id for f in findings] == ["RPR102"]
        assert "latency drops" in findings[0].message

    def test_silent_on_waveform_tail(self):
        # Post-peak bandwidth decline with rising latency is the
        # documented anomaly, not a violation.
        good = CurveFamily(
            [
                BandwidthLatencyCurve(
                    1.0,
                    [10.0, 60.0, 100.0, 95.0, 90.0],
                    [90.0, 110.0, 200.0, 260.0, 300.0],
                )
            ],
            name="waveform",
        )
        assert check_curve_family(good) == []

    def test_fires_on_bandwidth_above_theoretical(self):
        family_obj = CurveFamily(
            [BandwidthLatencyCurve(1.0, [10.0, 150.0], [90.0, 200.0])],
            name="over",
            theoretical_bandwidth_gbps=100.0,
        )
        assert any(
            "theoretical" in f.message for f in check_curve_family(family_obj)
        )

    def test_fires_on_unloaded_latency_off_spec(self):
        spec = spec_with(unloaded_latency_ns=90.0)
        family_obj = CurveFamily(
            [BandwidthLatencyCurve(1.0, [10.0, 50.0], [200.0, 400.0])],
            name="late",
        )
        assert any(
            "Table I" in f.message
            for f in check_curve_family(family_obj, spec)
        )


class TestManifestRPR103:
    def manifest_payload(self) -> dict:
        manifest = RunManifest(jobs=2, package_version="1.1.0")
        manifest.records.append(
            ExperimentRecord(
                experiment_id="fig2",
                status="ok",
                duration_s=1.0,
                rows=10,
                result_digest="ab" * 16,
            )
        )
        return manifest.to_dict()

    def test_real_manifest_is_valid(self):
        assert check_manifest(self.manifest_payload()) == []

    def test_fires_on_missing_environment_header(self):
        payload = self.manifest_payload()
        del payload["python_version"]
        findings = check_manifest(payload)
        assert any("python_version" in f.message for f in findings)

    def test_fires_on_bad_status_and_digest(self):
        payload = self.manifest_payload()
        payload["experiments"][0]["status"] = "crashed"
        payload["experiments"][0]["result_digest"] = "not hex!"
        messages = " ".join(f.message for f in check_manifest(payload))
        assert "status" in messages and "hex digest" in messages

    def test_fires_on_error_without_message(self):
        payload = self.manifest_payload()
        payload["experiments"][0]["status"] = "error"
        payload["experiments"][0]["error"] = None
        assert any(
            "no error message" in f.message for f in check_manifest(payload)
        )

    def test_manifest_file_roundtrip_and_corruption(self, tmp_path):
        good = tmp_path / "manifest.json"
        good.write_text(json.dumps(self.manifest_payload()))
        assert check_manifest_file(good) == []
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        findings = check_manifest_file(bad)
        assert findings and findings[0].rule_id == "RPR103"


class TestScenarioRPR104:
    def scenario_payload(self) -> dict:
        from repro.scenario import preset_scenario

        return preset_scenario("skylake-substrate").to_spec()

    def test_valid_scenario_is_clean(self):
        assert check_scenario(self.scenario_payload()) == []

    def test_fires_on_unknown_memory_kind(self):
        payload = self.scenario_payload()
        payload["memory"]["kind"] = "sram"
        findings = check_scenario(payload)
        assert findings and findings[0].rule_id == "RPR104"
        assert "sram" in findings[0].message

    def test_fires_on_non_object(self):
        findings = check_scenario([1, 2, 3])
        assert findings and findings[0].rule_id == "RPR104"

    def test_fires_on_unknown_key(self):
        payload = self.scenario_payload()
        payload["bogus"] = 1
        findings = check_scenario(payload)
        assert any("bogus" in f.message for f in findings)


class TestCacheGeometryRPR102:
    """Plausibility rules for the cache axis: fire on implausible
    geometry, stay silent on the digest-frozen defaults."""

    def scenario_payload(self, default_geometry: bool = False) -> dict:
        from repro.scenario import preset_scenario

        payload = preset_scenario("skylake-substrate").to_spec()
        if default_geometry:
            # the historical default LLC: 33 MiB, 11 ways -> 49152
            # sets, neither a power of two
            payload["system"]["hierarchy"]["l3"] = {
                "size_bytes": 33 * 1024 * 1024,
                "ways": 11,
                "latency_ns": 18.0,
            }
        return payload

    def test_default_geometry_is_silent(self):
        # without an explicit cache model the pow2 rules must not
        # flag the digest-frozen default geometry
        payload = self.scenario_payload(default_geometry=True)
        assert check_scenario(payload) == []

    def test_non_default_cache_with_non_pow2_ways_fires(self):
        payload = self.scenario_payload(default_geometry=True)
        payload["system"]["cache"] = {"policy": "random"}
        findings = check_scenario(payload)
        assert findings
        assert all(f.rule_id == "RPR102" for f in findings)
        assert any("ways" in f.message for f in findings)

    def test_capacity_inversion_fires(self):
        payload = self.scenario_payload()
        payload["system"]["hierarchy"]["l2"]["size_bytes"] = 16 * 1024
        findings = check_scenario(payload)
        assert any(
            f.rule_id == "RPR102" and "smaller" in f.message.lower()
            or f.rule_id == "RPR102" and "capacity" in f.message.lower()
            for f in findings
        )

    def test_latency_inversion_fires(self):
        payload = self.scenario_payload()
        payload["system"]["hierarchy"]["l3"]["latency_ns"] = 0.5
        findings = check_scenario(payload)
        assert any(
            f.rule_id == "RPR102" and "latency" in f.message.lower()
            for f in findings
        )

    def test_pow2_geometry_with_non_default_cache_is_silent(self):
        from repro.scenario import characterization

        scenario = characterization(
            name="pow2", memory_kind="fixed-latency", cache={"policy": "plru"}
        )
        findings = check_scenario(scenario.to_spec())
        assert findings == []


class TestJsonDispatch:
    def test_scenario_marker_routes_to_rpr104(self, tmp_path):
        from repro.scenario import preset_scenario

        path = tmp_path / "scn.json"
        payload = preset_scenario("hbm-substrate").to_spec()
        payload["memory"]["kind"] = "sram"
        path.write_text(json.dumps(payload))
        findings = check_json_file(path)
        assert findings and findings[0].rule_id == "RPR104"

    def test_plain_json_routes_to_rpr103(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        findings = check_json_file(path)
        assert findings and all(f.rule_id == "RPR103" for f in findings)


class TestManifestFailureTaxonomy:
    def failed_payload(self) -> dict:
        manifest = RunManifest(jobs=1, package_version="1.1.0")
        manifest.records.append(
            ExperimentRecord(
                experiment_id="fig2",
                status="error",
                error="boom",
                failure_kind="crash",
                attempts=2,
            )
        )
        return manifest.to_dict()

    def test_classified_failure_is_valid(self):
        assert check_manifest(self.failed_payload()) == []

    def test_fires_on_unknown_failure_kind(self):
        # "unavailable" was the retired serving fabric's kind
        for kind in ("gremlin", "unavailable"):
            payload = self.failed_payload()
            payload["experiments"][0]["failure_kind"] = kind
            messages = " ".join(f.message for f in check_manifest(payload))
            assert "failure_kind" in messages and kind in messages

    def test_fires_on_non_positive_attempts(self):
        payload = self.failed_payload()
        payload["experiments"][0]["attempts"] = 0
        assert any(
            "attempts" in f.message for f in check_manifest(payload)
        )


class TestFaultPlanRPR105:
    def plan_payload(self) -> dict:
        from repro.resilience import FaultPlan, FaultSpec

        return FaultPlan(
            seed=7, faults=(FaultSpec(kind="crash", target="fig2"),)
        ).to_dict()

    def test_valid_plan_is_clean(self):
        assert check_fault_plan(self.plan_payload()) == []

    def test_fires_on_unknown_fault_kind(self):
        payload = self.plan_payload()
        payload["faults"][0]["kind"] = "meteor"
        findings = check_fault_plan(payload)
        assert findings and findings[0].rule_id == "RPR105"
        assert "meteor" in findings[0].message

    def test_fires_on_empty_plan(self):
        payload = self.plan_payload()
        payload["faults"] = []
        findings = check_fault_plan(payload)
        assert findings and "no faults" in findings[0].message

    def test_fires_on_non_object(self):
        findings = check_fault_plan([1, 2])
        assert findings and findings[0].rule_id == "RPR105"

    def test_fault_plan_marker_routes_dispatch(self, tmp_path):
        path = tmp_path / "plan.json"
        payload = self.plan_payload()
        payload["faults"][0]["probability"] = 2.0
        path.write_text(json.dumps(payload))
        findings = check_json_file(path)
        assert findings and findings[0].rule_id == "RPR105"

    def test_fault_plan_file_reports_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        findings = check_fault_plan_file(path)
        assert findings and findings[0].rule_id == "RPR105"
