"""Tests for curve comparison, accuracy campaigns and row-buffer sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.compare import compare_families
from repro.analysis.error import accuracy_workloads, run_accuracy_campaign
from repro.analysis.rowbuffer import census_sweep
from repro.core.curve import BandwidthLatencyCurve
from repro.core.family import CurveFamily
from repro.dram.timing import DDR4_2666
from repro.errors import CurveError
from repro.memmodels.fixed import FixedLatencyModel
from repro.telemetry import registry as telemetry
from repro.workloads.lmbench import LmbenchLatency


def family_with_scale(latency_scale: float, name: str) -> CurveFamily:
    return CurveFamily(
        [
            BandwidthLatencyCurve(
                1.0,
                [1, 40, 80, 110],
                [90 * latency_scale, 100 * latency_scale, 150 * latency_scale, 300 * latency_scale],
            ),
            BandwidthLatencyCurve(
                0.5,
                [1, 30, 60, 90],
                [100 * latency_scale, 120 * latency_scale, 200 * latency_scale, 400 * latency_scale],
            ),
        ],
        name=name,
    )


class TestCompareFamilies:
    def test_identical_families_zero_error(self):
        reference = family_with_scale(1.0, "ref")
        candidate = family_with_scale(1.0, "cand")
        comparison = compare_families(reference, candidate)
        assert comparison.mean_latency_error_pct == pytest.approx(0.0, abs=1e-9)
        assert comparison.unloaded_latency_error_pct == pytest.approx(0.0)
        assert comparison.saturated_bw_error_pct == pytest.approx(0.0)

    def test_scaled_latency_detected(self):
        reference = family_with_scale(1.0, "ref")
        candidate = family_with_scale(1.5, "cand")
        comparison = compare_families(reference, candidate)
        assert comparison.mean_latency_error_pct == pytest.approx(50.0, rel=0.05)

    def test_names_recorded(self):
        comparison = compare_families(
            family_with_scale(1.0, "ref"), family_with_scale(1.2, "cand")
        )
        assert comparison.reference_name == "ref"
        assert comparison.candidate_name == "cand"

    def test_grid_validation(self):
        with pytest.raises(CurveError):
            compare_families(
                family_with_scale(1.0, "a"),
                family_with_scale(1.0, "b"),
                grid_points=1,
            )


def small_campaign(system_config):
    return run_accuracy_campaign(
        system_config=system_config,
        actual_factory=lambda: FixedLatencyModel(latency_ns=60.0),
        model_factories={
            "same": lambda: FixedLatencyModel(latency_ns=60.0),
            "slower": lambda: FixedLatencyModel(latency_ns=120.0),
        },
        workload_factories=[lambda: LmbenchLatency(chase_ops=200)],
    )


class TestAccuracyCampaign:
    def test_reference_model_has_zero_error(self, tiny_system_config):
        reports = small_campaign(tiny_system_config)
        assert all(
            entry.actual > 0 for report in reports for entry in report.entries
        )
        by_name = {r.model_name: r for r in reports}
        assert by_name["same"].mean_error_pct == pytest.approx(0.0, abs=0.5)
        assert by_name["slower"].mean_error_pct > 20.0

    def test_each_model_is_timed_in_a_span_beside_its_report(
        self, tiny_system_config
    ):
        untraced = small_campaign(tiny_system_config)
        registry = telemetry.activate()
        try:
            traced = small_campaign(tiny_system_config)
        finally:
            telemetry.deactivate()
        assert traced == untraced
        spans = [s for s in registry.spans if s.category == "analysis"]
        assert [s.name for s in spans] == ["accuracy.same", "accuracy.slower"]
        assert all(s.dur_us > 0 for s in spans)

    def test_accuracy_workloads_are_the_paper_trio_in_order(self):
        names = [make().name for make in accuracy_workloads(0.1)]
        assert names == ["stream-triad", "lmbench", "multichase"]


class TestRowBufferSweep:
    def test_census_rates_valid(self):
        censuses = census_sweep(
            DDR4_2666,
            channels=2,
            read_ratio=1.0,
            pressures=(0.5, 2.0),
            ops=2000,
        )
        assert len(censuses) == 2
        for census in censuses:
            total = census.hit_rate + census.empty_rate + census.miss_rate
            assert total == pytest.approx(1.0)
            assert census.bandwidth_gbps > 0

    def test_pressure_raises_bandwidth(self):
        censuses = census_sweep(
            DDR4_2666,
            channels=2,
            read_ratio=1.0,
            pressures=(0.25, 4.0),
            ops=2000,
        )
        assert censuses[1].bandwidth_gbps > censuses[0].bandwidth_gbps
