"""Tests for Table I presets and synthetic curve generation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.metrics import compute_metrics
from repro.errors import ConfigurationError
from repro.platforms.presets import (
    AMD_ZEN2,
    NVIDIA_H100,
    SPECIAL_FAMILIES,
    TABLE_I_PLATFORMS,
    cxl_expander_family,
    family,
    platform,
    remote_socket_family,
)
from repro.platforms.spec import PlatformSpec, WaveformSpec
from repro.platforms.synthetic import synthesize_curve, synthesize_duplex_family


class TestTableICalibration:
    """The headline test: every Table I row is recovered within 1%."""

    @pytest.mark.parametrize(
        "spec", TABLE_I_PLATFORMS, ids=lambda s: s.vendor
    )
    def test_metrics_match_paper(self, spec):
        metrics = compute_metrics(family(spec))
        assert metrics.unloaded_latency_ns == pytest.approx(
            spec.unloaded_latency_ns, rel=0.01
        )
        assert metrics.max_latency_min_ns == pytest.approx(
            spec.max_latency_range_ns[0], rel=0.01
        )
        assert metrics.max_latency_max_ns == pytest.approx(
            spec.max_latency_range_ns[1], rel=0.01
        )
        assert metrics.saturated_bw_min_pct == pytest.approx(
            spec.saturated_bw_range_pct[0], rel=0.01
        )
        assert metrics.saturated_bw_max_pct == pytest.approx(
            spec.saturated_bw_range_pct[1], rel=0.01
        )

    def test_waveform_platforms_flagged(self):
        for spec in TABLE_I_PLATFORMS:
            metrics = compute_metrics(family(spec))
            if spec.waveform is not None:
                assert metrics.waveform_curves > 0
            else:
                assert metrics.waveform_curves == 0

    def test_write_impact_ordering_on_ddr(self):
        """On normal DDR platforms, 100%-read wins (Section III)."""
        for spec in TABLE_I_PLATFORMS:
            if spec.peak_profile is not None:
                continue  # Zen 2 breaks the pattern by design
            curves = family(spec)
            assert (
                curves[1.0].max_bandwidth_gbps
                > curves[0.5].max_bandwidth_gbps
            )

    def test_zen2_anomaly(self):
        """Zen 2: mixed traffic is the trough, not 50/50 (Section III)."""
        curves = family(AMD_ZEN2)
        peaks = {c.read_ratio: c.max_bandwidth_gbps for c in curves}
        trough_ratio = min(peaks, key=peaks.get)
        assert 0.5 < trough_ratio < 1.0
        assert peaks[0.5] > peaks[trough_ratio]

    def test_gpu_never_doubles_on_best_curve(self):
        """H100's 100%-read max latency is below 2x its unloaded."""
        curves = family(NVIDIA_H100)
        best = curves[1.0]
        assert best.max_latency_ns < 2 * best.unloaded_latency_ns

    def test_lookup_by_name(self):
        spec = platform("AMD Zen 2 EPYC 7742")
        assert spec is AMD_ZEN2
        with pytest.raises(ConfigurationError):
            platform("nonexistent")


class TestSpecValidation:
    def test_bad_latency_range(self):
        with pytest.raises(ConfigurationError):
            PlatformSpec(
                name="bad", vendor="x", released=2020, cores=1,
                frequency_ghz=1.0, memory="m", channels=1,
                theoretical_bw_gbps=100, unloaded_latency_ns=90,
                max_latency_range_ns=(300, 200),
                saturated_bw_range_pct=(70, 90),
                stream_range_pct=(50, 60),
            )

    def test_peak_profile_length_checked(self):
        with pytest.raises(ConfigurationError, match="peak_profile"):
            PlatformSpec(
                name="bad", vendor="x", released=2020, cores=1,
                frequency_ghz=1.0, memory="m", channels=1,
                theoretical_bw_gbps=100, unloaded_latency_ns=90,
                max_latency_range_ns=(200, 300),
                saturated_bw_range_pct=(70, 90),
                stream_range_pct=(50, 60),
                peak_profile=(0.5,),
            )

    def test_waveform_threshold(self):
        waveform = WaveformSpec(read_ratio_threshold=0.7)
        assert waveform.applies_to(0.5)
        assert not waveform.applies_to(0.9)

    def test_stream_bandwidth_range(self):
        spec = TABLE_I_PLATFORMS[0]
        lo, hi = spec.stream_bandwidth_range_gbps
        assert lo == pytest.approx(
            spec.theoretical_bw_gbps * spec.stream_range_pct[0] / 100
        )
        assert hi > lo


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


class TestSpecConstructorRules:
    """The constructors are the one validator of a platform spec."""

    def test_table_i_specs_and_special_families_build(self):
        for spec in TABLE_I_PLATFORMS:
            assert dataclasses.replace(spec) == spec
        for name, build in SPECIAL_FAMILIES.items():
            assert list(build()), name

    def test_rejects_unsorted_read_ratios(self):
        with pytest.raises(ConfigurationError, match="not sorted"):
            spec_with(read_ratios=(1.0, 0.5))

    def test_rejects_read_ratios_outside_unit_interval(self):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 1\]"):
            spec_with(read_ratios=(0.5, 1.5))

    def test_rejects_max_latency_below_unloaded(self):
        with pytest.raises(ConfigurationError, match="below the unloaded"):
            spec_with(max_latency_range_ns=(50.0, 500.0))

    def test_rejects_invalid_stream_range(self):
        for stream in ((0.0, 50.0), (80.0, 70.0), (50.0, 101.0)):
            with pytest.raises(ConfigurationError, match="STREAM range"):
                spec_with(stream_range_pct=stream)

    def test_rejects_waveform_out_of_range(self):
        with pytest.raises(ConfigurationError, match="depth_fraction"):
            spec_with(waveform=WaveformSpec(depth_fraction=1.5))
        with pytest.raises(ConfigurationError, match="point"):
            WaveformSpec(points=0)
        with pytest.raises(ConfigurationError, match="read_ratio_threshold"):
            WaveformSpec(read_ratio_threshold=-0.1)


class TestSyntheticCurves:
    def test_curve_hits_requested_extremes(self):
        curve = synthesize_curve(
            read_ratio=1.0,
            unloaded_latency_ns=100.0,
            max_latency_ns=400.0,
            peak_bandwidth_gbps=120.0,
            onset_fraction_of_peak=0.8,
        )
        assert curve.unloaded_latency_ns == pytest.approx(100.0, rel=0.01)
        assert curve.max_latency_ns == pytest.approx(400.0, rel=0.01)
        assert curve.max_bandwidth_gbps == pytest.approx(120.0)

    def test_saturation_onset_placed(self):
        curve = synthesize_curve(
            read_ratio=1.0,
            unloaded_latency_ns=100.0,
            max_latency_ns=400.0,
            peak_bandwidth_gbps=100.0,
            onset_fraction_of_peak=0.8,
        )
        assert curve.saturation_bandwidth_gbps() == pytest.approx(80.0, rel=0.03)

    def test_waveform_tail_generated(self):
        curve = synthesize_curve(
            read_ratio=0.5,
            unloaded_latency_ns=100.0,
            max_latency_ns=400.0,
            peak_bandwidth_gbps=100.0,
            onset_fraction_of_peak=0.8,
            waveform_depth=0.06,
            waveform_points=4,
        )
        assert curve.has_waveform()
        assert curve.max_latency_ns == pytest.approx(400.0, rel=0.01)


class TestDuplexFamilies:
    def test_cxl_best_at_balance(self):
        curves = cxl_expander_family()
        peaks = {c.read_ratio: c.max_bandwidth_gbps for c in curves}
        assert peaks[0.5] > peaks[0.0]
        assert peaks[0.5] > peaks[1.0]

    def test_remote_socket_latency_premium(self):
        cxl = cxl_expander_family()
        remote = remote_socket_family()
        premium = remote.latency_at(2.0, 0.9) - cxl.latency_at(2.0, 0.9)
        assert premium == pytest.approx(28.0, abs=8.0)

    def test_remote_socket_higher_ceiling(self):
        assert (
            remote_socket_family().max_bandwidth_gbps
            > cxl_expander_family().max_bandwidth_gbps
        )

    def test_duplex_validation(self):
        with pytest.raises(ConfigurationError):
            synthesize_duplex_family(
                name="bad",
                read_link_gbps=0,
                write_link_gbps=1,
                unloaded_latency_ns=100,
                max_latency_ns=300,
            )
