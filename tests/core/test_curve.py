"""Unit tests for BandwidthLatencyCurve."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.curve import BandwidthLatencyCurve
from repro.errors import CurveError


class TestConstruction:
    def test_valid_curve(self, simple_curve):
        assert len(simple_curve) == 8
        assert simple_curve.read_ratio == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CurveError, match="lengths differ"):
            BandwidthLatencyCurve(1.0, [1, 2], [10])

    def test_empty_rejected(self):
        with pytest.raises(CurveError):
            BandwidthLatencyCurve(1.0, [], [])

    @pytest.mark.parametrize("ratio", [-0.1, 1.5])
    def test_out_of_range_ratio_rejected(self, ratio):
        with pytest.raises(CurveError, match="read_ratio"):
            BandwidthLatencyCurve(ratio, [1.0], [10.0])

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(CurveError, match="non-negative"):
            BandwidthLatencyCurve(1.0, [-1.0], [10.0])

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(CurveError, match="positive"):
            BandwidthLatencyCurve(1.0, [1.0], [0.0])

    def test_nan_rejected(self):
        with pytest.raises(CurveError, match="non-finite"):
            BandwidthLatencyCurve(1.0, [float("nan")], [10.0])

    def test_from_points(self):
        curve = BandwidthLatencyCurve.from_points(0.8, [(1, 100), (50, 200)])
        assert curve.max_bandwidth_gbps == 50
        assert curve.unloaded_latency_ns == 100

    def test_from_points_empty_rejected(self):
        with pytest.raises(CurveError):
            BandwidthLatencyCurve.from_points(0.8, [])


class TestBasicProperties:
    def test_unloaded_latency_is_at_lowest_bandwidth(self, simple_curve):
        assert simple_curve.unloaded_latency_ns == 90

    def test_max_latency(self, simple_curve):
        assert simple_curve.max_latency_ns == 400

    def test_max_bandwidth(self, waveform_curve):
        # the peak, not the last point
        assert waveform_curve.max_bandwidth_gbps == 95


class TestInterpolation:
    def test_exact_points_recovered(self, simple_curve):
        assert simple_curve.latency_at(40) == pytest.approx(95)

    def test_between_points(self, simple_curve):
        mid = simple_curve.latency_at(30)
        assert 92 < mid < 95

    def test_below_first_point_returns_unloaded(self, simple_curve):
        assert simple_curve.latency_at(0.0) == pytest.approx(90)

    def test_beyond_peak_returns_max_latency(self, simple_curve):
        assert simple_curve.latency_at(500) == simple_curve.max_latency_ns

    def test_waveform_beyond_peak_uses_global_max(self, waveform_curve):
        # past the peak the conservative plateau is the global maximum
        # latency, which lives on the declining tail
        assert waveform_curve.latency_at(96) == 430

    def test_negative_bandwidth_rejected(self, simple_curve):
        with pytest.raises(CurveError):
            simple_curve.latency_at(-1)

    def test_monotone_on_ascending_section(self, simple_curve):
        grid = np.linspace(0, simple_curve.max_bandwidth_gbps, 50)
        lats = [simple_curve.latency_at(float(b)) for b in grid]
        assert all(b >= a - 1e-9 for a, b in zip(lats, lats[1:]))

    def test_subnormal_bandwidth_gap_stays_finite(self):
        # the latency slope across a subnormal gap overflows to inf;
        # such points are collapsed like exact bandwidth ties
        curve = BandwidthLatencyCurve(0.0, [0.0, 0.0, 1e-310, 1e-309], [1, 2, 3, 5])
        for bandwidth in (0.0, 2.2250738585e-313, 5e-311, 5e-310):
            assert 1.0 <= curve.latency_at(bandwidth) <= 5.0


class TestInclination:
    def test_flat_region_small_slope(self, simple_curve):
        assert simple_curve.inclination_at(10) < 0.5

    def test_steep_region_large_slope(self, simple_curve):
        assert simple_curve.inclination_at(104) > 5.0

    def test_invalid_delta_rejected(self, simple_curve):
        with pytest.raises(CurveError):
            simple_curve.inclination_at(10, delta_gbps=0)


class TestSaturation:
    def test_doubling_point(self, simple_curve):
        onset = simple_curve.saturation_bandwidth_gbps()
        # latency doubles (180 ns) between 80 (115) and 95 (150)... and
        # 105 (240): onset must sit in that bracket
        assert 95 < onset < 105
        assert simple_curve.latency_at(onset) == pytest.approx(180, rel=0.05)

    def test_never_saturating_curve_returns_peak(self):
        curve = BandwidthLatencyCurve(1.0, [1, 50, 100], [90, 95, 100])
        assert curve.saturation_bandwidth_gbps() == 100

    def test_invalid_factor_rejected(self, simple_curve):
        with pytest.raises(CurveError):
            simple_curve.saturation_bandwidth_gbps(factor=1.0)


class TestWaveform:
    def test_monotone_curve_has_no_waveform(self, simple_curve):
        assert not simple_curve.has_waveform()
        assert simple_curve.waveform_points() == 0

    def test_waveform_detected(self, waveform_curve):
        assert waveform_curve.has_waveform()
        assert waveform_curve.waveform_points() == 3

    def test_tolerance_suppresses_noise(self):
        curve = BandwidthLatencyCurve(
            1.0, [1, 50, 100, 99.8], [90, 100, 200, 210]
        )
        assert not curve.has_waveform(tolerance_gbps=0.5)


class TestSerialization:
    def test_to_rows(self, simple_curve):
        rows = simple_curve.to_rows()
        assert len(rows) == len(simple_curve)
        assert rows[0] == (1.0, 1.0, 90.0)
