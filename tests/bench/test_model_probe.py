"""Unit tests for the direct model probe."""

from __future__ import annotations

import pytest

from repro.bench.model_probe import ProbeConfig, characterize_model, probe_point
from repro.errors import BenchmarkError
from repro.memmodels.fixed import FixedLatencyModel
from repro.memmodels.md1 import MD1QueueModel


@pytest.fixture
def quick_config():
    return ProbeConfig(
        read_ratios=(0.5, 1.0),
        gaps_ns=(0.5, 2.0, 10.0),
        ops_per_point=1500,
        warmup_ops=200,
    )


class TestConfigValidation:
    def test_empty_sweeps(self):
        with pytest.raises(BenchmarkError):
            ProbeConfig(read_ratios=())

    def test_bad_ratio(self):
        with pytest.raises(BenchmarkError):
            ProbeConfig(read_ratios=(1.5,))

    def test_bad_gap(self):
        with pytest.raises(BenchmarkError):
            ProbeConfig(gaps_ns=(0.0,))

    def test_warmup_must_be_smaller(self):
        with pytest.raises(BenchmarkError):
            ProbeConfig(ops_per_point=100, warmup_ops=100)

    def test_negative_warmup(self):
        # the batched probe would measure from the end of the schedule
        # and the scalar one from request 0
        with pytest.raises(BenchmarkError, match="warmup_ops"):
            ProbeConfig(ops_per_point=400, warmup_ops=-5)

    def test_stream_below_one_line(self):
        # zero lines per stream: the position counter divides by it
        with pytest.raises(BenchmarkError, match="stream_bytes"):
            ProbeConfig(stream_bytes=32)


class TestProbePoint:
    def test_fixed_model_measures_its_latency(self, quick_config):
        point = probe_point(
            FixedLatencyModel(latency_ns=77.0), 1.0, 10.0, quick_config
        )
        assert point.read_latency_ns == pytest.approx(77.0)

    def test_bandwidth_tracks_offered_rate_below_capacity(self, quick_config):
        point = probe_point(
            FixedLatencyModel(latency_ns=20.0), 1.0, 10.0, quick_config
        )
        # 64 bytes every 10 ns = 6.4 GB/s
        assert point.bandwidth_gbps == pytest.approx(6.4, rel=0.1)

    def test_ratio_recorded(self, quick_config):
        point = probe_point(
            FixedLatencyModel(), 0.5, 5.0, quick_config
        )
        assert point.read_ratio == 0.5


class TestCharacterize:
    def test_family_shape(self, quick_config):
        family = characterize_model(
            FixedLatencyModel,
            quick_config,
            name="probe-test",
            theoretical_bandwidth_gbps=99.0,
        )
        assert family.read_ratios == [0.5, 1.0]
        assert len(family[1.0]) == 3
        assert family.name == "probe-test"
        assert family.theoretical_bandwidth_gbps == 99.0

    def test_loaded_model_shows_rising_curve(self, quick_config):
        family = characterize_model(
            lambda: MD1QueueModel(
                unloaded_latency_ns=30.0, peak_bandwidth_gbps=40.0
            ),
            quick_config,
        )
        curve = family[1.0]
        assert curve.latency_ns[-1] > curve.latency_ns[0]

    def test_fresh_model_per_point(self, quick_config):
        instances = []

        def factory():
            model = FixedLatencyModel()
            instances.append(model)
            return model

        characterize_model(factory, quick_config)
        assert len(instances) == 2 * 3  # ratios x gaps
