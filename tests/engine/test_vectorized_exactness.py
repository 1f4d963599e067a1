"""The batched fast paths' bit-exactness claims, checked per layer.

Every fast path in :mod:`repro.engine` claims *exact* equality with the
scalar loop it replaces — identical floats, not close ones. These tests
assert ``==`` at each seam against the scalar twins in
:mod:`tests.engine.oracle`: probe schedules, batch latency kernels and
the full model probe. A last group pins how much work actually takes
the fast path, so a probe that silently falls back to scalar fails
here. The end-to-end experiment digests ride on these.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.model_probe import ProbeConfig, characterize_model, probe_point
from repro.engine import probe as fast_probe
from repro.engine.kernels import batch_latencies, pipe_stays_idle, queue_waits
from repro.engine.probe import (
    bresenham_reads,
    cap_never_stalls,
    issue_schedule,
    probe_point_vectorized,
    sequential_sum,
    stream_addresses,
)
from repro.experiments import fig5
from repro.memmodels.fixed import FixedLatencyModel
from repro.memmodels.flawed import (
    DRAMsim3Analog,
    Ramulator2Analog,
    RamulatorAnalog,
)
from repro.memmodels.internal_ddr import InternalDdrModel
from repro.memmodels.md1 import MD1QueueModel
from repro.memmodels.optane import OptaneModel
from repro.memmodels.queueing import SingleServerQueue
from repro.memmodels.simple_bw import SimpleBandwidthModel
from repro.request import AccessType, MemoryRequest

from . import oracle


class TestProbeSchedules:
    def test_issue_schedule_matches_scalar_accumulation(self):
        got = issue_schedule(500, 0.7)
        assert got.tolist() == oracle.issue_schedule(500, 0.7).tolist()

    def test_bresenham_matches_scalar_interleave(self):
        for ratio in (0.0, 0.25, 0.5, 2 / 3, 0.75, 0.9, 1.0):
            got = bresenham_reads(400, ratio)
            assert got.tolist() == oracle.bresenham_reads(400, ratio).tolist()

    def test_sequential_sum_matches_running_addition(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 300.0, 2000)
        assert sequential_sum(values) == oracle.sequential_sum(values)

    def test_cap_never_stalls_detects_saturation(self):
        t = issue_schedule(100, 1.0)
        fast = t + 5.0  # completes long before 64 more issues
        assert cap_never_stalls(t, fast, 64)
        slow = t + 200.0  # 200 ns latency, 64-deep window of 64 ns
        assert not cap_never_stalls(t, slow, 64)

    def test_pipe_stays_idle_conditions(self):
        model = RamulatorAnalog(theoretical_gbps=128.0)
        idle = issue_schedule(50, 10.0)
        assert pipe_stays_idle(model._pipe, idle)
        congested = issue_schedule(50, model._pipe.service_ns / 2)
        assert not pipe_stays_idle(model._pipe, congested)

    def test_stream_addresses_match_scalar_positions(self):
        for ops, streams, stream_bytes in ((500, 16, 8 << 20), (97, 3, 320)):
            got = stream_addresses(ops, streams, stream_bytes)
            want = oracle.stream_addresses(ops, streams, stream_bytes)
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("per_request", [False, True], ids=["own", "given"])
    @pytest.mark.parametrize("schedule", ["idle", "saturated", "mixed"])
    def test_queue_waits_match_scalar_admit(self, schedule, per_request):
        rng = np.random.default_rng(11)
        service_ns = 0.7
        if schedule == "idle":
            t = issue_schedule(400, 2.5)
        elif schedule == "saturated":
            t = issue_schedule(400, 0.3)
        else:  # bursts that queue, then gaps that drain the queue
            t = np.cumsum(rng.exponential(2 * service_ns, 400))
        service = (
            service_ns + rng.choice([0.0, 0.45], t.size) if per_request else None
        )
        for free_at in (0.0, 37.3):  # a fresh pipe, then one still busy
            pipe = SingleServerQueue(service_ns)
            if free_at:
                pipe.admit(0.0, service_ns=free_at)
            waits = queue_waits(pipe, t, service)
            assert waits.tolist() == oracle.queue_waits(pipe, t, service).tolist()
            assert pipe.free_at_ns == free_at  # the scan leaves the pipe alone
            if not free_at:
                queued = int(np.count_nonzero(waits))
                assert {
                    "idle": queued == 0,
                    "saturated": queued == t.size - 1,
                    "mixed": 0 < queued < t.size - 1,
                }[schedule]


PROBED_MODELS = [
    pytest.param(lambda: FixedLatencyModel(89.0), id="fixed"),
    pytest.param(lambda: RamulatorAnalog(theoretical_gbps=128.0), id="ramulator"),
    pytest.param(
        lambda: Ramulator2Analog(theoretical_gbps=307.0), id="ramulator2"
    ),
    pytest.param(
        lambda: SimpleBandwidthModel(peak_bandwidth_gbps=128.0),
        id="gem5-simple",
    ),
    pytest.param(
        lambda: DRAMsim3Analog(theoretical_gbps=128.0), id="dramsim3"
    ),
    pytest.param(
        lambda: MD1QueueModel(unloaded_latency_ns=89.0, peak_bandwidth_gbps=128.0),
        id="md1",
    ),
    pytest.param(
        lambda: InternalDdrModel(
            unloaded_latency_ns=89.0, peak_bandwidth_gbps=128.0, channels=6
        ),
        id="internal-ddr",
    ),
]

#: The models whose kernels scan queue state a used model carries.
PIPE_MODELS = [p for p in PROBED_MODELS if p.id not in ("fixed", "md1")]

PROBE_CONFIG = ProbeConfig(
    read_ratios=(0.5, 0.75, 1.0),
    gaps_ns=(0.12, 0.45, 1.1, 3.0, 15.0),
    ops_per_point=600,
    warmup_ops=100,
    max_outstanding=1024,
)


class TestProbeEquivalence:
    @pytest.mark.parametrize("model_factory", PROBED_MODELS)
    def test_point_matches_scalar_probe(self, model_factory):
        for ratio in (0.5, 1.0):
            for gap in (0.12, 1.1, 15.0):  # 0.12 ns queues every pipe
                vec = probe_point_vectorized(
                    model_factory(), ratio, gap, PROBE_CONFIG
                )
                ref = probe_point(model_factory(), ratio, gap, PROBE_CONFIG)
                assert vec is not None
                assert vec == ref

    @pytest.mark.parametrize("model_factory", PROBED_MODELS)
    def test_kernel_matches_scalar_access(self, model_factory):
        """An irregular schedule: queues form and drain, mixes alternate."""
        rng = np.random.default_rng(5)
        t = np.cumsum(rng.exponential(0.4, 700))
        is_read = rng.random(700) < 0.6
        addresses = stream_addresses(700, 16, 8 << 20)
        model = model_factory()
        got = batch_latencies(model, t, is_read, addresses)
        want = oracle.batch_latencies(model, t, is_read, addresses)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("model_factory", PIPE_MODELS)
    def test_kernel_continues_a_used_model(self, model_factory):
        """Busy pipes and set turnaround state are the scan's start.

        256 warm-up requests fill exactly one DRAMsim3 window, so its
        kernel starts from a closed window, as it requires.
        """
        model = model_factory()
        for index in range(256):
            model.access(
                MemoryRequest(
                    address=index * 64,
                    access_type=AccessType.WRITE,
                    issue_time_ns=index * 0.1,
                )
            )
        t = 3.0 + issue_schedule(500, 0.3)
        is_read = bresenham_reads(500, 0.7)
        addresses = stream_addresses(500, 16, 8 << 20)
        got = batch_latencies(model, t, is_read, addresses)
        want = oracle.batch_latencies(model, t, is_read, addresses)
        assert got.tolist() == want.tolist()

    def test_used_estimator_and_open_window_fall_back(self):
        for model in (MD1QueueModel(), DRAMsim3Analog()):
            model.access(
                MemoryRequest(
                    address=0, access_type=AccessType.READ, issue_time_ns=0.0
                )
            )
            assert (
                probe_point_vectorized(model, 1.0, 10.0, PROBE_CONFIG) is None
            )

    @pytest.mark.parametrize("model_factory", PROBED_MODELS)
    def test_stalled_point_leaves_the_model_untouched(self, model_factory):
        """The scalar probe that follows a declined point sees a fresh model."""
        tight = ProbeConfig(ops_per_point=600, warmup_ops=100, max_outstanding=4)
        model = model_factory()
        assert probe_point_vectorized(model, 0.5, 0.12, tight) is None
        assert probe_point(model, 0.5, 0.12, tight) == probe_point(
            model_factory(), 0.5, 0.12, tight
        )

    def test_unknown_model_falls_back(self):
        assert (
            probe_point_vectorized(OptaneModel(), 1.0, 10.0, PROBE_CONFIG)
            is None
        )

    def test_stalling_schedule_falls_back(self):
        tight = ProbeConfig(
            ops_per_point=600, warmup_ops=100, max_outstanding=4
        )
        assert (
            probe_point_vectorized(
                FixedLatencyModel(89.0), 1.0, 0.45, tight
            )
            is None
        )

    @pytest.mark.parametrize("model_factory", PROBED_MODELS)
    def test_characterize_model_identical_across_engines(self, model_factory):
        """The shipped sweep equals one forced onto the scalar probe."""
        with oracle.forced_scalar():
            scalar = characterize_model(model_factory, PROBE_CONFIG, name="t")
        batched = characterize_model(model_factory, PROBE_CONFIG, name="t")
        assert batched.to_dict() == scalar.to_dict()


class TestFastPathCoverage:
    """How much real work the fast path takes.

    The counts are the ones the shipped code measures; a kernel that
    starts declining points it used to take shows up here as a lower
    count, not as a slower benchmark.
    """

    @pytest.mark.parametrize(
        "model, batched",
        [
            ("fixed-latency", 66),
            ("ramulator", 66),
            ("dramsim3", 66),
            ("md1", 66),
            ("internal-ddr", 66),
        ],
    )
    def test_fig5_probe_points_batched(self, model, batched, monkeypatch):
        answers = []
        original = fast_probe.probe_point_vectorized

        def counting(*args):
            point = original(*args)
            answers.append(point is not None)
            return point

        monkeypatch.setattr(fast_probe, "probe_point_vectorized", counting)
        config = fig5._probe_config(0.1)
        characterize_model(fig5.model_factories()[model], config, name=model)
        assert len(answers) == 66
        assert sum(answers) == batched
