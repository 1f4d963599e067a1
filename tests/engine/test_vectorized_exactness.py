"""The batched fast paths' bit-exactness claims, checked per layer.

Every fast path in :mod:`repro.engine` claims *exact* equality with the
scalar loop it replaces — identical floats, not close ones. These tests
assert ``==`` at each seam against the scalar twins in
:mod:`tests.engine.oracle`: probe schedules, batch latency kernels, the
full model probe and the Mess window drive. A last group pins how much
work actually takes the fast paths, so a path that silently falls back
to scalar fails here. The end-to-end experiment digests ride on these.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.bench.model_probe import ProbeConfig, characterize_model, probe_point
from repro.engine import mess
from repro.engine import probe as fast_probe
from repro.engine.kernels import pipe_stays_idle
from repro.engine.mess import drive_fixed_rate
from repro.engine.probe import (
    bresenham_reads,
    cap_never_stalls,
    issue_schedule,
    probe_point_vectorized,
    sequential_sum,
)
from repro.experiments import fig5
from repro.experiments.registry import run_experiment
from repro.memmodels.fixed import FixedLatencyModel
from repro.memmodels.flawed import (
    DRAMsim3Analog,
    Ramulator2Analog,
    RamulatorAnalog,
)
from repro.memmodels.optane import OptaneModel
from repro.memmodels.simple_bw import SimpleBandwidthModel
from repro.platforms.presets import INTEL_SKYLAKE, family
from repro.scenario import build_memory
from repro.telemetry.registry import TelemetryRegistry

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
]

PROBE_CONFIG = ProbeConfig(
    read_ratios=(0.5, 0.75, 1.0),
    gaps_ns=(0.45, 1.1, 3.0, 15.0),
    ops_per_point=600,
    warmup_ops=100,
    max_outstanding=1024,
)


class TestProbeEquivalence:
    @pytest.mark.parametrize("model_factory", PROBED_MODELS)
    def test_point_matches_scalar_probe(self, model_factory):
        for ratio in (0.5, 1.0):
            for gap in (1.1, 15.0):
                vec = probe_point_vectorized(
                    model_factory(), ratio, gap, PROBE_CONFIG
                )
                ref = probe_point(model_factory(), ratio, gap, PROBE_CONFIG)
                assert vec is not None
                assert vec == ref

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


def _drive_outcome(simulator, end):
    return (
        end,
        simulator.stats.reads,
        simulator.stats.total_latency_ns,
        simulator.stats.last_completion_ns,
        simulator._mess_bw,
        [record.mess_bandwidth_gbps for record in simulator.history],
        [record.latency_ns for record in simulator.history],
    )


class TestMessDrive:
    @pytest.mark.parametrize("gap_ns", [0.4, 1.0, 3.0, 8.0])
    def test_drive_identical_across_engines(self, gap_ns):
        """The window-batched drive equals the request-at-a-time loop."""
        fam = family(INTEL_SKYLAKE)
        outcomes = []
        for drive in (drive_fixed_rate, oracle.drive_fixed_rate):
            simulator = build_memory(
                "mess", {"curves": fam, "keep_history": True}
            )
            end = drive(simulator, gap_ns, 4000)
            outcomes.append(_drive_outcome(simulator, end))
        assert outcomes[0] == outcomes[1]

    def test_partial_window_tail_identical(self):
        fam = family(INTEL_SKYLAKE)
        outcomes = []
        for drive in (drive_fixed_rate, oracle.drive_fixed_rate):
            simulator = build_memory("mess", {"curves": fam})
            ops = simulator.window_ops * 3 + 17  # ragged tail
            drive(simulator, 1.0, ops)
            outcomes.append(
                (
                    simulator.stats.reads,
                    simulator.stats.total_latency_ns,
                    simulator._mess_bw,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_bound_telemetry_replays_every_request(self):
        fam = family(INTEL_SKYLAKE)
        outcomes = []
        registries = []
        for drive in (drive_fixed_rate, oracle.drive_fixed_rate):
            registries.append(telemetry.activate(TelemetryRegistry()))
            try:
                simulator = build_memory(
                    "mess", {"curves": fam, "keep_history": True}
                )
                end = drive(simulator, 1.0, 2500)
            finally:
                telemetry.deactivate()
            outcomes.append(_drive_outcome(simulator, end))
        assert outcomes[0] == outcomes[1]
        batched, scalar = (r.counter("sim.requests").value for r in registries)
        assert batched == scalar == 2500


class TestFastPathCoverage:
    """How much real work the fast paths take.

    The counts are the ones the shipped code measures; a kernel that
    starts declining points or windows it used to take shows up here
    as a lower count, not as a slower benchmark.
    """

    @pytest.mark.parametrize(
        "model, batched",
        [
            ("fixed-latency", 66),
            ("ramulator", 54),
            ("dramsim3", 42),
            ("md1", 0),
            ("internal-ddr", 0),
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

    @pytest.mark.parametrize(
        "experiment_id, windows", [("ablation", 118), ("optane", 8)]
    )
    def test_mess_drive_windows_batched(
        self, experiment_id, windows, monkeypatch
    ):
        taken = []
        original = mess._window_fast_path

        def counting(*args):
            took = original(*args)
            taken.append(took)
            return took

        monkeypatch.setattr(mess, "_window_fast_path", counting)
        run_experiment(experiment_id, scale=0.3)
        assert taken == [True] * windows
