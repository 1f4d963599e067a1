"""Tests of the benchmark itself: ``python -m pytest benchmarks/suite -q``.

The unit tests run in well under a second; the end-to-end tests run
every workload once with a very short measurement in both modes and
take about a minute.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import openloop
import run
import speed
import workloads

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def _nested(tracer: layers.Tracer, clock: FakeClock):
    def leaf() -> None:
        clock.t += 3.0

    leaf = tracer.wrap("leaf", leaf)

    def middle() -> None:
        clock.t += 1.0
        leaf()
        clock.t += 2.0
        leaf()

    return tracer.wrap("middle", middle)


def test_self_time_of_nested_calls() -> None:
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    middle = _nested(tracer, clock)
    frame = tracer.enter("iteration")
    clock.t += 0.5
    middle()
    tracer.exit(frame)
    assert tracer.totals["leaf"] == [2, 6.0, 6.0]
    assert tracer.totals["middle"] == [1, 9.0, 3.0]
    assert tracer.totals["iteration"] == [1, 9.5, 0.5]


def test_calibrated_costs_are_subtracted() -> None:
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock, inner_cost=0.1, call_cost=0.25)
    middle = _nested(tracer, clock)
    frame = tracer.enter("iteration")
    middle()
    tracer.exit(frame)
    calls, inclusive, own = tracer.totals["leaf"]
    assert (calls, inclusive, own) == (2, pytest.approx(5.8), pytest.approx(5.8))
    # middle: 9 measured - 0.1 inner; children cost 2 x (2.9 + 0.25)
    assert tracer.totals["middle"][1] == pytest.approx(8.9)
    assert tracer.totals["middle"][2] == pytest.approx(8.9 - 6.3)
    # the benchmark's own frame pays no inner cost, only its child's
    assert tracer.totals["iteration"][2] == pytest.approx(9.0 - 8.9 - 0.25)


def test_frames_must_close_in_order() -> None:
    tracer = layers.Tracer(clock=FakeClock())
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_layer_metrics_average_per_operation() -> None:
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    middle = _nested(tracer, clock)
    for _ in range(2):
        middle()
    boundaries = (
        layers.Boundary("leaf", "m", "f"),
        layers.Boundary("middle", "m", "g"),
    )
    metrics = tracer.layer_metrics(2, boundaries)
    assert metrics == {
        "leaf.calls": 2.0, "leaf.s": 6.0, "leaf.self_s": 6.0,
        "middle.calls": 1.0, "middle.s": 9.0, "middle.self_s": 3.0,
    }


def test_spans_carry_parent_ids() -> None:
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    point = tracer.wrap("point", lambda: None, span=True)
    outer = tracer.enter("iteration", span=True)
    point()
    tracer.exit(outer)
    inner_span, outer_span = tracer.events
    assert inner_span["name"] == "point"
    assert inner_span["args"]["parent"] == outer_span["args"]["id"]
    assert outer_span["args"]["parent"] is None


# ----------------------------------------------------------------------
# Absent boundaries
# ----------------------------------------------------------------------


def test_absent_boundaries_are_reported_not_raised() -> None:
    tracer = layers.Tracer()
    missing = (
        layers.Boundary("gone.module", "repro_no_such_module", "f"),
        layers.Boundary("gone.attr", "json", "NoSuchClass.method"),
    )
    tracer.install(missing)
    assert tracer.capture("gone.class", "json", "NoSuchClass") == []
    assert tracer.absent == ["gone.module", "gone.attr", "gone.class"]
    assert set(tracer.layer_metrics(1, missing).values()) == {0.0}
    tracer.uninstall()


def test_install_wraps_and_uninstall_restores() -> None:
    original = json.dumps
    tracer = layers.Tracer()
    tracer.install((layers.Boundary("json.dumps", "json", "dumps"),))
    try:
        assert json.dumps is not original
        assert json.dumps([1]) == "[1]"
        tracer.suspend()
        assert json.dumps is original
        json.dumps([2])
        tracer.resume()
        json.dumps([3])
    finally:
        tracer.uninstall()
    assert json.dumps is original
    assert tracer.totals["json.dumps"][0] == 2


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def test_meter_scales_by_the_samples_around_each_interval(monkeypatch) -> None:
    samples = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(speed, "sample", lambda: next(samples) * speed.REFERENCE_S)
    meter = speed.Meter()
    assert meter.factor() == pytest.approx(0.5)  # between 1x and 3x slower
    assert meter.factor() == pytest.approx(0.5)
    assert meter.factors == [pytest.approx(0.5)] * 2


def test_sample_keeps_the_collector_state() -> None:
    assert speed.sample() > 0
    gc.disable()
    try:
        speed.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Load generator accounting
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank() -> None:
    values = [float(v) for v in range(100, 0, -1)]
    assert openloop.percentile(values, 0.50) == 50.0
    assert openloop.percentile(values, 0.99) == 99.0
    assert openloop.percentile([1.0, math.inf], 0.99) == math.inf
    with pytest.raises(ValueError):
        openloop.percentile([], 0.5)


def test_due_times() -> None:
    assert openloop.due_times(4, 2.0) == [0.0, 0.5, 1.0, 1.5]
    with pytest.raises(ValueError):
        openloop.due_times(1, 0.0)


def test_open_loop_times_from_due_and_records_lag() -> None:
    """One connection; request 1 stalls the loop for 350 ms."""
    clock = FakeClock()
    service = [0.01, 0.35, 0.01, 0.01]

    async def sleep(delay: float) -> None:
        target = clock.t + delay
        await asyncio.sleep(0)
        clock.t = max(clock.t, target) + 0.002

    async def send(index: int, connection: object) -> bool:
        clock.t += service[index]
        return True

    result = asyncio.run(
        openloop.open_loop(
            openloop.due_times(4, 10.0), ["conn"], send, clock=clock, sleep=sleep
        )
    )
    assert result.latency_ms == pytest.approx([10.0, 352.0, 264.0, 174.0])
    assert result.lag_ms == pytest.approx([0.0, 2.0, 254.0, 154.0])


def test_open_loop_counts_failures_as_infinite() -> None:
    async def send(index: int, connection: object) -> bool:
        if index == 1:
            raise ConnectionRefusedError("refused")
        return index != 2

    result = asyncio.run(
        openloop.open_loop([0.0, 0.0, 0.0], ["a", "b"], send, clock=FakeClock())
    )
    assert result.latency_ms[0] == 0.0
    assert math.isinf(result.latency_ms[1]) and math.isinf(result.latency_ms[2])


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_shape() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_result_line_declares_every_metric_and_nothing_else() -> None:
    report = workloads.Report(attempted=1, end_to_end={"setup_s": 1.0})
    with pytest.raises(RuntimeError, match="not measured"):
        run.result_line(report, trace=False)
    report.per_layer = {"cpu.access.calls": 5.0}
    line = run.result_line(report, trace=True)
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert line["metrics"]["cpu.access.calls"] == {"value": 5.0, "unit": "count"}
    report.per_layer["undeclared"] = 1.0
    with pytest.raises(RuntimeError, match="undeclared"):
        run.result_line(report, trace=True)


# ----------------------------------------------------------------------
# End to end: every workload, both modes
# ----------------------------------------------------------------------

#: Per-layer metric -> the workloads on which it must be non-zero; on
#: every other workload it must read 0 (the layer is not exercised).
EXERCISED = {
    "cpu.access.calls": {"char-ddr4", "mess-sim"},
    "cpu.engine.calls": {"char-ddr4", "mess-sim"},
    "cpu.prime.calls": {"char-ddr4", "mess-sim"},
    "cpu.llc_hit_ratio": {"char-ddr4", "mess-sim"},
    "cpu.llc_writebacks": {"char-ddr4", "mess-sim"},
    "bench.point.calls": {"char-ddr4", "mess-sim"},
    "dram.submit.calls": {"char-ddr4"},
    "dram.row_hit_ratio": {"char-ddr4"},
    "memmodels.access.calls": {"char-ddr4", "mess-sim", "probe-models"},
    "core.latency_at.calls": {"mess-sim", "probe-models"},
    "core.pi_update.calls": {"mess-sim"},
    "core.lat_err_pct": {"mess-sim"},
    "bench.probe_point.calls": {"probe-models"},
    "serve.hits": {"serve-hit"},
    "serve.misses": set(),
    "loadgen.requests": {"serve-hit"},
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(SUITE / "run.py"), "--workload", workload,
            "--seed", "2", "--seconds", "0.5", "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_measured(workload: str) -> None:
    line = _run(workload, 0)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert [name for name in line["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_exercises_the_predicted_layers(workload: str) -> None:
    line = _run(workload, 1)
    assert line["correct"]
    metrics = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name, exercised in EXERCISED.items():
        assert (metrics[name] > 0) == (workload in exercised), name
    assert metrics["engine.probe.calls"] == 0  # the default engine is scalar
