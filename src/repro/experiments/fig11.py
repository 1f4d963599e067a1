"""Figure 11: simulation error and speed of six ZSim memory models.

STREAM, LMbench and Google multichase run on the "actual" platform (the
cycle-level substrate) and on the same system wired to each memory
model; per-benchmark relative errors and per-model wall-clock times are
reported. The paper's headline numbers here: Mess 1.3% average error,
fixed-latency and Ramulator above 80%, Mess only ~26% slower than
fixed latency and 13-15x faster than the cycle-accurate external
simulators.
"""

from __future__ import annotations

from ..analysis.error import run_accuracy_campaign
from ..scenario import memory_factory
from ..workloads.lmbench import LmbenchLatency
from ..workloads.multichase import Multichase
from ..workloads.stream import StreamWorkload
from .base import ExperimentResult, scaled
from .common import bench_system, preset_scenario
from .registry import register

EXPERIMENT_ID = "fig11"

_THEORETICAL = 128.0
_CORES = 12

#: Memory spec of the reference "actual hardware" controller.
_SUBSTRATE_MEMORY = {
    "timing": "DDR4-2666",
    "channels": 6,
    "write_queue_depth": 48,
}


@register("fig11", title="ZSim memory-model accuracy and speed vs the actual platform", tags=("mess-simulator", "accuracy"), cost="expensive")
def run(scale: float = 1.0) -> ExperimentResult:
    substrate_scenario = preset_scenario("skylake-substrate", scale)
    overhead = substrate_scenario.system.hierarchy.total_hit_path_ns
    mess_family = substrate_scenario.materialize().characterize()
    # the fixed-latency model is tuned to the unloaded memory-side
    # latency, as the paper notes a user would do
    fixed_latency = max(2.0, mess_family.unloaded_latency_ns - overhead)
    model_specs = {
        "fixed-latency": ("fixed-latency", {"latency_ns": fixed_latency}),
        "md1": (
            "md1",
            {
                "unloaded_latency_ns": fixed_latency,
                "peak_bandwidth_gbps": _THEORETICAL,
            },
        ),
        "internal-ddr": (
            "internal-ddr",
            {
                "unloaded_latency_ns": fixed_latency,
                "peak_bandwidth_gbps": _THEORETICAL,
                "channels": 6,
            },
        ),
        "dramsim3": ("dramsim3-analog", {"theoretical_gbps": _THEORETICAL}),
        "ramulator": ("ramulator-analog", {"theoretical_gbps": _THEORETICAL}),
        "mess": (
            "mess",
            {"curves": mess_family, "cpu_overhead_ns": overhead},
        ),
        # the detailed controller itself, as the cycle-accurate speed
        # anchor (its error is ~0 by construction — it IS the reference)
        "cycle-accurate(dram)": ("cycle-accurate", _SUBSTRATE_MEMORY),
    }
    model_factories = {
        name: memory_factory(kind, params)
        for name, (kind, params) in model_specs.items()
    }
    lines = scaled(5000, scale)
    chase = scaled(2200, scale)
    workloads = [
        lambda: StreamWorkload(kernel="triad", lines_per_core=lines),
        lambda: LmbenchLatency(chase_ops=chase),
        lambda: Multichase(chase_ops=chase, parallel_chases=2),
    ]
    actual_scores, reports = run_accuracy_campaign(
        system_config=bench_system(cores=_CORES),
        actual_factory=memory_factory("cycle-accurate", _SUBSTRATE_MEMORY),
        model_factories=model_factories,
        workload_factories=workloads,
    )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="ZSim memory-model accuracy and speed vs the actual platform",
        columns=[
            "model",
            "workload",
            "simulated",
            "actual",
            "error_pct",
            "mean_error_pct",
            "wall_time_s",
        ],
    )
    fixed_time = next(
        r.wall_time_s for r in reports if r.model_name == "fixed-latency"
    )
    for report in reports:
        for entry in report.entries:
            result.add(
                model=entry.model_name,
                workload=entry.workload_name,
                simulated=entry.simulated,
                actual=entry.actual,
                error_pct=entry.error_pct,
                mean_error_pct=report.mean_error_pct,
                wall_time_s=report.wall_time_s,
            )
        result.note(
            f"{report.model_name}: mean error {report.mean_error_pct:.1f}%, "
            f"wall time {report.wall_time_s:.2f}s "
            f"({report.wall_time_s / fixed_time:.2f}x fixed-latency)"
        )
    return result
