"""Figure 13: gem5 memory-model accuracy (DDR5 platform).

Same campaign as Figure 11 but on the Graviton 3-like DDR5 substrate
with the gem5-side model zoo: the simple memory model, the internal
DDR5 model, Ramulator 2 and Mess. Paper numbers to compare against:
average errors of 30%, 15%, 52% and 3% respectively.
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

EXPERIMENT_ID = "fig13"

_CHANNELS = 2  # scaled-down DDR5 system saturable by 12 simulated cores
_CORES = 12

#: Memory spec of the 2-channel DDR5 "actual hardware" controller.
_SUBSTRATE_MEMORY = {
    "timing": "DDR5-4800",
    "channels": _CHANNELS,
    "write_queue_depth": 48,
}


@register("fig13", title="gem5 memory-model accuracy on the DDR5 substrate", tags=("mess-simulator", "gem5"), cost="expensive")
def run(scale: float = 1.0) -> ExperimentResult:
    substrate_scenario = preset_scenario("graviton-substrate-2ch", scale)
    overhead = substrate_scenario.system.hierarchy.total_hit_path_ns
    mess_family = substrate_scenario.materialize().characterize()
    theoretical = mess_family.theoretical_bandwidth_gbps
    unloaded_memory_side = max(2.0, mess_family.unloaded_latency_ns - overhead)
    model_specs = {
        "gem5-simple": (
            "gem5-simple",
            {
                "read_latency_ns": 30.0,
                "write_latency_ns": 4.0,
                "peak_bandwidth_gbps": theoretical,
            },
        ),
        "gem5-internal-ddr5": (
            "internal-ddr",
            {
                "unloaded_latency_ns": unloaded_memory_side,
                "peak_bandwidth_gbps": theoretical,
                "channels": _CHANNELS,
            },
        ),
        "ramulator2": (
            "ramulator2-analog",
            {"theoretical_gbps": theoretical},
        ),
        "mess": ("mess", {"curves": mess_family, "cpu_overhead_ns": overhead}),
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
    _, reports = run_accuracy_campaign(
        system_config=bench_system(cores=_CORES),
        actual_factory=memory_factory("cycle-accurate", _SUBSTRATE_MEMORY),
        model_factories=model_factories,
        workload_factories=workloads,
    )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="gem5 memory-model accuracy on the DDR5 substrate",
        columns=["model", "workload", "simulated", "actual", "error_pct"],
    )
    for report in reports:
        for entry in report.entries:
            result.add(
                model=entry.model_name,
                workload=entry.workload_name,
                simulated=entry.simulated,
                actual=entry.actual,
                error_pct=entry.error_pct,
            )
        result.note(
            f"{report.model_name}: mean error {report.mean_error_pct:.1f}% "
            "(paper: simple 30%, internal DDR5 15%, Ramulator 2 52%, Mess 3%)"
        )
    return result
