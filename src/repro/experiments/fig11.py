"""Figure 11: simulation error of six ZSim memory models.

STREAM, LMbench and Google multichase run on the "actual" platform (the
cycle-level substrate) and on the same system wired to each memory
model; per-benchmark relative errors are reported. The paper's headline
numbers here: Mess 1.3% average error, fixed-latency and Ramulator
above 80%. Its speed claim (Mess ~26% slower than fixed latency) is
measured beside the result: ``repro run fig11 --no-cache --trace
t.json`` records one ``accuracy.<model>`` span per model, and ``repro
telemetry summarize t.json`` totals them.
"""

from __future__ import annotations

from ..analysis.error import accuracy_workloads, run_accuracy_campaign
from ..scenario import bench_system, memory_factory, preset_scenario
from .base import ExperimentResult
from .registry import new_result, register

EXPERIMENT_ID = "fig11"

_THEORETICAL = 128.0
_CORES = 12


@register("fig11", title="ZSim memory-model accuracy vs the actual platform", tags=("mess-simulator", "accuracy"), cost="expensive")
def run(scale: float = 1.0) -> ExperimentResult:
    substrate_scenario = preset_scenario("skylake-substrate", scale)
    overhead = substrate_scenario.system.hierarchy.total_hit_path_ns
    substrate_machine = substrate_scenario.materialize()
    mess_family = substrate_machine.characterize()
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
    }
    model_factories = {
        name: memory_factory(kind, params)
        for name, (kind, params) in model_specs.items()
    }
    # the detailed controller itself, as the cycle-accurate speed
    # anchor (its error is ~0 by construction — it IS the reference)
    model_factories["cycle-accurate(dram)"] = substrate_machine.memory_factory
    reports = run_accuracy_campaign(
        system_config=bench_system(cores=_CORES),
        actual_factory=substrate_machine.memory_factory,
        model_factories=model_factories,
        workload_factories=accuracy_workloads(scale),
    )
    result = new_result(
        EXPERIMENT_ID,
        [
            "model",
            "workload",
            "simulated",
            "actual",
            "error_pct",
            "mean_error_pct",
        ],
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
            )
        result.note(f"{report.model_name}: mean error {report.mean_error_pct:.1f}%")
    return result
