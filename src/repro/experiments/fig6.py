"""Figure 6: trace-driven evaluation of cycle-accurate simulators.

Mess-shaped memory traces are replayed, at a sweep of pressures and
read/write mixes, through the three external-simulator analogs and —
as the "actual hardware" row — the cycle-level DRAM controller. The
trace-driven isolation removes the CPU simulator and its interface from
the equation, which is exactly how Section IV-D separates interface
errors (ZSim-side) from the simulators' own modeling errors.
"""

from __future__ import annotations

from ..scenario import memory_factory
from ..traces.driver import replay_trace, synthesize_mess_trace
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "fig6"

_THEORETICAL = 128.0

#: Declarative model zoo: label -> (memory kind, params).
MODEL_SPECS = {
    "actual(dram)": (
        "cycle-accurate",
        {"timing": "DDR4-2666", "channels": 6, "write_queue_depth": 48},
    ),
    "ramulator2": ("ramulator2-analog", {"theoretical_gbps": _THEORETICAL}),
    "dramsim3": ("dramsim3-analog", {"theoretical_gbps": _THEORETICAL}),
    "ramulator": ("ramulator-analog", {"theoretical_gbps": _THEORETICAL}),
}


def model_factories() -> dict:
    return {
        name: memory_factory(kind, params)
        for name, (kind, params) in MODEL_SPECS.items()
    }


@register("fig6", title="Trace-driven cycle-accurate simulators vs actual curves", tags=("simulators", "trace-driven"), cost="moderate")
def run(scale: float = 1.0) -> ExperimentResult:
    read_ratios = (0.5, 0.75, 1.0) if scale < 1.5 else (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    pressures = (
        (0.15, 0.4, 1.0, 2.5, 6.0)
        if scale < 1.5
        else (0.1, 0.2, 0.4, 0.7, 1.0, 1.6, 2.5, 4.0, 6.0, 10.0)
    )
    ops = scaled(6000, scale)
    result = new_result(
        EXPERIMENT_ID,
        [
            "simulator",
            "read_ratio",
            "pressure",
            "bandwidth_gbps",
            "latency_ns",
        ],
    )
    for name, factory in model_factories().items():
        for ratio in read_ratios:
            records = synthesize_mess_trace(
                ops=ops, read_ratio=ratio, gap_ns=2.0, streams=24
            )
            for pressure in pressures:
                model = factory()
                replay = replay_trace(model, records, pressure=pressure, max_outstanding=512)
                result.add(
                    simulator=name,
                    read_ratio=ratio,
                    pressure=pressure,
                    bandwidth_gbps=replay.bandwidth_gbps,
                    latency_ns=replay.mean_read_latency_ns,
                )

    def peak(name: str) -> float:
        return max(
            row["bandwidth_gbps"]
            for row in result.rows
            if row["simulator"] == name
        )

    result.note(
        f"max bandwidth: actual {peak('actual(dram)'):.0f} GB/s, "
        f"ramulator2 {peak('ramulator2'):.0f} GB/s (the paper's "
        "less-than-half wall), dramsim3 "
        f"{peak('dramsim3'):.0f} GB/s, ramulator {peak('ramulator'):.0f} GB/s"
    )
    return result
