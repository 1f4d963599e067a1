"""Figure 12: gem5 + Mess, single channel, scaled to the full system.

The paper's gem5 experiments simulate 16 cores against a single DDR5 or
HBM2 channel (a full 64-core, 8-channel simulation would take over a
year) and scale the resulting curves by the channel count for the
comparison with the actual system. We do the same: the Mess simulator
is fed the Graviton 3 (or A64FX) calibrated family scaled down to one
channel, a 16-core system characterizes it, and the measured family is
scaled back up and compared against the original.
"""

from __future__ import annotations

from ..analysis.compare import compare_families
from ..platforms.presets import AMAZON_GRAVITON3, FUJITSU_A64FX, family
from ..scenario import BENCH_HIERARCHY, characterization
from .base import ExperimentResult
from .registry import new_result, register

EXPERIMENT_ID = "fig12"

#: (label, platform spec, channels to scale by)
SUBFIGURES = (
    ("ddr5", AMAZON_GRAVITON3, 8),
    ("hbm2", FUJITSU_A64FX, 32),
)


@register("fig12", title="gem5-style system + Mess on one channel, scaled to full", tags=("mess-simulator", "gem5"), cost="expensive")
def run(scale: float = 1.0) -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID,
        [
            "memory",
            "system",
            "read_ratio",
            "bandwidth_gbps",
            "latency_ns",
        ],
    )
    overhead = BENCH_HIERARCHY.total_hit_path_ns
    for label, spec, channels in SUBFIGURES:
        reference = family(spec)
        one_channel = reference.scaled_bandwidth(
            1.0 / channels, name=f"{spec.name} (1 channel)"
        )
        scenario = characterization(
            name=f"gem5+mess-{label}",
            memory_kind="mess",
            memory_params={"curves": one_channel, "cpu_overhead_ns": overhead},
            scale=scale,
            cores=16,
            theoretical_bandwidth_gbps=one_channel.theoretical_bandwidth_gbps,
        )
        simulated_scaled = scenario.materialize().characterize().scaled_bandwidth(
            channels, name=f"gem5+mess {label} (scaled x{channels})"
        )
        result.add_curves(reference, memory=label, system="actual")
        result.add_curves(
            simulated_scaled, memory=label, system=f"gem5+mess(x{channels})"
        )
        comparison = compare_families(reference, simulated_scaled)
        result.note(
            f"{label}: unloaded latency error "
            f"{comparison.unloaded_latency_error_pct:.1f}%, saturated "
            f"bandwidth error {comparison.saturated_bw_error_pct:.1f}%"
        )
    return result
