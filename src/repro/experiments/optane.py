"""Optane support (Section V-B footnote).

The released Mess simulator supports Intel Optane, characterized on a
Cascade Lake host with two 128 GB DIMMs in App Direct mode. The paper
does not analyze Optane further (the technology was discontinued), so
this experiment validates the support rather than reproducing a figure:
the Optane model is probed into curves, compared against the preset
family, and the Mess simulator is run with those curves.
"""

from __future__ import annotations

from ..analysis.compare import compare_families
from ..bench.model_probe import ProbeConfig, characterize_model
from ..core.simulator import drive_fixed_rate
from ..memmodels.optane import OptaneModel
from ..platforms.presets import optane_family
from ..scenario import build_memory
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "optane"


def probed_curves(scale: float = 1.0):
    """Characterize the Optane device model directly."""
    config = ProbeConfig(
        read_ratios=(0.5, 0.75, 1.0),
        gaps_ns=(5.0, 8.0, 12.0, 20.0, 40.0, 100.0),
        ops_per_point=scaled(3000, scale),
        warmup_ops=scaled(400, scale),
        streams=4,
        max_outstanding=48,
    )
    return characterize_model(
        OptaneModel,
        config,
        name="optane-probed",
        theoretical_bandwidth_gbps=13.2,
    )


@register("optane", title="Optane App Direct: device model, curves, Mess simulation", tags=("optane", "case-study"), cost="cheap")
def run(scale: float = 1.0) -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID, ["source", "read_ratio", "bandwidth_gbps", "latency_ns"]
    )
    preset = optane_family()
    probed = probed_curves(scale)
    result.add_curves(preset, source="preset")
    result.add_curves(probed, source="probed-device")
    comparison = compare_families(preset, probed)
    result.note(
        f"probed device vs preset family: unloaded latency error "
        f"{comparison.unloaded_latency_error_pct:.0f}%, peak bandwidth "
        f"error {comparison.saturated_bw_error_pct:.0f}%"
    )
    # drive the Mess simulator with the curves at a modest fixed rate
    # (offered 8 GB/s of reads against a ~13 GB/s device)
    simulator = build_memory("mess", {"curves": preset, "window_ops": 250})
    drive_fixed_rate(simulator, 8.0, scaled(6000, scale))
    result.note(
        f"Mess simulator on the Optane curves converges to "
        f"{simulator.current_position_gbps:.1f} GB/s at "
        f"{simulator.current_latency_ns:.0f} ns (offered 8 GB/s of reads)"
    )
    writes_peak = preset[0.5].max_bandwidth_gbps
    reads_peak = preset[1.0].max_bandwidth_gbps
    result.note(
        f"write asymmetry: 50/50 traffic peaks at {writes_peak:.1f} GB/s "
        f"vs {reads_peak:.1f} GB/s for reads (DRAM loses ~20-30%; Optane "
        "loses ~50% — the persistent-memory write penalty)"
    )
    return result
