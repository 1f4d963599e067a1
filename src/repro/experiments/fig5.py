"""Figure 5: Intel Skylake vs the five ZSim memory models.

Fixed-latency, M/D/1, internal DDR, DRAMsim3 and Ramulator (the last
two as their measured-signature analogs) are probed into curve families
and compared against the calibrated Skylake reference. Findings to see
in the output, mirroring Section IV-B: the fixed model's unbounded
bandwidth (2.7x theoretical), M/D/1 correct in the linear region only,
internal DDR under-reporting the saturated area and over-penalizing
writes, DRAMsim3 never saturating, Ramulator flat at ~25 ns.
"""

from __future__ import annotations

from ..analysis.compare import compare_families
from ..bench.model_probe import ProbeConfig, characterize_model
from ..platforms.presets import INTEL_SKYLAKE, family
from ..scenario import memory_factory
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "fig5"

_THEORETICAL = 128.0

#: The five ZSim-side memory models of Figure 5 (b)-(f), as specs.
MODEL_SPECS = {
    "fixed-latency": ("fixed-latency", {"latency_ns": 89.0}),
    "md1": (
        "md1",
        {"unloaded_latency_ns": 89.0, "peak_bandwidth_gbps": _THEORETICAL},
    ),
    "internal-ddr": (
        "internal-ddr",
        {
            "unloaded_latency_ns": 89.0,
            "peak_bandwidth_gbps": _THEORETICAL,
            "channels": 6,
        },
    ),
    "dramsim3": ("dramsim3-analog", {"theoretical_gbps": _THEORETICAL}),
    "ramulator": ("ramulator-analog", {"theoretical_gbps": _THEORETICAL}),
}


def model_factories() -> dict:
    """The five ZSim-side memory models of Figure 5 (b)-(f)."""
    return {
        name: memory_factory(kind, params)
        for name, (kind, params) in MODEL_SPECS.items()
    }


def _probe_config(scale: float) -> ProbeConfig:
    gaps = (0.12, 0.18, 0.3, 0.45, 0.7, 1.1, 1.8, 3.0, 6.0, 15.0, 45.0)
    if scale >= 1.5:
        gaps = tuple(
            sorted(set(gaps) | {0.37, 0.55, 0.9, 1.4, 2.3, 4.2, 9.0, 25.0})
        )
    return ProbeConfig(
        read_ratios=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        gaps_ns=gaps,
        ops_per_point=scaled(5000, scale),
        warmup_ops=scaled(800, scale),
        max_outstanding=1024,
    )


@register("fig5", title="Skylake actual system vs five ZSim memory models", tags=("simulators", "zsim"), cost="moderate")
def run(scale: float = 1.0) -> ExperimentResult:
    reference = family(INTEL_SKYLAKE)
    config = _probe_config(scale)
    result = new_result(
        EXPERIMENT_ID, ["system", "read_ratio", "bandwidth_gbps", "latency_ns"]
    )
    result.add_curves(reference, system="actual")
    for name, factory in model_factories().items():
        probed = characterize_model(
            factory, config, name=name, theoretical_bandwidth_gbps=_THEORETICAL
        )
        result.add_curves(probed, system=name)
        comparison = compare_families(reference, probed)
        result.note(
            f"{name}: unloaded latency error "
            f"{comparison.unloaded_latency_error_pct:.0f}%, mean latency "
            f"error {comparison.mean_latency_error_pct:.0f}%, max bandwidth "
            f"{probed.max_bandwidth_gbps:.0f} GB/s "
            f"({probed.max_bandwidth_gbps / _THEORETICAL:.1f}x theoretical)"
        )
    return result
