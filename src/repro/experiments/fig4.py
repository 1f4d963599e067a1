"""Figure 4: Graviton 3 vs gem5 memory models.

The reference is the calibrated Graviton 3 family (Table I / Figure 3e);
the candidates are the gem5-simple analog, the internal-DDR analog and
the Ramulator 2 analog, each characterized with the direct model probe
(the same bandwidth/latency sweep the Mess benchmark performs, minus the
CPU simulator — Section IV-D's isolation methodology). The paper's
qualitative findings to look for in the output: unrealistically low
latencies everywhere, latency *decreasing* with write share, and
Ramulator 2's bandwidth wall below half the real system's.
"""

from __future__ import annotations

from ..analysis.compare import compare_families
from ..bench.model_probe import ProbeConfig, characterize_model
from ..platforms.presets import AMAZON_GRAVITON3, family
from ..scenario import memory_factory
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "fig4"

#: Graviton 3 theoretical bandwidth (8x DDR5-4800).
_THEORETICAL = 307.0

#: The three gem5-side models of Figure 4 (b)-(d), as memory specs.
MODEL_SPECS = {
    "gem5-simple": (
        "gem5-simple",
        {
            "read_latency_ns": 30.0,
            "write_latency_ns": 4.0,
            "peak_bandwidth_gbps": _THEORETICAL,
        },
    ),
    "gem5-internal-ddr": (
        "internal-ddr",
        {
            "unloaded_latency_ns": 40.0,
            "peak_bandwidth_gbps": _THEORETICAL,
            "channels": 8,
        },
    ),
    "ramulator2": (
        "ramulator2-analog",
        {
            "base_latency_ns": 18.0,
            "theoretical_gbps": _THEORETICAL,
            "wall_fraction": 0.42,
        },
    ),
}


def _probe_config(scale: float) -> ProbeConfig:
    gaps = (0.15, 0.2, 0.25, 0.35, 0.5, 0.8, 1.4, 2.5, 5.0, 12.0, 40.0)
    if scale >= 1.5:
        gaps = tuple(sorted(set(gaps) | {0.3, 0.42, 0.65, 1.0, 1.9, 3.5, 8.0, 20.0}))
    return ProbeConfig(
        read_ratios=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        gaps_ns=gaps,
        ops_per_point=scaled(5000, scale),
        warmup_ops=scaled(800, scale),
        max_outstanding=1024,
    )


def model_factories() -> dict:
    """The three gem5-side models of Figure 4 (b)-(d)."""
    return {
        name: memory_factory(kind, params)
        for name, (kind, params) in MODEL_SPECS.items()
    }


@register("fig4", title="Graviton 3 actual system vs gem5 memory models", tags=("simulators", "gem5"), cost="moderate")
def run(scale: float = 1.0) -> ExperimentResult:
    reference = family(AMAZON_GRAVITON3)
    config = _probe_config(scale)
    result = new_result(
        EXPERIMENT_ID, ["system", "read_ratio", "bandwidth_gbps", "latency_ns"]
    )
    result.add_curves(
        (curve for curve in reference if curve.read_ratio >= 0.5), system="actual"
    )
    for name, factory in model_factories().items():
        probed = characterize_model(
            factory, config, name=name, theoretical_bandwidth_gbps=_THEORETICAL
        )
        result.add_curves(probed, system=name)
        comparison = compare_families(reference, probed)
        result.note(
            f"{name}: mean latency error "
            f"{comparison.mean_latency_error_pct:.0f}%, max simulated "
            f"bandwidth {probed.max_bandwidth_gbps:.0f} GB/s vs actual "
            f"{reference.max_bandwidth_gbps:.0f} GB/s"
        )
    return result
