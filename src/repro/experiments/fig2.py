"""Figure 2: the Mess curve family of the Intel Skylake server.

Emits the full bandwidth-latency point cloud (one row per measurement
point, curves distinguished by read ratio), the derived metric
annotations drawn on the figure (unloaded latency, maximum latency
range, saturated bandwidth range, the waveform segments) and the STREAM
kernel verticals.
"""

from __future__ import annotations

from ..core.metrics import compute_metrics
from ..platforms.presets import INTEL_SKYLAKE, family
from .base import ExperimentResult
from .registry import new_result, register

EXPERIMENT_ID = "fig2"


@register("fig2", title="Skylake bandwidth-latency curve family with derived metrics", tags=("curves",), cost="cheap")
def run(scale: float = 1.0) -> ExperimentResult:
    spec = INTEL_SKYLAKE
    curves = family(spec)
    metrics = compute_metrics(curves)
    result = new_result(
        EXPERIMENT_ID, ["series", "read_ratio", "bandwidth_gbps", "latency_ns"]
    )
    result.add_curves(curves, series="curve")
    stream_lo, stream_hi = spec.stream_bandwidth_range_gbps
    for label, bandwidth in (("stream_min", stream_lo), ("stream_max", stream_hi)):
        result.add(
            series=label, read_ratio=None, bandwidth_gbps=bandwidth, latency_ns=None
        )
    result.note(
        f"unloaded latency {metrics.unloaded_latency_ns:.0f} ns; "
        f"maximum latency range {metrics.max_latency_min_ns:.0f}-"
        f"{metrics.max_latency_max_ns:.0f} ns; saturated bandwidth "
        f"{metrics.saturated_bw_min_pct:.0f}-{metrics.saturated_bw_max_pct:.0f}% "
        f"of {spec.theoretical_bw_gbps:.0f} GB/s"
    )
    result.note(
        f"{metrics.waveform_curves} curves show the bandwidth-decline "
        "waveform (Section III)"
    )
    return result
