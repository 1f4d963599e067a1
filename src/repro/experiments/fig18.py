"""Figure 18: remote-socket vs CXL across all SPEC CPU2006 workloads.

Every SPEC profile is converged on both curve families; the performance
difference is plotted against the benchmark's bandwidth utilization
(sorted ascending, the paper's x-axis). Shape to reproduce: negative
deltas (remote slower) for low-bandwidth workloads, parity in the
30-50% utilization band, +11-22% for the bandwidth-bound tail.
"""

from __future__ import annotations

from ..platforms.presets import cxl_expander_family, remote_socket_family
from ..workloads.spec_mix import (
    SPEC_CPU2006,
    estimate_time_per_access,
    performance_delta_pct,
)
from .base import ExperimentResult
from .registry import new_result, register

EXPERIMENT_ID = "fig18"


@register("fig18", title="Remote-socket vs CXL performance across SPEC CPU2006", tags=("cxl", "spec"), cost="cheap")
def run(scale: float = 1.0) -> ExperimentResult:
    cxl = cxl_expander_family()
    remote = remote_socket_family()
    theoretical = cxl.theoretical_bandwidth_gbps
    rows = []
    for profile in SPEC_CPU2006:
        _, bandwidth = estimate_time_per_access(profile, cxl)
        delta = performance_delta_pct(profile, cxl, remote)
        rows.append(
            {
                "benchmark": profile.name,
                "cxl_bandwidth_gbps": bandwidth,
                "utilization_pct": 100.0 * bandwidth / theoretical,
                "delta_pct": delta,
            }
        )
    rows.sort(key=lambda row: row["utilization_pct"])
    result = new_result(
        EXPERIMENT_ID,
        [
            "benchmark",
            "cxl_bandwidth_gbps",
            "utilization_pct",
            "delta_pct",
        ],
    )
    for row in rows:
        result.add(**row)
    low = [r["delta_pct"] for r in rows if r["utilization_pct"] < 30]
    high = [r["delta_pct"] for r in rows if r["utilization_pct"] > 55]
    result.note(
        f"low-utilization workloads: {min(low):.0f}% to {max(low):.0f}% "
        "(paper: down to -12%)"
    )
    result.note(
        f"high-utilization workloads: +{min(high):.0f}% to +{max(high):.0f}% "
        "(paper: +11% to +22%)"
    )
    return result
