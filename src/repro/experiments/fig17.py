"""Figure 17: perlbench and lbm on CXL vs remote-socket memory.

For the two characteristic SPEC workloads, the analytic runtime model
converges each application on both curve families and reports the
operating points and the performance implications: perlbench (low
bandwidth) pays the remote socket's ~28 ns latency premium, lbm (high
bandwidth) exploits the remote socket's higher saturation area.
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

EXPERIMENT_ID = "fig17"

_CASES = ("perlbench", "lbm")


@register("fig17", title="Remote-socket emulation of CXL: perlbench and lbm", tags=("cxl", "spec"), cost="cheap")
def run(scale: float = 1.0) -> ExperimentResult:
    cxl = cxl_expander_family()
    remote = remote_socket_family()
    profiles = {p.name: p for p in SPEC_CPU2006}
    result = new_result(
        EXPERIMENT_ID,
        [
            "benchmark",
            "memory",
            "bandwidth_gbps",
            "latency_ns",
            "time_per_access_ns",
        ],
    )
    for name in _CASES:
        profile = profiles[name]
        for label, fam in (("cxl", cxl), ("remote-socket", remote)):
            time_per_access, bandwidth = estimate_time_per_access(profile, fam)
            latency = fam.latency_at(bandwidth, profile.read_ratio)
            result.add(
                benchmark=name,
                memory=label,
                bandwidth_gbps=bandwidth,
                latency_ns=latency,
                time_per_access_ns=time_per_access,
            )
        delta = performance_delta_pct(profile, cxl, remote)
        direction = "higher" if delta > 0 else "lower"
        result.note(
            f"{name}: remote-socket performance {abs(delta):.1f}% "
            f"{direction} than the CXL target "
            "(paper: perlbench ~5% lower, lbm ~11% higher)"
        )
    low = cxl.latency_at(2.0, 0.9)
    low_remote = remote.latency_at(2.0, 0.9)
    result.note(
        f"low-bandwidth latency premium of the remote socket: "
        f"{low_remote - low:.0f} ns (paper: ~28 ns)"
    )
    return result
