"""Figure 15: Mess profile of HPCG on the Cascade Lake server.

The HPCG phase profile is sampled at the Extrae period and positioned
on the Cascade Lake curves; each sample carries its memory stress score.
The paper's headline readings — most of the execution in the saturated
area above ~75 GB/s, sporadic peaks at 260-290 ns — are emitted as
computed notes.
"""

from __future__ import annotations

from ..core.metrics import compute_metrics
from ..platforms.presets import INTEL_CASCADE_LAKE, family
from ..profiling.profile import MessProfile
from ..profiling.sampler import sample_phase_profile
from ..workloads.hpcg import HpcgPhaseProfile
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "fig15"


@register("fig15", title="HPCG positioned on the Cascade Lake bandwidth-latency curves", tags=("profiling", "hpcg"), cost="cheap")
def run(scale: float = 1.0) -> ExperimentResult:
    curves = family(INTEL_CASCADE_LAKE)
    metrics = compute_metrics(curves)
    profile_timeline = HpcgPhaseProfile(iterations=scaled(2, scale))
    samples = sample_phase_profile(
        profile_timeline,
        peak_bandwidth_gbps=metrics.max_measured_bandwidth_gbps,
        sample_ms=10.0,
    )
    profile = MessProfile.from_samples(curves, samples)
    result = new_result(
        EXPERIMENT_ID,
        [
            "time_ms",
            "phase",
            "bandwidth_gbps",
            "latency_ns",
            "stress_score",
            "color",
        ],
    )
    for point in profile.points:
        result.add(
            time_ms=point.sample.start_ns / 1e6,
            phase=point.sample.phase,
            bandwidth_gbps=point.sample.bandwidth_gbps,
            latency_ns=point.latency_ns,
            stress_score=point.stress_score,
            color=point.color,
        )
    saturated = profile.saturated_time_fraction()
    onset = curves.nearest(0.8).saturation_bandwidth_gbps()
    result.note(
        f"{100 * saturated:.0f}% of the execution sits in the saturated "
        f"bandwidth area (onset ~{onset:.0f} GB/s; paper: most of the "
        "execution above 75 GB/s)"
    )
    result.note(
        f"peak sampled bandwidth {profile.peak_bandwidth_gbps():.0f} GB/s "
        f"with peak latency {profile.peak_latency_ns():.0f} ns "
        "(paper: 260-290 ns)"
    )
    histogram = profile.color_histogram()
    result.note(
        f"stress gradient: {histogram['green']} green, "
        f"{histogram['yellow']} yellow, {histogram['red']} red samples; "
        f"time-weighted mean stress {profile.time_weighted_mean_stress():.2f}"
    )
    return result
