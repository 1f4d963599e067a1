"""Figure 16: HPCG timeline — MPI calls, compute phases, stress score.

Two HPCG iterations are profiled, the timeline is cut at MPI_Allreduce
delimiters (the paper's method for finding the main loop), per-phase
stress is summarized, and the three-strip ASCII timeline replaces the
Paraver screenshot. The paper's reading — the longest compute phase
shows two distinct stress levels (0.71 falling to 0.64 halfway) — maps
to our ``spmv_head`` / ``spmv_tail`` split.
"""

from __future__ import annotations

from ..core.metrics import compute_metrics
from ..platforms.presets import INTEL_CASCADE_LAKE, family
from ..profiling.profile import MessProfile
from ..profiling.sampler import sample_phase_profile
from ..profiling.timeline import render_timeline, split_iterations
from ..workloads.hpcg import HpcgPhaseProfile
from .base import ExperimentResult
from .registry import new_result, register

EXPERIMENT_ID = "fig16"


@register("fig16", title="HPCG timeline: iterations, phases and memory stress", tags=("profiling", "hpcg"), cost="cheap")
def run(scale: float = 1.0) -> ExperimentResult:
    curves = family(INTEL_CASCADE_LAKE)
    metrics = compute_metrics(curves)
    timeline = HpcgPhaseProfile(iterations=2)
    samples = sample_phase_profile(
        timeline,
        peak_bandwidth_gbps=metrics.max_measured_bandwidth_gbps,
        sample_ms=10.0,
    )
    profile = MessProfile.from_samples(curves, samples)
    iterations = split_iterations(profile, delimiter_mpi="MPI_Allreduce")
    result = new_result(
        EXPERIMENT_ID,
        [
            "iteration",
            "phase",
            "mpi_call",
            "start_ms",
            "duration_ms",
            "mean_stress",
        ],
    )
    for iteration in iterations:
        for phase in iteration.phases:
            result.add(
                iteration=iteration.index,
                phase=phase.label,
                mpi_call=phase.mpi_call or "",
                start_ms=phase.start_ns / 1e6,
                duration_ms=phase.duration_ns / 1e6,
                mean_stress=phase.mean_stress,
            )
    longest = iterations[0].longest_phase
    head = next(
        p for p in iterations[0].phases if p.label == "spmv_head"
    )
    tail = next(
        p for p in iterations[0].phases if p.label == "spmv_tail"
    )
    result.note(
        f"{len(iterations)} iterations delimited by MPI_Allreduce; the "
        f"longest compute phase is {longest.label} "
        f"({longest.duration_ns / 1e6:.0f} ms)"
    )
    result.note(
        f"two stress levels inside the long SpMV phase: head "
        f"{head.mean_stress:.2f}, tail {tail.mean_stress:.2f} "
        "(paper: 0.71 falling to 0.64)"
    )
    result.note("timeline:\n" + render_timeline(profile))
    return result
