"""Ablations of the design choices DESIGN.md calls out.

Six studies, each a block of rows distinguished by the ``study`` column:

- ``convergence_factor`` — Mess controller gain vs settle time/stability;
- ``window_ops`` — simulation-window length vs tracking error;
- ``interpolation`` — nearest-curve vs bilinear ratio interpolation;
- ``scheduling`` — FCFS vs FR-FCFS trace replay on the DRAM substrate;
- ``page_policy`` — open vs closed page;
- ``write_queue_depth`` — drain batching vs mixed-traffic performance.
"""

from __future__ import annotations

from ..core.simulator import MessMemorySimulator, drive_fixed_rate
from ..dram.controller import DramController
from ..dram.timing import DDR4_2666
from ..platforms.presets import INTEL_SKYLAKE, family
from ..scenario import build_memory
from ..traces.driver import (
    replay_trace,
    replay_trace_frfcfs,
    synthesize_mess_trace,
)
from .base import ExperimentResult, scaled
from .registry import register

EXPERIMENT_ID = "ablation"

#: Base spec of the DRAM substrate the scheduling/page/queue studies use.
_SUBSTRATE = {"timing": "DDR4-2666", "channels": 6}


def _drive_simulator(
    simulator: MessMemorySimulator, gap_ns: float, ops: int
) -> tuple[int, float]:
    """Open-loop drive at a fixed rate; returns (windows to settle, final bw).

    Settling is the first window whose estimate is within 5% of the
    offered bandwidth (64 bytes / gap).
    """
    estimates = drive_fixed_rate(simulator, gap_ns, ops)
    offered = 64.0 / gap_ns
    settle = len(estimates)
    for index, estimate in enumerate(estimates):
        if abs(estimate - offered) <= 0.05 * offered:
            settle = index + 1
            break
    final = estimates[-1] if estimates else 0.0
    return settle, final


@register("ablation", title="Design-choice ablations", tags=("ablation",), cost="expensive")
def run(scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Design-choice ablations",
        columns=["study", "setting", "metric", "value"],
    )
    skylake = family(INTEL_SKYLAKE)
    ops = scaled(20000, scale)

    # 1. convergence factor --------------------------------------------------
    for factor in (0.1, 0.25, 0.5, 0.75, 1.0):
        simulator = build_memory(
            "mess",
            {"curves": skylake, "convergence_factor": factor},
        )
        settle, final = _drive_simulator(simulator, gap_ns=1.0, ops=ops)
        result.add(
            study="convergence_factor",
            setting=f"{factor:.2f}",
            metric="windows_to_settle",
            value=float(settle),
        )
        result.add(
            study="convergence_factor",
            setting=f"{factor:.2f}",
            metric="final_bandwidth_gbps",
            value=final,
        )

    # 2. window length -------------------------------------------------------
    for window in (100, 300, 1000, 3000):
        simulator = build_memory(
            "mess",
            {"curves": skylake, "window_ops": window},
        )
        settle, final = _drive_simulator(simulator, gap_ns=1.0, ops=ops)
        result.add(
            study="window_ops",
            setting=str(window),
            metric="windows_to_settle",
            value=float(settle),
        )
        result.add(
            study="window_ops",
            setting=str(window),
            metric="ops_to_settle",
            value=float(settle * window),
        )

    # 3. interpolation scheme ------------------------------------------------
    probe_bw = 0.6 * skylake.max_bandwidth_gbps
    for ratio in (0.55, 0.65, 0.75, 0.85, 0.95):
        nearest = skylake.latency_at(probe_bw, ratio, interpolate=False)
        bilinear = skylake.latency_at(probe_bw, ratio, interpolate=True)
        result.add(
            study="interpolation",
            setting=f"ratio={ratio:.2f}",
            metric="nearest_minus_bilinear_ns",
            value=nearest - bilinear,
        )

    # 4. FCFS vs FR-FCFS trace scheduling -------------------------------------
    trace = synthesize_mess_trace(
        ops=scaled(6000, scale), read_ratio=0.75, gap_ns=0.6, streams=24
    )
    fcfs_model = build_memory("cycle-accurate", _SUBSTRATE)
    fcfs = replay_trace(fcfs_model, trace)
    frfcfs = replay_trace_frfcfs(
        DramController(DDR4_2666, channels=6), trace, window=16
    )
    result.add(
        study="scheduling", setting="fcfs", metric="bandwidth_gbps",
        value=fcfs.bandwidth_gbps,
    )
    result.add(
        study="scheduling", setting="fcfs", metric="mean_read_latency_ns",
        value=fcfs.mean_read_latency_ns,
    )
    result.add(
        study="scheduling", setting="frfcfs", metric="bandwidth_gbps",
        value=frfcfs.bandwidth_gbps,
    )
    result.add(
        study="scheduling", setting="frfcfs", metric="mean_read_latency_ns",
        value=frfcfs.mean_read_latency_ns,
    )

    # 5. page policy ----------------------------------------------------------
    for policy in ("open", "closed"):
        model = build_memory(
            "cycle-accurate", {**_SUBSTRATE, "page_policy": policy}
        )
        replay = replay_trace(model, trace)
        hit, empty, miss = model.row_buffer_stats().rates()
        result.add(
            study="page_policy", setting=policy, metric="bandwidth_gbps",
            value=replay.bandwidth_gbps,
        )
        result.add(
            study="page_policy", setting=policy, metric="row_hit_rate",
            value=hit,
        )

    # 6. write-queue depth ----------------------------------------------------
    mixed_trace = synthesize_mess_trace(
        ops=scaled(6000, scale), read_ratio=0.5, gap_ns=0.6, streams=24
    )
    for depth in (4, 16, 48, 128):
        model = build_memory(
            "cycle-accurate", {**_SUBSTRATE, "write_queue_depth": depth}
        )
        replay = replay_trace(model, mixed_trace)
        result.add(
            study="write_queue_depth",
            setting=str(depth),
            metric="bandwidth_gbps",
            value=replay.bandwidth_gbps,
        )
        result.add(
            study="write_queue_depth",
            setting=str(depth),
            metric="mean_read_latency_ns",
            value=replay.mean_read_latency_ns,
        )
    return result
