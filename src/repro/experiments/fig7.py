"""Figure 7: row-buffer hit/empty/miss statistics.

Compares three sources across a bandwidth sweep for 100%-read and
50/50 traffic:

- ``actual(dram)`` — measured from the cycle-level controller while
  replaying Mess-shaped traces (our hardware-counter analog);
- ``dramsim3`` / ``ramulator`` — the *measured signatures* the paper
  reports for those simulators, emitted by signature functions (the
  analogs themselves model no row buffers; DESIGN.md section 2 records
  the substitution). DRAMsim3's signature: 84-93% hits regardless of
  load, highest at the extreme mixes; Ramulator's: closer to hardware
  but with inflated hits for write-heavy traffic.
"""

from __future__ import annotations

from ..analysis.rowbuffer import census_sweep
from ..dram.timing import DDR4_2666
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "fig7"


def dramsim3_signature(read_ratio: float, bandwidth_gbps: float) -> tuple:
    """(hit, empty, miss) rates matching the paper's DRAMsim3 findings."""
    extremity = abs(read_ratio - 0.5) * 2.0  # 0 at 50/50, 1 at extremes
    hit = 0.84 + 0.09 * extremity
    if bandwidth_gbps < 4.0:
        # the paper's anomalous low-bandwidth points: < 35% hits
        hit = 0.32
    miss = 1.0 - hit
    return hit, 0.0, miss


def ramulator_signature(read_ratio: float, bandwidth_gbps: float) -> tuple:
    """(hit, empty, miss) rates matching the paper's Ramulator findings."""
    load = min(1.0, bandwidth_gbps / 110.0)
    hit = 0.84 - 0.25 * load
    # >40% write traffic: hit rates greatly exceed the actual ones
    if read_ratio < 0.6:
        hit = min(0.95, hit + 0.25)
    empty = min(0.10 * (1.0 - load), 1.0 - hit)
    miss = max(0.0, 1.0 - hit - empty)
    return hit, empty, miss


@register("fig7", title="Row-buffer statistics: actual vs DRAMsim3 vs Ramulator", tags=("dram", "row-buffer"), cost="moderate")
def run(scale: float = 1.0) -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID,
        [
            "source",
            "read_ratio",
            "bandwidth_gbps",
            "hit_rate",
            "empty_rate",
            "miss_rate",
        ],
    )
    pressures = (0.25, 1.0, 4.0) if scale < 1.5 else (0.15, 0.3, 0.6, 1.2, 2.5, 5.0)
    for ratio in (1.0, 0.5):
        censuses = census_sweep(
            DDR4_2666,
            channels=6,
            read_ratio=ratio,
            pressures=pressures,
            ops=scaled(7000, scale),
        )
        for census in censuses:
            result.add(
                source="actual(dram)",
                read_ratio=ratio,
                bandwidth_gbps=census.bandwidth_gbps,
                hit_rate=census.hit_rate,
                empty_rate=census.empty_rate,
                miss_rate=census.miss_rate,
            )
            for name, signature in (
                ("dramsim3", dramsim3_signature),
                ("ramulator", ramulator_signature),
            ):
                hit, empty, miss = signature(ratio, census.bandwidth_gbps)
                result.add(
                    source=name,
                    read_ratio=ratio,
                    bandwidth_gbps=census.bandwidth_gbps,
                    hit_rate=hit,
                    empty_rate=empty,
                    miss_rate=miss,
                )
    result.note(
        "dramsim3/ramulator rows are measured-signature reproductions "
        "(the paper's Figure 7 readings), not emergent simulations"
    )
    result.note(
        "known deviation: our sequential-stream substrate shows hit rates "
        "rising with load; the paper's hardware shows the opposite trend "
        "(EXPERIMENTS.md)"
    )
    return result
