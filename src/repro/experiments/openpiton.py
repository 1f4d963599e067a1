"""Section IV-C: OpenPiton Metro-MPI findings.

Two findings are reproduced on the in-order, 2-entry-MSHR,
prefetcher-less system (the Ariane configuration):

1. **Concurrency-limited bandwidth.** With a fixed-latency memory,
   100%-read traffic is capped far below the device limit by the tiny
   MSHRs (the paper measures 32 GB/s), while adding posted writes—which
   do not stall the in-order cores—raises the total (47 GB/s at 50/50).
2. **The coherency bug.** The OpenPiton-generated protocol evicted
   *all* LLC lines as if dirty. With the fault injection enabled, the
   measured write traffic exceeds the write-allocate expectation; the
   Mess benchmark flags it exactly the way the paper discovered the bug
   (write traffic "significantly higher than anticipated").
"""

from __future__ import annotations

from ..bench.harness import MessBenchmarkConfig
from ..bench.traffic_gen import read_ratio_for_store_fraction
from ..scenario import bench_system, characterization
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "openpiton"

#: Ariane-like fixed load-to-use memory latency (ns).
_FIXED_LATENCY_NS = 60.0


def _sweep(scale: float) -> MessBenchmarkConfig:
    # saturation study, not a curve family: one pressure level per mix
    return MessBenchmarkConfig.from_spec(
        {
            "store_fractions": [0.0, 0.5, 1.0],
            "nop_counts": [0],
            "warmup_ns": scaled(4000, min(scale, 2.0)),
            "measure_ns": scaled(10000, min(scale, 2.0)),
            "chase_array_bytes": 16 * 1024 * 1024,
            "traffic_array_bytes": 8 * 1024 * 1024,
        }
    )


@register("openpiton", title="OpenPiton: MSHR-limited bandwidth and the coherency bug", tags=("openpiton", "case-study"), cost="expensive")
def run(scale: float = 1.0) -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID,
        [
            "config",
            "store_fraction",
            "bandwidth_gbps",
            "read_ratio",
            "expected_read_ratio",
        ],
    )
    for label, faulty in (("correct", False), ("coherency-bug", True)):
        scenario = characterization(
            name=f"openpiton-{label}",
            memory_kind="fixed-latency",
            memory_params={"latency_ns": _FIXED_LATENCY_NS},
            system=bench_system(
                cores=32,
                in_order=True,
                issue_gap_ns=1.0,  # narrow in-order issue
                writeback_clean_lines=faulty,
            ),
            sweep=_sweep(scale),
        )
        bench = scenario.materialize().benchmark()
        bench.run()
        for point in bench.points:
            result.add(
                config=label,
                store_fraction=point.store_fraction,
                bandwidth_gbps=point.bandwidth_gbps,
                read_ratio=point.measured_read_ratio,
                expected_read_ratio=read_ratio_for_store_fraction(
                    point.store_fraction
                ),
            )

    def bandwidth(config: str, store_fraction: float) -> float:
        return next(
            row["bandwidth_gbps"]
            for row in result.rows
            if row["config"] == config
            and row["store_fraction"] == store_fraction
        )

    read_only = bandwidth("correct", 0.0)
    mixed = bandwidth("correct", 1.0)
    result.note(
        f"in-order 2-MSHR cores: 100%-read traffic caps at "
        f"{read_only:.1f} GB/s; posted writes lift 100%-store traffic to "
        f"{mixed:.1f} GB/s (paper: 32 and 47 GB/s on 64 Ariane cores)"
    )
    bug_rows = [
        row
        for row in result.rows
        if row["config"] == "coherency-bug" and row["store_fraction"] > 0
    ]
    excess = max(
        row["expected_read_ratio"] - row["read_ratio"] for row in bug_rows
    )
    result.note(
        "coherency bug detected: measured write share exceeds the "
        f"write-allocate expectation by up to {100 * excess:.0f} "
        "percentage points (clean lines written back)"
    )
    return result
