"""Thrash-stride sweep: bandwidth vs traffic-generator stride.

The Section IV-D strided extension, now measurable through the cache
axis: sweeping ``stride_lines`` degrades the traffic generators'
spatial behaviour — stride 1 is the sequential Listing 2 pattern the
stream prefetcher amplifies, larger strides break the next-line streak
detection and (at power-of-two strides) concentrate allocations into a
shrinking subset of cache sets. Effective bandwidth falls accordingly;
the ``policy`` option re-runs the sweep under any registered
replacement policy.
"""

from __future__ import annotations

from ..bench.harness import MessBenchmarkConfig
from ..scenario import characterization
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "thrash"

_FIXED_LATENCY_NS = 60.0

_STRIDES = (1, 2, 8, 32, 64)


def _sweep(scale: float, stride_lines: int) -> MessBenchmarkConfig:
    clamp = min(scale, 2.0)
    return MessBenchmarkConfig.from_spec(
        {
            "store_fractions": [0.5],
            "nop_counts": [0],
            "warmup_ns": scaled(2500, clamp),
            "measure_ns": scaled(6000, clamp),
            "chase_array_bytes": 8 * 1024 * 1024,
            "traffic_array_bytes": 8 * 1024 * 1024,
            "stride_lines": stride_lines,
        }
    )


@register(
    "thrash",
    title="Thrash-stride sweep: bandwidth vs access stride",
    tags=("cache", "extension"),
    cost="moderate",
)
def run(scale: float = 1.0, policy: str = "lru") -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID, ["stride_lines", "bandwidth_gbps", "latency_ns", "read_ratio"]
    )
    for stride_lines in _STRIDES:
        scenario = characterization(
            name=f"thrash-stride{stride_lines}-{policy}",
            memory_kind="fixed-latency",
            memory_params={"latency_ns": _FIXED_LATENCY_NS},
            cores=2,
            sweep=_sweep(scale, stride_lines),
            cache={"policy": policy} if policy != "lru" else None,
        )
        bench = scenario.materialize().benchmark()
        bench.run()
        point = bench.points[0]
        result.add(
            stride_lines=stride_lines,
            bandwidth_gbps=point.bandwidth_gbps,
            latency_ns=point.latency_ns,
            read_ratio=point.measured_read_ratio,
        )
    sequential = next(
        float(row["bandwidth_gbps"])
        for row in result.rows
        if row["stride_lines"] == 1
    )
    worst = min(float(row["bandwidth_gbps"]) for row in result.rows)
    if worst > 0:
        result.note(
            f"sequential (stride 1) traffic sustains {sequential:.1f} GB/s; "
            f"the worst stride drops to {worst:.1f} GB/s "
            f"({sequential / worst:.1f}x, policy={policy})"
        )
    return result
