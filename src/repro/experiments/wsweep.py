"""Working-set capacity sweep: latency knees across the hierarchy.

A single-core pointer chase whose array grows past each cache level of
a deliberately small hierarchy (so warmup fills stay tractable in pure
Python). The mean dependent-load latency staircases from the L1 hit
time through L2 and the LLC up to the memory round trip — the classic
lmbench-style capacity plot, here measured *through* the pluggable
cache model: the ``policy`` option re-runs the sweep under any
registered replacement policy.
"""

from __future__ import annotations

from ..bench.harness import MessBenchmarkConfig
from ..scenario import characterization
from ..units import CACHE_LINE_BYTES
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "wsweep"

_FIXED_LATENCY_NS = 60.0

#: Small power-of-two hierarchy: 4 KiB L1 / 32 KiB L2 / 128 KiB LLC.
#: Applied as dotted overrides so the experiment exercises the same
#: seam a scenario file or ``--opt`` user would.
_GEOMETRY = {
    "system.hierarchy.l1.size_bytes": 4 * 1024,
    "system.hierarchy.l1.ways": 4,
    "system.hierarchy.l2.size_bytes": 32 * 1024,
    "system.hierarchy.l2.ways": 8,
    "system.hierarchy.l3.size_bytes": 128 * 1024,
    "system.hierarchy.l3.ways": 16,
}

#: Chase working sets: two sizes inside each level, one far beyond.
_SIZES = (
    2 * 1024,
    4 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
    128 * 1024,
    512 * 1024,
)


def _expected_level(size_bytes: int) -> str:
    if size_bytes <= _GEOMETRY["system.hierarchy.l1.size_bytes"]:
        return "L1"
    if size_bytes <= _GEOMETRY["system.hierarchy.l2.size_bytes"]:
        return "L2"
    if size_bytes <= _GEOMETRY["system.hierarchy.l3.size_bytes"]:
        return "L3"
    return "MEM"


def _sweep(scale: float, size_bytes: int) -> MessBenchmarkConfig:
    lines = size_bytes // CACHE_LINE_BYTES
    clamp = min(scale, 2.0)
    return MessBenchmarkConfig.from_spec(
        {
            "store_fractions": [0.0],
            "nop_counts": [0],
            # the warmup must cover at least one full pass of the chase
            # so in-cache sizes measure warm; the floor scales with the
            # array, not the experiment scale
            "warmup_ns": max(scaled(3000, clamp), lines * 150),
            "measure_ns": max(scaled(9000, clamp), lines * 40),
            "chase_array_bytes": size_bytes,
            "traffic_array_bytes": 64 * 1024,
        }
    )


@register(
    "wsweep",
    title="Working-set sweep: capacity knees through the cache model",
    tags=("cache", "extension"),
    cost="moderate",
)
def run(scale: float = 1.0, policy: str = "lru") -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID,
        [
            "working_set_bytes",
            "expected_level",
            "latency_ns",
            "bandwidth_gbps",
        ],
    )
    for size_bytes in _SIZES:
        scenario = characterization(
            name=f"wsweep-{size_bytes}-{policy}",
            memory_kind="fixed-latency",
            memory_params={"latency_ns": _FIXED_LATENCY_NS},
            cores=1,
            sweep=_sweep(scale, size_bytes),
            cache={"policy": policy} if policy != "lru" else None,
        ).with_overrides(_GEOMETRY)
        bench = scenario.materialize().benchmark()
        bench.run()
        point = bench.points[0]
        result.add(
            working_set_bytes=size_bytes,
            expected_level=_expected_level(size_bytes),
            latency_ns=point.latency_ns,
            bandwidth_gbps=point.bandwidth_gbps,
        )
    by_level: dict[str, list[float]] = {}
    for row in result.rows:
        by_level.setdefault(str(row["expected_level"]), []).append(
            float(row["latency_ns"])
        )
    means = {
        level: sum(values) / len(values) for level, values in by_level.items()
    }
    result.note(
        "mean chase latency per level: "
        + ", ".join(
            f"{level}={means[level]:.1f} ns"
            for level in ("L1", "L2", "L3", "MEM")
            if level in means
        )
        + f" (policy={policy})"
    )
    return result
