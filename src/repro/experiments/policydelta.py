"""Replacement-policy curve delta: LRU vs PLRU vs seeded random.

A cyclic pointer chase over an array twice the LLC is the textbook
adversary for recency-based replacement: true LRU always evicts the
line the cycle needs furthest in the future, tree-PLRU approximates
that pathology, and random replacement retains a stationary fraction
of the working set — so its mean latency drops below the LRU line. The
delta is measured through the scenario seam (each policy is its own
digest-distinct scenario) on a deliberately small hierarchy, and the
``random`` stream is seeded from the system spec digest, so every
number here is bit-reproducible.
"""

from __future__ import annotations

from ..bench.harness import MessBenchmarkConfig
from ..cpu.policies import policy_kinds
from ..scenario import characterization
from ..units import CACHE_LINE_BYTES
from .base import ExperimentResult, scaled
from .registry import new_result, register

EXPERIMENT_ID = "policydelta"

_FIXED_LATENCY_NS = 60.0

#: Small power-of-two hierarchy (plru needs power-of-two ways).
_GEOMETRY = {
    "system.hierarchy.l1.size_bytes": 4 * 1024,
    "system.hierarchy.l1.ways": 4,
    "system.hierarchy.l2.size_bytes": 32 * 1024,
    "system.hierarchy.l2.ways": 8,
    "system.hierarchy.l3.size_bytes": 128 * 1024,
    "system.hierarchy.l3.ways": 16,
}

#: Chase working set: 2x the LLC, the capacity-miss regime where the
#: replacement policy decides the hit rate.
_CHASE_BYTES = 256 * 1024


def _sweep(scale: float) -> MessBenchmarkConfig:
    lines = _CHASE_BYTES // CACHE_LINE_BYTES
    clamp = min(scale, 2.0)
    return MessBenchmarkConfig.from_spec(
        {
            "store_fractions": [0.0],
            "nop_counts": [0],
            "warmup_ns": max(scaled(3000, clamp), lines * 150),
            "measure_ns": max(scaled(9000, clamp), lines * 60),
            "chase_array_bytes": _CHASE_BYTES,
            "traffic_array_bytes": 64 * 1024,
        }
    )


@register(
    "policydelta",
    title="Replacement-policy delta: LRU vs PLRU vs random",
    tags=("cache", "extension"),
    cost="moderate",
)
def run(scale: float = 1.0) -> ExperimentResult:
    result = new_result(
        EXPERIMENT_ID, ["policy", "latency_ns", "bandwidth_gbps", "scenario_digest"]
    )
    latencies: dict[str, float] = {}
    for policy in policy_kinds():
        scenario = characterization(
            name=f"policydelta-{policy}",
            memory_kind="fixed-latency",
            memory_params={"latency_ns": _FIXED_LATENCY_NS},
            cores=1,
            sweep=_sweep(scale),
            cache={"policy": policy} if policy != "lru" else None,
        ).with_overrides(_GEOMETRY)
        bench = scenario.materialize().benchmark()
        bench.run()
        point = bench.points[0]
        latencies[policy] = point.latency_ns
        result.add(
            policy=policy,
            latency_ns=point.latency_ns,
            bandwidth_gbps=point.bandwidth_gbps,
            scenario_digest=scenario.digest()[:16],
        )
    lru = latencies["lru"]
    for policy in ("plru", "random"):
        delta = 100.0 * (latencies[policy] - lru) / lru if lru else 0.0
        result.note(
            f"{policy} mean chase latency {latencies[policy]:.1f} ns vs "
            f"lru {lru:.1f} ns ({delta:+.1f}%)"
        )
    result.note(
        "random replacement is seeded from each scenario's system spec "
        "digest: re-runs are bit-identical, distinct configs decorrelate"
    )
    return result
