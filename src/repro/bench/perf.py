"""The perf-bench registry: absolute timings of named workloads.

One named bench is a deterministic workload; the harness times it
best-of-``repeat`` and records a digest of its result, so a payload
says both how long the workload took and what it computed. This is the
project's one bench mechanism. Every paper experiment is registered
here under ``experiment.<id>`` (``repro run ID --csv PATH`` saves an
experiment's data series), and the inner loops have dedicated benches
tagged ``curves`` / ``probe`` / ``mess`` / ``dram`` / ``hierarchy`` /
``serve``: the curve lookup, the model probe, the Mess simulator's
access path (telemetry off and on), the DRAM controller, the
cache-hierarchy walk and the serving path.

``repro bench --filter curves,hierarchy,probe,mess,dram --json
BENCH_curves.json`` is the CI smoke invocation;
``repro bench --filter experiment --json BENCH_experiments.json``
records every experiment's digest. The committed ``BENCH_*.json``
files are the trajectory of record.

Output schema (``--json``)::

    {
      "repro_bench": 2,
      "benches": [
        {
          "name": "curves.characterize_fixed_latency",
          "tags": ["curves", "probe"],
          "time_s": 0.02,
          "meta": {"digest": "...", ...}
        }
      ]
    }

``time_s`` is the best of ``repeat`` timed runs of the workload. A run
that includes experiment benches ends with one more row,
``experiment.total``: the sum of their ``time_s``, with their count and
a digest over their digests in its ``meta``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..errors import ConfigurationError
from ..specs import spec_digest

#: Format marker of the ``--json`` payload.
FORMAT_KEY = "repro_bench"

#: Current payload version; bump on incompatible layout change.
FORMAT_VERSION = 2


@dataclass(frozen=True)
class BenchSpec:
    """One registered perf bench.

    ``make()`` performs the (untimed) setup and returns a pair
    ``(work, summarize)``: ``work()`` runs the workload and returns its
    raw result; ``summarize`` turns that result into a meta dict
    containing a ``"digest"``. Only ``work`` is timed — digesting a
    large result must not pollute the measurement.
    """

    name: str
    tags: tuple[str, ...]
    make: Callable[[], tuple[Callable[[], object], Callable[[object], dict]]]


_REGISTRY: dict[str, BenchSpec] = {}


def register(name: str, *tags: str) -> Callable:
    """Decorator registering a bench factory under ``name``."""

    def decorator(make: Callable[[], tuple]):
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate bench name {name!r}")
        _REGISTRY[name] = BenchSpec(name=name, tags=tuple(tags), make=make)
        return make

    return decorator


def bench_names(filter: str | None = None) -> list[str]:
    """Registered bench names, optionally filtered.

    ``filter`` is a comma-separated list of terms; a bench is kept when
    any term is a substring of its name or exactly one of its tags
    (``"curves,hierarchy"`` unions two families). A filter that keeps
    nothing is a :class:`ConfigurationError`.
    """
    _register_experiment_benches()
    names = sorted(_REGISTRY)
    if filter:
        terms = [term for term in filter.split(",") if term]
        kept = [
            name
            for name in names
            if any(
                term in name or term in _REGISTRY[name].tags
                for term in terms
            )
        ]
        if not kept:
            raise ConfigurationError(
                f"no benches match {filter!r}; available: {names}"
            )
        names = kept
    return names


def run_bench(spec: BenchSpec, repeat: int = 1) -> dict:
    """Time one bench best-of-``repeat``; returns its payload entry."""
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    work, summarize = spec.make()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return {
        "name": spec.name,
        "tags": list(spec.tags),
        "time_s": best,
        "meta": summarize(result),
    }


def run_benches(
    filter: str | None = None,
    repeat: int = 1,
    progress: Callable[[dict], None] | None = None,
) -> dict:
    """Run every (filtered) bench; returns the full JSON payload."""
    benches = []
    for name in bench_names(filter):
        entry = run_bench(_REGISTRY[name], repeat=repeat)
        benches.append(entry)
        if progress is not None:
            progress(entry)
    experiments = [entry for entry in benches if "experiment" in entry["tags"]]
    if experiments:
        total = _total_row(experiments)
        benches.append(total)
        if progress is not None:
            progress(total)
    return {FORMAT_KEY: FORMAT_VERSION, "benches": benches}


def _total_row(experiments: list[dict]) -> dict:
    """The ``experiment.total`` row over a run's ``experiment.<id>`` rows.

    Its ``time_s`` is the sum of theirs: the time to regenerate those
    experiments once each. Its digest covers their digests in run order,
    so it moves when any of their results does.
    """
    return {
        "name": "experiment.total",
        "tags": ["experiment", "total"],
        "time_s": sum(entry["time_s"] for entry in experiments),
        "meta": {
            "digest": spec_digest([entry["meta"]["digest"] for entry in experiments]),
            "experiments": len(experiments),
        },
    }


def write_payload(payload: dict, path: str | Path) -> None:
    """Write a bench payload as stable, diffable JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Component benches: the inner loops
# ----------------------------------------------------------------------


def _family_digest(family) -> str:
    return spec_digest(family.to_dict())


def _probe_bench(model_factory: Callable, theoretical: float | None):
    from .model_probe import ProbeConfig, characterize_model

    # the experiments' trace-probe configuration (fig. 5): a deep
    # outstanding-request budget, so sub-saturation points provably
    # never stall and the batch fast path applies
    config = ProbeConfig(
        gaps_ns=(0.12, 0.18, 0.3, 0.45, 0.7, 1.1, 1.8, 3.0, 6.0, 15.0, 45.0),
        ops_per_point=5000,
        warmup_ops=800,
        max_outstanding=1024,
    )

    def work():
        return characterize_model(
            model_factory,
            config,
            name="bench",
            theoretical_bandwidth_gbps=theoretical,
        )

    def summarize(fam) -> dict:
        return {"digest": _family_digest(fam)}

    return work, summarize


@register("curves.characterize_fixed_latency", "curves", "probe")
def _bench_characterize_fixed():
    """Model-probe characterization of the constant-latency model."""
    from ..memmodels.fixed import FixedLatencyModel

    return _probe_bench(lambda: FixedLatencyModel(89.0), None)


@register("probe.characterize_ramulator", "probe")
def _bench_characterize_ramulator():
    """Model-probe characterization of the Ramulator analog."""
    from ..memmodels.flawed import RamulatorAnalog

    return _probe_bench(lambda: RamulatorAnalog(theoretical_gbps=128.0), 128.0)


@register("probe.characterize_dramsim3", "probe")
def _bench_characterize_dramsim3():
    """Model-probe characterization of the DRAMsim3 analog."""
    from ..memmodels.flawed import DRAMsim3Analog

    return _probe_bench(lambda: DRAMsim3Analog(theoretical_gbps=128.0), 128.0)


@register("curves.latency_at", "curves")
def _bench_latency_at():
    """Curve-family lookups: the Mess controller's per-window query.

    10k bilinear (bandwidth, read-ratio) interpolations on the Skylake
    family, sweeping 0-110% of its saturated bandwidth at every read
    ratio between its curves.
    """
    from ..platforms.presets import INTEL_SKYLAKE, family

    fam = family(INTEL_SKYLAKE)
    top = fam.max_bandwidth_gbps * 1.1
    queries = [
        (top * (index % 1000) / 1000, 0.5 + (index % 51) / 100)
        for index in range(10_000)
    ]

    def work() -> list[float]:
        return [fam.latency_at(bandwidth, ratio) for bandwidth, ratio in queries]

    def summarize(latencies: list[float]) -> dict:
        return {"digest": spec_digest(latencies), "ops": len(latencies)}

    return work, summarize


def _mess_access_bench(collect: bool):
    """50k reads, 1 ns apart, through ``MessMemorySimulator.access``.

    With ``collect`` a fresh telemetry registry is active for the run
    (and deactivated after it), so the pair of benches times the
    instrumented hot path off and on. Telemetry only observes: both
    report the same stats digest.
    """
    from ..core.simulator import MessMemorySimulator
    from ..platforms.presets import INTEL_SKYLAKE, family
    from ..request import AccessType, MemoryRequest
    from ..telemetry import registry as telemetry

    fam = family(INTEL_SKYLAKE)
    requests = [
        MemoryRequest((index % 65536) * 64, AccessType.READ, float(index))
        for index in range(50_000)
    ]

    def drive() -> MessMemorySimulator:
        simulator = MessMemorySimulator(fam)
        for request in requests:
            simulator.access(request)
        return simulator

    def collecting() -> MessMemorySimulator:
        telemetry.activate()
        try:
            return drive()
        finally:
            telemetry.deactivate()

    def summarize(simulator) -> dict:
        return {"digest": spec_digest(simulator.stats), "ops": len(requests)}

    return (collecting if collect else drive), summarize


@register("mess.access", "mess")
def _bench_mess_access():
    """The Mess simulator's per-request path, telemetry off."""
    return _mess_access_bench(collect=False)


@register("mess.access_telemetry", "mess", "telemetry")
def _bench_mess_access_telemetry():
    """The Mess simulator's per-request path under an active registry."""
    return _mess_access_bench(collect=True)


@register("dram.submit", "dram")
def _bench_dram_submit():
    """20k mixed requests through the cycle-level DDR4 controller.

    Sequential lines 1 ns apart on six DDR4-2666 channels, every third
    one a write: row hits, write-queue drains and refreshes all occur.
    The digest covers the controller census and the summed latency.
    """
    from ..dram.controller import DramController
    from ..dram.timing import DDR4_2666
    from ..request import AccessType, MemoryRequest

    requests = [
        MemoryRequest(
            index * 64,
            AccessType.WRITE if index % 3 == 0 else AccessType.READ,
            float(index),
        )
        for index in range(20_000)
    ]

    def work() -> dict:
        controller = DramController(DDR4_2666, channels=6)
        latency_ns = 0.0
        for request in requests:
            latency_ns += controller.submit(request).latency_ns
        return {"stats": controller.stats.to_dict(), "total_latency_ns": latency_ns}

    def summarize(census: dict) -> dict:
        return {"digest": spec_digest(census), "ops": len(requests)}

    return work, summarize


@register("hierarchy.visit", "hierarchy", "cpu")
def _bench_hierarchy_visit():
    """Cache-hierarchy visits across the replacement-policy registry.

    A deterministic mixed load/store trace (streaming writes + a
    seeded scatter) driven through one :class:`MemoryHierarchy` per
    registered replacement policy. The walk is the scalar hot path of
    every characterize run; this bench pins its throughput trajectory,
    and its digest covers the hit/miss/writeback counters.
    """
    from ..cpu.cache import CacheConfig, HierarchyConfig
    from ..cpu.cachemodel import CacheModelSpec
    from ..cpu.hierarchy import MemoryHierarchy
    from ..cpu.policies import mix64, policy_kinds
    from ..memmodels.fixed import FixedLatencyModel

    geometry = HierarchyConfig(
        l1=CacheConfig(16 * 1024, 4, 1.5),
        l2=CacheConfig(128 * 1024, 8, 5.0),
        l3=CacheConfig(512 * 1024, 16, 18.0),
    )
    accesses = 24_000
    line = 64
    span_lines = 3 * (512 * 1024) // line  # 3x the LLC: eviction pressure

    def work() -> dict:
        counters: dict[str, dict] = {}
        for policy in policy_kinds():
            hierarchy = MemoryHierarchy(
                cores=2,
                config=geometry,
                memory=FixedLatencyModel(60.0),
                prefetch_lines=0,
                cache_model=CacheModelSpec(policy=policy),
                policy_seed=1234,
            )
            now = 0.0
            for index in range(accesses):
                if index % 3:
                    # streaming store walk with a thrash-friendly stride
                    address = (index * 7 % span_lines) * line
                    is_store = True
                else:
                    # seeded scatter: the pointer-chase-shaped half
                    address = (mix64(99, index) % span_lines) * line
                    is_store = False
                hierarchy.access(
                    core=index & 1,
                    address=address,
                    is_store=is_store,
                    now_ns=now,
                )
                now += 0.8
            stats = hierarchy.llc.stats
            memory_stats = hierarchy.memory.stats
            counters[policy] = {
                "llc_hits": stats.hits,
                "llc_misses": stats.misses,
                "llc_writebacks": stats.writebacks,
                "llc_clean_evictions": stats.clean_evictions,
                "l1_hits": hierarchy.l1[0].stats.hits,
                "memory_reads": memory_stats.reads,
                "memory_writes": memory_stats.writes,
            }
        return counters

    def summarize(counters: dict) -> dict:
        return {
            "digest": spec_digest(counters),
            "ops": accesses * len(counters),
        }

    return work, summarize


@register("serve.loadgen", "serve")
def _bench_serve_loadgen():
    """The characterization service under a replayable request load.

    Boots an in-process HTTP server on a fresh in-memory backend and
    replays the deterministic loadgen schedule through real sockets —
    miss/coalesce/compute on pass one, cache-serving on pass two. The
    digest covers the served results' digests. The meta records the
    hit-ratio and p99 trajectories — the serving-path perf numbers
    ``BENCH_serve.json`` tracks.
    """
    from ..serve.loadgen import LoadgenConfig, run_loadgen

    config = dict(
        scenarios=3,
        requests=36,
        clients=6,
        passes=2,
        backend="memory",
        max_inflight=4,
    )

    def work():
        return run_loadgen(LoadgenConfig(**config))

    def summarize(report) -> dict:
        final = report["passes"][-1]
        return {
            "digest": spec_digest(report["result_digests"]),
            "requests": sum(p["requests"] for p in report["passes"]),
            "errors": sum(p["errors"] for p in report["passes"]),
            "hit_ratio_trajectory": report["hit_ratio_trajectory"],
            "p50_ms": final["p50_ms"],
            "p99_ms": final["p99_ms"],
            "coalesced": report["passes"][0]["coalesced"],
            "digest_consistent": report["digest_consistent"],
        }

    return work, summarize


# ----------------------------------------------------------------------
# Experiment benches: one per paper table/figure
# ----------------------------------------------------------------------

#: Experiments too heavy to regenerate at full scale per bench run;
#: their benches run scaled down.
_EXPERIMENT_SCALES = {"fig10": 0.4, "fig11": 0.4, "fig13": 0.4}

_EXPERIMENTS_REGISTERED = False


def _bench_experiment(experiment_id: str) -> Callable:
    scale = _EXPERIMENT_SCALES.get(experiment_id, 1.0)

    def make():
        from ..experiments.registry import run_experiment

        def work():
            return run_experiment(experiment_id, scale=scale)

        def summarize(result) -> dict:
            return {
                "digest": result.digest(),
                "rows": len(result.rows),
                "scale": scale,
            }

        return work, summarize

    return make


def _register_experiment_benches() -> None:
    """Register ``experiment.<id>`` benches for every known experiment.

    Deferred: importing the experiment registry pulls in every
    experiment module, which the component benches do not need.
    """
    global _EXPERIMENTS_REGISTERED
    if _EXPERIMENTS_REGISTERED:
        return
    _EXPERIMENTS_REGISTERED = True
    from ..experiments.registry import experiment_ids

    for experiment_id in experiment_ids():
        register(f"experiment.{experiment_id}", "experiment", experiment_id)(
            _bench_experiment(experiment_id)
        )


__all__ = [
    "FORMAT_KEY",
    "FORMAT_VERSION",
    "BenchSpec",
    "bench_names",
    "register",
    "run_bench",
    "run_benches",
    "write_payload",
]
