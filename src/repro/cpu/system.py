"""System: cores + cache hierarchy + a pluggable memory model.

This is the reproduction's stand-in for ZSim / gem5: a configurable
multicore whose memory system is any :class:`MemoryModel`. Swapping the
model while keeping the cores fixed is precisely the paper's evaluation
methodology (Sections IV and V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..errors import ConfigurationError, SimulationError
from ..memmodels.base import MemoryModel
from ..specs import SpecConvertible, spec_digest
from ..specs import to_spec as _generic_to_spec
from .cache import HierarchyConfig
from .cachemodel import (
    CacheModelSpec,
    canonical_cache_spec,
    default_cache_model,
    derive_policy_seed,
)
from .core import Core, CoreStats, Operation
from .engine import Engine
from .hierarchy import MemoryHierarchy


@dataclass(frozen=True)
class SystemConfig(SpecConvertible):
    """Static description of the simulated machine.

    ``issue_gap_ns`` and ``mshrs`` are per-core defaults; individual
    workloads may override them when attached (a latency probe wants one
    outstanding access, a bandwidth generator wants many).
    """

    cores: int = 24
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    issue_gap_ns: float = 0.3
    mshrs: int = 10
    in_order: bool = False
    writeback_clean_lines: bool = False
    #: Stream-prefetch degree (0 disables; in-order OpenPiton-style
    #: systems are modeled without a prefetcher). Eight lines keeps a
    #: whole 512-byte channel-interleave unit in one burst.
    prefetch_lines: int = 8
    #: Cache-model selection (topology, replacement, write policy).
    cache: CacheModelSpec = field(default_factory=CacheModelSpec)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores}")
        if self.issue_gap_ns < 0:
            raise ConfigurationError(
                f"issue_gap_ns must be >= 0, got {self.issue_gap_ns}"
            )
        # an in-order machine runs two MSHRs and no prefetcher whatever
        # these say; a characterization gives core 0 (the latency probe)
        # one MSHR of its own, so only its traffic cores take the default
        if not self.in_order:
            if self.prefetch_lines < 0:
                raise ConfigurationError(
                    f"prefetch_lines must be >= 0, got {self.prefetch_lines}"
                )
            if self.mshrs < 1 and self.cores > 1:
                raise ConfigurationError(f"mshrs must be >= 1, got {self.mshrs}")

    @property
    def effective_mshrs(self) -> int:
        """In-order cores serialize on one outstanding miss window."""
        return 2 if self.in_order else self.mshrs

    def to_spec(self) -> dict:
        """Spec payload; the default cache model is omitted entirely.

        Omission keeps every pre-existing scenario digest byte-stable
        (the same rule ``Scenario.to_spec`` applies to the default
        engine): a spec that never mentions ``cache`` hashes as it
        always did, and a non-default model changes the digest.
        """
        payload = _generic_to_spec(self)
        if self.cache == default_cache_model():
            payload.pop("cache", None)
        return payload

    @classmethod
    def from_spec(cls, payload: Mapping, where: str = "") -> "SystemConfig":
        """Parse a spec; ``cache`` accepts preset-name shorthand."""
        raw = payload.get("cache") if isinstance(payload, Mapping) else None
        if raw is not None:
            label = f"{where}.cache" if where else "cache"
            payload = {**payload, "cache": canonical_cache_spec(raw, where=label)}
        return super().from_spec(payload, where)

    def digest(self) -> str:
        return spec_digest(self.to_spec())


@dataclass
class SystemResult:
    """Outcome of one simulation run."""

    duration_ns: float
    core_stats: list[CoreStats]
    memory_reads: int
    memory_writes: int
    memory_bandwidth_gbps: float
    memory_read_ratio: float
    events: int

    @property
    def mean_pointer_chase_latency_ns(self) -> float:
        """Mean dependent-load latency over cores that measured any."""
        sums = [
            s.mean_dependent_latency_ns
            for s in self.core_stats
            if s.dependent_loads
        ]
        return sum(sums) / len(sums) if sums else 0.0


class System:
    """A multicore machine wired to one memory model."""

    def __init__(self, config: SystemConfig, memory: MemoryModel) -> None:
        self.config = config
        self.memory = memory
        self.engine = Engine()
        # Seeded replacement policies draw from the config digest when
        # no explicit seed is set: identical machines evict identically,
        # any parameter change decorrelates, and nothing non-
        # deterministic (wall clock, hash seed) ever enters the stream.
        policy_seed = config.cache.seed
        if policy_seed is None:
            policy_seed = derive_policy_seed(config.to_spec())
        self.hierarchy = MemoryHierarchy(
            cores=config.cores,
            config=config.hierarchy,
            memory=memory,
            writeback_clean_lines=config.writeback_clean_lines,
            prefetch_lines=0 if config.in_order else config.prefetch_lines,
            cache_model=config.cache,
            policy_seed=policy_seed,
        )
        self._cores: list[Core] = []

    def add_workload(
        self,
        core_index: int,
        operations: Iterator[Operation],
        issue_gap_ns: float | None = None,
        mshrs: int | None = None,
        record_latencies: bool = False,
    ) -> Core:
        """Attach an operation stream to a core; returns the core handle."""
        if not 0 <= core_index < self.config.cores:
            raise ConfigurationError(
                f"core index {core_index} out of range 0..{self.config.cores - 1}"
            )
        if any(core.index == core_index for core in self._cores):
            raise ConfigurationError(f"core {core_index} already has a workload")
        core = Core(
            index=core_index,
            engine=self.engine,
            hierarchy=self.hierarchy,
            operations=operations,
            issue_gap_ns=(
                self.config.issue_gap_ns if issue_gap_ns is None else issue_gap_ns
            ),
            mshrs=self.config.effective_mshrs if mshrs is None else mshrs,
            record_latencies=record_latencies,
        )
        self._cores.append(core)
        return core

    def run(
        self, until_ns: float | None = None, max_events: int | None = None
    ) -> SystemResult:
        """Run until every workload finishes (or a bound is hit)."""
        if not self._cores:
            raise SimulationError("no workloads attached")
        for core in self._cores:
            core.start()
        events = self.engine.run(until_ns=until_ns, max_events=max_events)
        stats = self.memory.stats
        return SystemResult(
            duration_ns=self.engine.now_ns,
            core_stats=[core.stats for core in self._cores],
            memory_reads=stats.reads,
            memory_writes=stats.writes,
            memory_bandwidth_gbps=stats.bandwidth_gbps,
            memory_read_ratio=stats.read_ratio,
            events=events,
        )
