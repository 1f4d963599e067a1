"""Cache hierarchy wiring cores to the memory model.

The hierarchy shape is selected by a :class:`CacheModelSpec` (the
``cache=`` scenario axis): the default private-L1/L2 + shared-L3
write-back stack, a Simu3-style private-L1 + shared-L2, or a flat
single level. Every topology ends in one shared LLC in front of the
memory model: an LLC miss issues a cache-line READ, dirty LLC
evictions issue WRITEs. This is where a store instruction becomes one
memory read plus (eventually) one memory write — the effect behind the
paper's 100%-store = 50/50 traffic observation. Under a write-through
model stores post their memory WRITE immediately instead of dirtying
lines.

The ``writeback_clean_lines`` flag reproduces the OpenPiton coherency
bug the Mess benchmark uncovered (Section IV-C): the generated protocol
evicted *all* LLC lines as if dirty, inflating write traffic. With the
flag on, clean evictions also emit memory WRITEs — under every
replacement policy, which is exactly what the fault-injection tests
pin down.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from ..errors import ConfigurationError
from ..memmodels.base import AccessType, MemoryModel, MemoryRequest
from .cache import AccessOutcome, Cache, HierarchyConfig
from .cachemodel import CacheModelSpec
from .policies import mix64


class HierarchyAccess(NamedTuple):
    """Timing outcome of one core memory instruction."""

    latency_ns: float
    level: str  # "L1" | "L2" | "L3" | "MEM" | "NT"


class MemoryHierarchy:
    """Configurable-topology hierarchy in front of a pluggable memory model.

    Parameters
    ----------
    cores:
        Number of cores (each gets a private copy of the non-shared
        levels).
    config:
        Cache geometries and the NoC overhead.
    memory:
        Any :class:`~repro.memmodels.base.MemoryModel`.
    writeback_clean_lines:
        Fault injection for the OpenPiton coherency bug.
    cache_model:
        Topology/replacement/write-policy selection; ``None`` means the
        historical default model.
    policy_seed:
        Base seed for seeded replacement policies; each level and core
        derives its own stream.
    """

    def __init__(
        self,
        cores: int,
        config: HierarchyConfig,
        memory: MemoryModel,
        writeback_clean_lines: bool = False,
        prefetch_lines: int = 4,
        cache_model: CacheModelSpec | None = None,
        policy_seed: int = 0,
    ) -> None:
        if cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
        if prefetch_lines < 0:
            raise ConfigurationError(
                f"prefetch_lines must be >= 0, got {prefetch_lines}"
            )
        self.config = config
        self.memory = memory
        self.writeback_clean_lines = writeback_clean_lines
        self.prefetch_lines = prefetch_lines
        self.cores = cores
        self.cache_model = (
            cache_model if cache_model is not None else CacheModelSpec()
        )
        model = self.cache_model
        plan = model.level_plan(config)
        self.levels: list[list[Cache]] = []
        #: Per core, the cache it looks up at each level, outermost first.
        self._paths: list[list[Cache]] = [[] for _ in range(cores)]
        # Hit latencies are configuration constants: one shared result
        # per level, and the lookup latency of the whole path on a miss.
        self._hits: list[HierarchyAccess] = []
        latency = 0.0
        for index, (geometry, shared) in enumerate(plan):
            label = f"L{index + 1}"
            names = [label] if shared else [
                f"{label}.{core}" for core in range(cores)
            ]
            caches = [
                Cache(
                    name,
                    geometry.size_bytes,
                    geometry.ways,
                    geometry.latency_ns,
                    policy=model.policy,
                    line_bytes=model.line_bytes,
                    write_through=model.write_through,
                    policy_seed=mix64(policy_seed, index, instance),
                )
                for instance, name in enumerate(names)
            ]
            self.levels.append(caches)
            for core, path in enumerate(self._paths):
                path.append(caches[0] if shared else caches[core])
            latency += geometry.latency_ns
            if shared and model.shared_latency_penalty_ns > 0.0:
                latency += model.shared_latency_penalty_ns * (cores - 1)
            self._hits.append(HierarchyAccess(latency, label))
        self._miss_path_ns = latency
        self._last_level = len(plan) - 1
        # read once: the access path consults both on every access
        self._noc_latency_ns = config.noc_latency_ns
        self._write_through = model.write_through
        #: The shared last level fronting the memory model.
        self.llc: Cache = self.levels[-1][0]
        self._line_bytes = model.line_bytes
        # Historical aliases; for the default topology these match the
        # old fixed attributes exactly.
        self.l1: list[Cache] = self.levels[0]
        self.l2: list[Cache] | Cache | None = None
        self.l3: Cache | None = None
        if model.topology == "private-l1l2-shared-l3":
            self.l2 = self.levels[1]
            self.l3 = self.llc
        elif model.topology == "private-l1-shared-l2":
            self.l2 = self.llc
        # per-core recent demand-miss lines: a real stream prefetcher
        # tracks several concurrent streams (a core interleaving loads
        # from one array and stores to another has at least two)
        self._miss_history: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(cores)
        ]
        self.prefetches_issued = 0
        self.prefetches_throttled = 0
        self._miss_latency_ewma = 0.0

    #: Distinct streams the per-core prefetcher can track.
    STREAM_TRACKER_ENTRIES = 16

    #: Address region used for priming scratch lines; far above any
    #: workload array so tags never collide.
    SCRATCH_BASE = 1 << 41

    def prime_write_steady_state(self, dirty_fraction: float = 1.0) -> None:
        """Fill the LLC with scratch lines at a steady-state dirty mix.

        With a cold LLC, stores spend a full cache-fill period producing
        no writebacks, under-reporting write traffic for the whole
        window. Real benchmarks hide this behind long discarded warmup
        runs; priming achieves the same steady state instantly.
        ``dirty_fraction`` must match the store share of the workload's
        line allocations, or early evictions would over- or under-
        produce writes. Under a write-through model no line is ever
        dirty, so the fill installs clean lines regardless.
        """
        self.llc.fill_with_scratch(self.SCRATCH_BASE, dirty_fraction)

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    #: Core-visible latency of a non-temporal store (write-combining
    #: buffer accept; the memory write itself is posted).
    NON_TEMPORAL_ACCEPT_NS = 2.0

    def access(
        self,
        core: int,
        address: int,
        is_store: bool,
        now_ns: float,
        non_temporal: bool = False,
    ) -> HierarchyAccess:
        """Serve one load or store from ``core`` at time ``now_ns``.

        Returns the load-to-use latency and the level that supplied the
        line. Misses traverse the configured levels outermost-in,
        accumulating each level's lookup latency (plus the shared-level
        contention term); LLC evictions are forwarded to memory as
        posted writes at the miss timestamp. Non-temporal stores skip
        the hierarchy entirely: one posted memory WRITE, no allocation,
        no read-for-ownership.
        """
        if address < 0:
            raise ConfigurationError(f"address must be non-negative, got {address}")
        memory = self.memory
        if non_temporal and is_store:
            # the write is posted, but a full write path stalls the core
            # (real streaming stores block on write-combining buffers),
            # so the model's reported completion is honoured
            write_latency = memory.access(
                MemoryRequest(address, AccessType.WRITE, now_ns)
            )
            return HierarchyAccess(
                max(self.NON_TEMPORAL_ACCEPT_NS, write_latency), "NT"
            )
        path = self._paths[core]
        last = self._last_level
        for index, cache in enumerate(path):
            outcome = cache.access(address, is_store)
            if outcome.hit:
                result = self._hits[index]
                break
            if index == last:
                self._emit_evictions(outcome, now_ns)
            elif outcome.writeback_address is not None:
                # dirty victims propagate to the next level down
                # (inclusive-ish simplification: the dirty line is
                # installed there rather than written to memory)
                self._spill(
                    path[index + 1],
                    outcome.writeback_address,
                    index + 1 == last,
                    now_ns,
                )
        else:
            # LLC miss: fetch the line from memory (a store becomes a
            # read-for-ownership here; the write happens at eviction
            # time).
            memory_latency = memory.access(
                MemoryRequest(address, AccessType.READ, now_ns)
            )
            self._miss_latency_ewma += 0.05 * (
                memory_latency - self._miss_latency_ewma
            )
            self._maybe_prefetch(core, address, now_ns)
            result = HierarchyAccess(
                self._miss_path_ns + (self._noc_latency_ns + memory_latency), "MEM"
            )
        if is_store and self._write_through:
            # write-through: the store's data goes to memory as a
            # posted write no matter which level holds the line
            memory.access(MemoryRequest(address, AccessType.WRITE, now_ns))
        return result

    #: Demand-miss latency (ns) above which the stream prefetcher backs
    #: off — real prefetchers throttle when the memory system is
    #: congested rather than inflating the queue backlog further.
    PREFETCH_THROTTLE_NS = 600.0

    def _maybe_prefetch(self, core: int, address: int, now_ns: float) -> None:
        """Stream prefetcher: fetch ahead on sequential demand misses.

        Every server CPU in the paper's Table I ships hardware stream
        prefetchers; without them, tens of interleaved single-line
        streams shred DRAM row locality in a way no real platform
        exhibits. Detection is the classic next-line heuristic: a miss
        one line after the core's previous miss opens a streak, and the
        next ``prefetch_lines`` lines are fetched back-to-back (a burst
        the memory controller can service from one open row) and
        installed into the LLC. Random patterns — the pointer chase —
        never trigger it.
        """
        line = address // self._line_bytes
        history = self._miss_history[core]
        streak = (line - 1) in history
        history[line] = None
        history.move_to_end(line)
        while len(history) > self.STREAM_TRACKER_ENTRIES:
            history.popitem(last=False)
        if self.prefetch_lines == 0 or not streak:
            return
        if self._miss_latency_ewma > self.PREFETCH_THROTTLE_NS:
            self.prefetches_throttled += 1
            return
        for ahead in range(1, self.prefetch_lines + 1):
            prefetch_address = address + ahead * self._line_bytes
            if self.llc.contains(prefetch_address):
                continue
            self.memory.access(
                MemoryRequest(prefetch_address, AccessType.READ, now_ns)
            )
            # allocate through the normal path so displaced dirty lines
            # still produce their writebacks
            spilled = self.llc.access(prefetch_address, is_store=False)
            self._emit_evictions(spilled, now_ns)
            self.prefetches_issued += 1

    def _spill(
        self, lower: Cache, address: int, lower_is_llc: bool, now_ns: float
    ) -> None:
        """Install an upper-level dirty victim into the next level down."""
        spilled = lower.access(address, is_store=True)
        if lower_is_llc:
            self._emit_evictions(spilled, now_ns)

    def _emit_evictions(self, outcome: AccessOutcome, now_ns: float) -> None:
        """Turn LLC evictions into memory writes (posted)."""
        if outcome.writeback_address is not None:
            self.memory.access(
                MemoryRequest(outcome.writeback_address, AccessType.WRITE, now_ns)
            )
        if (
            self.writeback_clean_lines
            and outcome.clean_eviction_address is not None
        ):
            self.memory.access(
                MemoryRequest(
                    outcome.clean_eviction_address, AccessType.WRITE, now_ns
                )
            )
        if self.cache_model.inclusive:
            for evicted in (
                outcome.writeback_address,
                outcome.clean_eviction_address,
            ):
                if evicted is not None:
                    self._back_invalidate(evicted, now_ns)

    def _back_invalidate(self, address: int, when: float) -> None:
        """Inclusive LLC: evicted lines may not survive in upper levels.

        Dirty upper-level copies hold newer data than the evicted LLC
        line, so they are flushed to memory as posted writes.
        """
        for index in range(len(self.levels) - 1):
            for cache in self.levels[index]:
                present, was_dirty = cache.invalidate(address)
                if present and was_dirty:
                    self.memory.access(
                        MemoryRequest(address, AccessType.WRITE, when)
                    )
