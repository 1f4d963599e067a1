"""Set-associative cache with pluggable replacement and write policies.

The write-allocate policy is load-bearing for the whole paper: it is why
a 100%-store kernel produces 50%-read/50%-write *memory* traffic
(Section II-A), and why Mess measures higher bandwidth than STREAM
(Section III). The model is functional (real lines, real replacement
state) so traffic ratios emerge from behaviour instead of being
asserted.

State is flat and preallocated per cache, with no per-set objects. Way
``w`` of set ``s`` is slot ``s * ways + w``; per slot the cache keeps
the resident line number and a dirty bit, and one ``line -> slot`` dict
answers lookups for the whole cache (the line number fixes both set and
tag, and an evicted line's address is ``line * line_bytes``). The dict
is only ever looked up, never iterated, so victim choice cannot depend
on dict ordering. Empty ways fill lowest-first from a per-set fill
counter, after any ways freed by back-invalidation, most recently freed
first. Replacement state belongs to a whole-cache policy from
:mod:`repro.cpu.policies` (``lru``, ``plru``, ``random``) over the same
slots. The ``plru`` and ``random`` policies are called through their
``touch``/``victim`` methods, from :meth:`Cache.access` on a hit and
from ``_fill`` on a miss. The default ``lru`` is not: :meth:`Cache.access`
runs its hit and its whole fill (a free way, else the oldest stamp in
the set) in its own frame, reading and writing the policy's stamps and
clock, which saves a method call per hit and two or three per miss in
the closed-loop experiments. ``_fill`` stays the one policy-method path,
which :meth:`Cache.install` takes under every policy. The default
configuration (``lru``, 64-byte lines, write-back) is bit-exact with
the historical ``OrderedDict`` implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..specs import SpecConvertible
from ..units import CACHE_LINE_BYTES
from .policies import LruPolicy, make_policy


@dataclass
class CacheStats:
    """Hit/miss and writeback counters for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    clean_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class AccessOutcome(NamedTuple):
    """Result of one cache lookup.

    ``writeback_address`` is the base address of a dirty line this
    access evicted, if any; the hierarchy turns it into a memory WRITE.
    ``clean_eviction_address`` reports evicted *clean* lines, normally
    ignored — unless the OpenPiton coherency-bug fault injection is on
    (Section IV-C), in which case they are (incorrectly) written back.
    """

    hit: bool
    writeback_address: int | None = None
    clean_eviction_address: int | None = None


#: Shared outcomes of the two accesses that evict nothing.
_HIT = AccessOutcome(hit=True)
_MISS = AccessOutcome(hit=False)


class Cache:
    """One level of set-associative, write-allocate cache.

    Parameters
    ----------
    name:
        Level label ("L1", "L2", "L3") used in stats and errors.
    size_bytes / ways:
        Geometry; the number of sets must come out an integer but need
        not be a power of two.
    latency_ns:
        Lookup latency contributed by this level to a hit, and to the
        traversal on the way down on a miss.
    policy:
        Replacement policy name from :mod:`repro.cpu.policies`.
    line_bytes:
        Cache-line size (power of two).
    write_through:
        When true, stores never dirty lines here (the hierarchy posts
        the memory write instead), so evictions are always clean.
    policy_seed:
        Base seed for seeded policies; each set derives its own stream.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        latency_ns: float,
        policy: str = "lru",
        line_bytes: int = CACHE_LINE_BYTES,
        write_through: bool = False,
        policy_seed: int = 0,
    ) -> None:
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ConfigurationError(
                f"{name}: line_bytes must be a power of two, got {line_bytes}"
            )
        if size_bytes < line_bytes:
            raise ConfigurationError(f"{name}: cache smaller than one line")
        if ways < 1:
            raise ConfigurationError(f"{name}: ways must be >= 1, got {ways}")
        if latency_ns < 0:
            raise ConfigurationError(f"{name}: latency must be non-negative")
        lines = size_bytes // line_bytes
        if lines % ways:
            raise ConfigurationError(
                f"{name}: {lines} lines not divisible into {ways} ways"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.latency_ns = latency_ns
        self.policy = policy
        self.line_bytes = line_bytes
        self.write_through = write_through
        self.policy_seed = policy_seed
        self.num_sets = lines // ways
        self.reset()

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        slots = self.num_sets * self.ways
        self._lines: list[int | None] = [None] * slots
        self._dirty = bytearray(slots)
        self._slot_of: dict[int, int] = {}
        # ways handed out so far per set, lowest first
        self._filled = [0] * self.num_sets
        # per set, ways freed by invalidation (LIFO); a set's entry
        # exists only while non-empty
        self._freed: dict[int, list[int]] = {}
        self._policy = make_policy(
            self.policy, self.num_sets, self.ways, self.policy_seed
        )
        # the LRU policy whose state the hit and fill paths update
        # inline; None sends them through the policy's methods
        self._lru = self._policy if isinstance(self._policy, LruPolicy) else None
        self.stats = CacheStats()

    def _fill(self, line: int, dirty: bool) -> tuple[int, bool] | None:
        """Place ``line`` in a free or victimized way of its set.

        The policy-method path: :meth:`install` fills through it under
        every policy, :meth:`access` under every policy but the default
        LRU, whose fill it runs inline. Returns ``(victim_line,
        victim_dirty)``, or ``None`` when a free way absorbed the fill.
        """
        ways = self.ways
        set_index = line % self.num_sets
        base = set_index * ways
        freed = self._freed.get(set_index)
        evicted = None
        if freed:
            slot = base + freed.pop()
            if not freed:
                del self._freed[set_index]
        elif self._filled[set_index] < ways:
            slot = base + self._filled[set_index]
            self._filled[set_index] += 1
        else:
            slot = base + self._policy.victim(set_index)
            victim = self._lines[slot]
            evicted = (victim, bool(self._dirty[slot]))
            del self._slot_of[victim]
        self._lines[slot] = line
        self._dirty[slot] = dirty
        self._slot_of[line] = slot
        self._policy.touch(set_index, slot)
        return evicted

    def access(self, address: int, is_store: bool) -> AccessOutcome:
        """Look up ``address``; allocate on miss (write-allocate).

        Stores mark the line dirty (write-back mode). On an allocation
        that overflows the set, the policy's victim is evicted: dirty
        lines surface as a writeback, clean ones as a clean eviction.
        """
        line = address // self.line_bytes
        slot_of = self._slot_of
        slot = slot_of.get(line)
        dirties = is_store and not self.write_through
        lru = self._lru
        if slot is not None:
            self.stats.hits += 1
            if lru is None:
                self._policy.touch(line % self.num_sets, slot)
            else:
                # LruPolicy.touch
                lru.stamps[slot] = lru.clock
                lru.clock += 1
            if dirties:
                self._dirty[slot] = True
            return _HIT
        self.stats.misses += 1
        if lru is not None:
            # _fill for the default LRU, in this frame: a freed way, else
            # the set's next empty way, else the oldest stamp in the set
            # (LruPolicy.victim); then LruPolicy.touch
            ways = self.ways
            set_index = line % self.num_sets
            base = set_index * ways
            stamps = lru.stamps
            lines = self._lines
            dirty = self._dirty
            freed = self._freed.get(set_index)
            victim = None
            if freed:
                slot = base + freed.pop()
                if not freed:
                    del self._freed[set_index]
            elif self._filled[set_index] < ways:
                slot = base + self._filled[set_index]
                self._filled[set_index] += 1
            else:
                window = stamps[base : base + ways]
                slot = base + window.index(min(window))
                victim = lines[slot]
                victim_dirty = dirty[slot]
                del slot_of[victim]
            lines[slot] = line
            dirty[slot] = dirties
            slot_of[line] = slot
            stamps[slot] = lru.clock
            lru.clock += 1
            if victim is None:
                return _MISS
        else:
            evicted = self._fill(line, dirties)
            if evicted is None:
                return _MISS
            victim, victim_dirty = evicted
        if victim_dirty:
            self.stats.writebacks += 1
            return AccessOutcome(False, victim * self.line_bytes)
        self.stats.clean_evictions += 1
        return AccessOutcome(False, None, victim * self.line_bytes)

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no policy touch)."""
        return address // self.line_bytes in self._slot_of

    def install(self, address: int, dirty: bool) -> None:
        """Silently install a line (warmup priming; no stats, no traffic).

        Used to pre-establish cache steady state before a measurement
        window, the simulation equivalent of the real benchmark's
        discarded warmup iterations. Victims are dropped without
        generating writebacks.
        """
        line = address // self.line_bytes
        sticky = dirty and not self.write_through
        slot = self._slot_of.get(line)
        if slot is not None:
            self._policy.touch(line % self.num_sets, slot)
            if sticky:
                self._dirty[slot] = True
            return
        self._fill(line, sticky)

    def invalidate(self, address: int) -> tuple[bool, bool]:
        """Drop the line holding ``address`` (inclusive back-invalidation).

        Returns ``(was_present, was_dirty)``; the caller decides what
        to do with a dirty copy (normally: write it to memory).
        """
        line = address // self.line_bytes
        slot = self._slot_of.pop(line, None)
        if slot is None:
            return False, False
        was_dirty = bool(self._dirty[slot])
        self._lines[slot] = None
        self._dirty[slot] = False
        set_index = line % self.num_sets
        way = slot - set_index * self.ways
        self._freed.setdefault(set_index, []).append(way)
        self._policy.forget(set_index, way)
        self.stats.invalidations += 1
        return True, was_dirty

    def fill_with_scratch(self, scratch_base: int, dirty_fraction: float) -> int:
        """Fill the whole cache with scratch lines, a fraction dirty.

        After this, future allocations immediately evict lines whose
        dirty probability matches the steady state of a workload whose
        allocations are ``dirty_fraction`` stores — so write-allocate
        traffic shows its steady 1-read-1-write-per-store pattern from
        the first access instead of after a full cache-fill period.
        Returns the number of lines installed.

        The result is the state that installing the consecutive lines
        from ``scratch_base`` one by one would leave, written in one
        pass: the ``i``-th scratch line lands in way ``i // num_sets``
        of the set its line number maps to, its dirty bit follows a
        Bresenham schedule (an exact fraction over any prefix), and the
        policy takes its closed-form :meth:`fill` state. That holds only
        for a cache nothing has been allocated in since :meth:`reset`;
        any other cache raises :class:`SimulationError`.
        """
        if not 0.0 <= dirty_fraction <= 1.0:
            raise ConfigurationError(
                f"dirty_fraction must be in [0, 1], got {dirty_fraction}"
            )
        if any(self._filled):
            raise SimulationError(
                f"{self.name}: fill_with_scratch needs a cache nothing has "
                "been allocated in since reset()"
            )
        num_sets, ways = self.num_sets, self.ways
        total_lines = num_sets * ways
        first_line = scratch_base // self.line_bytes
        if self.write_through:
            dirty_by_index = bytes(total_lines)
        else:
            # line i is dirty when round((i + 1) * f) passes the dirty
            # count so far, which is round(i * f) because f <= 1 moves
            # the rounded target by at most one per line; rint rounds
            # half to even, as round() does
            targets = np.rint(np.arange(total_lines + 1) * dirty_fraction)
            dirty_by_index = (np.diff(targets) > 0).tobytes()
        # way w of every set, in set order: scratch lines w * num_sets
        # onwards, rotated so that set 0 gets the one of rank ``shift``
        shift = -first_line % num_sets
        for way in range(ways):
            start = way * num_sets
            column = range(first_line + start, first_line + start + num_sets)
            self._lines[way::ways] = [*column[shift:], *column[:shift]]
            bits = dirty_by_index[start : start + num_sets]
            self._dirty[way::ways] = bits[shift:] + bits[:shift]
        self._slot_of = dict(zip(self._lines, range(total_lines)))
        self._filled = [ways] * num_sets
        self._policy.fill(first_line % num_sets)
        return total_lines


@dataclass(frozen=True)
class CacheConfig(SpecConvertible):
    """Geometry + latency of one cache level."""

    size_bytes: int
    ways: int
    latency_ns: float


@dataclass(frozen=True)
class HierarchyConfig(SpecConvertible):
    """Three-level cache hierarchy parameters plus the on-chip overhead.

    ``noc_latency_ns`` is the round-trip network-on-chip + memory
    controller time added to every LLC miss; together with the cache
    latencies it forms the CPU-side component of the load-to-use latency
    that Section III attributes to chip architecture rather than DRAM.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 8, 1.5)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 16, 5.0)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(33 * 1024 * 1024, 11, 18.0)
    )
    noc_latency_ns: float = 45.0

    @property
    def total_hit_path_ns(self) -> float:
        """CPU-side latency of an LLC miss excluding memory service."""
        return (
            self.l1.latency_ns
            + self.l2.latency_ns
            + self.l3.latency_ns
            + self.noc_latency_ns
        )
