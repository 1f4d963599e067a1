"""Per-set reference cache: the test oracle for the flat cache model.

This is the straightforward cache model ``repro.cpu.cache.Cache`` is
checked against: one lazily built set object per set, holding its own
way-indexed tags and dirty bits, a ``tag -> way`` dict, a free-way
stack and its own replacement-policy object. ``ReferenceCache`` has the
same public surface (``access``, ``install``, ``contains``,
``invalidate``, ``fill_with_scratch``) and the same outcomes, so any
divergence in the flat layout shows up as a differing answer.
"""

from __future__ import annotations

from repro.cpu.cache import AccessOutcome, CacheStats
from repro.cpu.policies import mix64

_MASK64 = (1 << 64) - 1


class LruPolicy:
    """True LRU over one set: recency order as a list, most recent last."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        self.ways = ways
        self._order: list[int] = []

    def touch(self, way: int) -> None:
        try:
            self._order.remove(way)
        except ValueError:
            pass
        self._order.append(way)

    def victim(self) -> int:
        return self._order[0]

    def forget(self, way: int) -> None:
        try:
            self._order.remove(way)
        except ValueError:
            pass


class TreePlruPolicy:
    """Tree pseudo-LRU over one set: one list entry per tree node."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        self.ways = ways
        self._levels = ways.bit_length() - 1
        self._bits = [0] * (ways - 1)

    def touch(self, way: int) -> None:
        node = 0
        for level in range(self._levels - 1, -1, -1):
            direction = (way >> level) & 1
            self._bits[node] = 1 - direction
            node = 2 * node + 1 + direction

    def victim(self) -> int:
        node = 0
        way = 0
        for _ in range(self._levels):
            direction = self._bits[node]
            way = (way << 1) | direction
            node = 2 * node + 1 + direction
        return way

    def forget(self, way: int) -> None:
        pass


class SeededRandomPolicy:
    """Counter-mode splitmix64 victims for one set."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        self.ways = ways
        self._seed = seed & _MASK64
        self._draws = 0

    def touch(self, way: int) -> None:
        pass

    def victim(self) -> int:
        self._draws += 1
        return mix64(self._seed, self._draws) % self.ways

    def forget(self, way: int) -> None:
        pass


POLICIES = {
    "lru": LruPolicy,
    "plru": TreePlruPolicy,
    "random": SeededRandomPolicy,
}


class _CacheSet:
    """Way-indexed state for one set: tags, dirty bits, policy."""

    __slots__ = ("tags", "dirty", "way_of", "free", "policy")

    def __init__(self, ways: int, policy) -> None:
        self.tags: list[int | None] = [None] * ways
        self.dirty: list[bool] = [False] * ways
        self.way_of: dict[int, int] = {}
        # descending so pop() yields the lowest-numbered free way
        self.free: list[int] = list(range(ways - 1, -1, -1))
        self.policy = policy


class ReferenceCache:
    """One set-associative, write-allocate cache, one object per set."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        latency_ns: float,
        policy: str = "lru",
        line_bytes: int = 64,
        write_through: bool = False,
        policy_seed: int = 0,
    ) -> None:
        self.name = name
        self.ways = ways
        self.latency_ns = latency_ns
        self.policy = policy
        self.line_bytes = line_bytes
        self.write_through = write_through
        self.policy_seed = policy_seed
        self.num_sets = size_bytes // line_bytes // ways
        self.stats = CacheStats()
        self._sets: dict[int, _CacheSet] = {}

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def _set_for(self, set_index: int) -> _CacheSet:
        state = self._sets.get(set_index)
        if state is None:
            seed = mix64(self.policy_seed, set_index)
            state = _CacheSet(self.ways, POLICIES[self.policy](self.ways, seed))
            self._sets[set_index] = state
        return state

    def _allocate(
        self, state: _CacheSet, set_index: int, tag: int, dirty: bool
    ) -> tuple[int | None, bool]:
        victim_address: int | None = None
        victim_dirty = False
        if state.free:
            way = state.free.pop()
        else:
            way = state.policy.victim()
            victim_tag = state.tags[way]
            victim_dirty = state.dirty[way]
            victim_address = (
                victim_tag * self.num_sets + set_index
            ) * self.line_bytes
            del state.way_of[victim_tag]
        state.tags[way] = tag
        state.dirty[way] = dirty
        state.way_of[tag] = way
        state.policy.touch(way)
        return victim_address, victim_dirty

    def access(self, address: int, is_store: bool) -> AccessOutcome:
        set_index, tag = self._locate(address)
        state = self._set_for(set_index)
        way = state.way_of.get(tag)
        dirties = is_store and not self.write_through
        if way is not None:
            self.stats.hits += 1
            state.policy.touch(way)
            if dirties:
                state.dirty[way] = True
            return AccessOutcome(hit=True)
        self.stats.misses += 1
        victim_address, victim_dirty = self._allocate(
            state, set_index, tag, dirty=dirties
        )
        writeback = None
        clean_eviction = None
        if victim_address is not None:
            if victim_dirty:
                self.stats.writebacks += 1
                writeback = victim_address
            else:
                self.stats.clean_evictions += 1
                clean_eviction = victim_address
        return AccessOutcome(
            hit=False,
            writeback_address=writeback,
            clean_eviction_address=clean_eviction,
        )

    def contains(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        state = self._sets.get(set_index)
        return state is not None and tag in state.way_of

    def install(self, address: int, dirty: bool) -> None:
        set_index, tag = self._locate(address)
        state = self._set_for(set_index)
        sticky = dirty and not self.write_through
        way = state.way_of.get(tag)
        if way is not None:
            state.policy.touch(way)
            state.dirty[way] = state.dirty[way] or sticky
            return
        self._allocate(state, set_index, tag, dirty=sticky)

    def invalidate(self, address: int) -> tuple[bool, bool]:
        set_index, tag = self._locate(address)
        state = self._sets.get(set_index)
        if state is None:
            return False, False
        way = state.way_of.get(tag)
        if way is None:
            return False, False
        was_dirty = state.dirty[way]
        del state.way_of[tag]
        state.tags[way] = None
        state.dirty[way] = False
        state.free.append(way)
        state.policy.forget(way)
        self.stats.invalidations += 1
        return True, was_dirty

    def fill_with_scratch(self, scratch_base: int, dirty_fraction: float) -> int:
        """The per-line install loop the closed-form fill replaces."""
        total_lines = self.num_sets * self.ways
        dirty_acc = 0
        for index in range(total_lines):
            target = round((index + 1) * dirty_fraction)
            dirty = target > dirty_acc
            if dirty:
                dirty_acc += 1
            self.install(scratch_base + index * self.line_bytes, dirty=dirty)
        return total_lines

    def resident(self) -> dict[int, bool]:
        """``line -> dirty`` for every resident line."""
        return {
            tag * self.num_sets + set_index: state.dirty[way]
            for set_index, state in self._sets.items()
            for tag, way in state.way_of.items()
        }
