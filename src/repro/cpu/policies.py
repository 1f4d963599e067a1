"""Replacement-policy registry for the pluggable cache model.

A policy keeps the replacement state of a whole cache in flat,
preallocated storage shared with :class:`repro.cpu.cache.Cache`: a
line's *slot* is ``set * ways + way``. The cache calls
``touch(set, slot)`` on every hit and fill, ``victim(set)`` only when
the set is full, and ``forget(set, way)`` when a line is invalidated.
The default ``lru`` policy is the exception on the hot path:
``Cache.access`` runs an LRU hit and an LRU fill in its own frame,
updating ``stamps`` and ``clock`` exactly as :meth:`LruPolicy.touch`
and :meth:`LruPolicy.victim` would; the cold paths (``Cache.install``
through ``Cache._fill``, invalidation, the scratch fill) still call
the object.
State lives in slot- or set-indexed lists and integers — never in dict
or set iteration order — so victim choice is bit-reproducible across
processes and hash seeds (the same fence RPR010 enforces for the rest
of the simulator). The ``random`` policy uses a splitmix64-style
counter mix seeded from the scenario digest, never :mod:`random` or
``hash()``.

``fill(first_set)`` writes in one pass the state a fresh policy reaches
when way 0 of every set is touched (sets in the order ``first_set``,
``first_set + 1``, … wrapping around), then way 1 of every set, and so
on: the order in which consecutive scratch lines fill an empty cache.
"""

from __future__ import annotations

from ..errors import ConfigurationError

_MASK64 = (1 << 64) - 1

#: LRU stamp of a slot that holds no recency (never touched, or
#: forgotten): larger than any real stamp, so never the victim while a
#: touched way remains.
_NEVER = 1 << 62


def mix64(*values: int) -> int:
    """Deterministically mix integers into one 64-bit value.

    A splitmix64 finalizer folded over the inputs. Used to derive
    per-set and per-cache policy seeds from one scenario-level seed
    without any platform- or hash-seed-dependent behaviour.
    """
    state = 0x9E3779B97F4A7C15
    for value in values:
        state = (state ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        state ^= state >> 27
        state = state * 0x94D049BB133111EB & _MASK64
        state ^= state >> 31
    return state


class ReplacementPolicy:
    """Victim selection for every set of one cache.

    ``touch(set, slot)`` records a use of ``slot`` (hit or fill);
    ``victim(set)`` names the way to evict from a full set;
    ``forget(set, way)`` drops any recency state when a line is
    invalidated (back-invalidation); ``fill(first_set)`` is the
    closed-form state of a scratch-filled fresh cache.
    """

    kind = "base"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        if num_sets < 1:
            raise ConfigurationError(f"num_sets must be >= 1, got {num_sets}")
        if ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {ways}")
        self.num_sets = num_sets
        self.ways = ways

    def touch(self, set_index: int, slot: int) -> None:
        raise NotImplementedError

    def victim(self, set_index: int) -> int:
        raise NotImplementedError

    def forget(self, set_index: int, way: int) -> None:
        """Invalidate-time hook; default policies keep no per-line state."""

    def fill(self, first_set: int) -> None:
        """Closed-form fill hook; default policies keep no touch state."""


class LruPolicy(ReplacementPolicy):
    """True least-recently-used: victim is the oldest-touched way.

    Each slot holds the stamp of its last touch from one cache-wide
    clock; the victim is the way with the smallest stamp in the set's
    slice. Bit-exact with the historical ``OrderedDict`` implementation,
    whose ``popitem(last=False)`` is likewise the oldest touch.

    ``stamps`` (per slot) and ``clock`` (the stamp of the next touch)
    are public because :class:`repro.cpu.cache.Cache` updates them
    inline on its hit and fill paths; this object stays their one owner.
    """

    kind = "lru"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways, seed)
        self.stamps: list[int] = [_NEVER] * (num_sets * ways)
        self.clock = 0

    def touch(self, set_index: int, slot: int) -> None:
        self.stamps[slot] = self.clock
        self.clock += 1

    def victim(self, set_index: int) -> int:
        base = set_index * self.ways
        stamps = self.stamps[base : base + self.ways]
        return stamps.index(min(stamps))

    def forget(self, set_index: int, way: int) -> None:
        self.stamps[set_index * self.ways + way] = _NEVER

    def fill(self, first_set: int) -> None:
        num_sets, ways = self.num_sets, self.ways
        # way w of set s was touched (w * num_sets + rank of s)-th, where
        # set 0 has rank ``shift``
        shift = -first_set % num_sets
        for way in range(ways):
            column = range(way * num_sets, (way + 1) * num_sets)
            self.stamps[way::ways] = [*column[shift:], *column[:shift]]
        self.clock = num_sets * ways


class TreePlruPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU (the Simu3 exemplar's algorithm).

    One bit per internal node of a binary tree over the ways, packed
    into one int per set (node ``n`` is bit ``n``; node ``n``'s children
    are ``2n + 1`` and ``2n + 2``). A touch points every bit on the
    root-to-leaf path *away* from the touched way — one precomputed
    mask-and-set per way — and the victim walk follows the bits.
    Requires a power-of-two way count so the tree is complete.
    """

    kind = "plru"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways, seed)
        if ways & (ways - 1):
            raise ConfigurationError(
                f"plru requires a power-of-two way count, got {ways}"
            )
        self._levels = ways.bit_length() - 1
        self._bits = [0] * num_sets
        full = (1 << (ways - 1)) - 1
        self._keep: list[int] = []
        self._point: list[int] = []
        for way in range(ways):
            path = point = 0
            node = 0
            for level in range(self._levels - 1, -1, -1):
                direction = (way >> level) & 1
                path |= 1 << node
                point |= (1 - direction) << node
                node = 2 * node + 1 + direction
            self._keep.append(full ^ path)
            self._point.append(point)

    def touch(self, set_index: int, slot: int) -> None:
        way = slot % self.ways
        bits = self._bits
        bits[set_index] = (bits[set_index] & self._keep[way]) | self._point[way]

    def victim(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 0
        way = 0
        for _ in range(self._levels):
            direction = (bits >> node) & 1
            way = (way << 1) | direction
            node = 2 * node + 1 + direction
        return way

    def fill(self, first_set: int) -> None:
        bits = 0
        for way in range(self.ways):
            bits = (bits & self._keep[way]) | self._point[way]
        self._bits = [bits] * self.num_sets


class SeededRandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random victim selection.

    A counter-mode splitmix64 stream per set: the n-th victim request of
    set ``s`` returns ``mix64(mix64(seed, s), n) % ways``. The seed is
    derived from the scenario digest upstream, so two runs of the same
    scenario evict identically while distinct scenarios decorrelate.
    """

    kind = "random"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways, seed)
        self._seed = seed & _MASK64
        self._draws = [0] * num_sets

    def touch(self, set_index: int, slot: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        draws = self._draws[set_index] + 1
        self._draws[set_index] = draws
        return mix64(mix64(self._seed, set_index), draws) % self.ways


POLICIES: dict[str, type[ReplacementPolicy]] = {
    "lru": LruPolicy,
    "plru": TreePlruPolicy,
    "random": SeededRandomPolicy,
}


def policy_kinds() -> tuple[str, ...]:
    """Registered replacement-policy names, sorted."""
    return tuple(sorted(POLICIES))


def make_policy(
    kind: str, num_sets: int, ways: int, seed: int = 0
) -> ReplacementPolicy:
    """Instantiate a registered policy for a cache of ``num_sets`` sets."""
    try:
        cls = POLICIES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {kind!r}; known: {', '.join(policy_kinds())}"
        ) from None
    return cls(num_sets, ways, seed)
