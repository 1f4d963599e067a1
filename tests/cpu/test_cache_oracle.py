"""The flat cache model against the per-set reference cache.

``tests/cpu/reference_cache.py`` keeps the straightforward per-set
model (one object, tag dict, free-way stack and policy per set). Random
operation sequences replayed on both must give identical answers —
every ``AccessOutcome``, every ``CacheStats`` field, every residency
and invalidation result — for each replacement policy, both write
policies and several geometries, including non-power-of-two set counts.
The closed-form ``fill_with_scratch`` must leave the state the
reference's per-line install loop leaves.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import Cache
from repro.cpu.policies import policy_kinds
from repro.errors import SimulationError

from .reference_cache import ReferenceCache

#: (size_bytes, ways, line_bytes): sets = size / line / ways
GEOMETRIES = [
    (4 * 64, 4, 64),  # one fully associative set
    (16 * 64, 4, 64),  # 4 sets
    (12 * 64, 4, 64),  # 3 sets
    (40 * 64, 8, 64),  # 5 sets, 8 ways
    (8 * 32, 2, 32),  # 4 sets, 32-byte lines
    (6 * 64, 1, 64),  # direct-mapped, 6 sets
    (9 * 64, 3, 64),  # 3 sets, 3 ways (not for plru)
]

CASES = [
    (policy, write_through, geometry)
    for policy in policy_kinds()
    for write_through in (False, True)
    for geometry in GEOMETRIES
    if not (policy == "plru" and geometry[1] & (geometry[1] - 1))
]

SEED = 0x5EED


def build_pair(policy, write_through, geometry):
    size, ways, line_bytes = geometry
    kwargs = dict(
        policy=policy,
        line_bytes=line_bytes,
        write_through=write_through,
        policy_seed=SEED,
    )
    return (
        Cache("T", size, ways, 1.0, **kwargs),
        ReferenceCache("T", size, ways, 1.0, **kwargs),
    )


def resident(cache: Cache) -> dict[int, bool]:
    """``line -> dirty`` for every line resident in a flat cache."""
    view = {}
    for line, slot in cache._slot_of.items():
        assert cache._lines[slot] == line
        view[line] = bool(cache._dirty[slot])
    return view


def case_id(case):
    policy, write_through, (size, ways, line_bytes) = case
    sets = size // line_bytes // ways
    mode = "wt" if write_through else "wb"
    return f"{policy}-{mode}-{sets}x{ways}x{line_bytes}"


OPS = ("access",) * 3 + ("install",) + ("invalidate",) * 2 + ("contains",)


def decode(data: bytes, cache: Cache):
    """Byte pairs -> ``(op, address, store-or-dirty flag)``.

    Lines fold onto twice the capacity: enough conflict to evict,
    enough reuse to hit and to invalidate resident lines.
    """
    span = 2 * cache.num_sets * cache.ways
    for code, line in zip(data[::2], data[1::2]):
        offset = (code * 13) % cache.line_bytes
        yield OPS[code % len(OPS)], (line % span) * cache.line_bytes + offset, code >= 128


@pytest.mark.parametrize("case", CASES, ids=[case_id(case) for case in CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=100, max_size=600))
def test_replay_matches_reference(case, data):
    cache, reference = build_pair(*case)
    for op, address, flag in decode(data, cache):
        if op == "access":
            assert cache.access(address, flag) == reference.access(address, flag)
        elif op == "install":
            cache.install(address, flag)
            reference.install(address, flag)
        elif op == "invalidate":
            assert cache.invalidate(address) == reference.invalidate(address)
        else:
            assert cache.contains(address) == reference.contains(address)
    assert asdict(cache.stats) == asdict(reference.stats)
    assert resident(cache) == reference.resident()


PRIME_GEOMETRIES = [
    (64 * 64, 4, 64),  # 16 sets
    (60 * 64, 4, 64),  # 15 sets
    (96 * 32, 8, 32),  # 12 sets, 32-byte lines
]


@pytest.mark.parametrize("policy", policy_kinds())
@pytest.mark.parametrize("write_through", (False, True))
@pytest.mark.parametrize("geometry", PRIME_GEOMETRIES)
@pytest.mark.parametrize("dirty_fraction", (0.0, 1 / 3, 0.5, 1.0))
def test_closed_form_fill_matches_install_loop(
    policy, write_through, geometry, dirty_fraction
):
    cache, reference = build_pair(policy, write_through, geometry)
    # an unaligned base whose first line lands mid-way through the sets
    scratch_base = (1 << 30) + 7 * cache.line_bytes + 5
    assert cache.fill_with_scratch(scratch_base, dirty_fraction) == (
        reference.fill_with_scratch(scratch_base, dirty_fraction)
    )
    assert resident(cache) == reference.resident()
    assert asdict(cache.stats) == asdict(reference.stats)
    # the primed state must evict and write back exactly as the
    # reference does, store-heavy traffic over three cache capacities
    line_bytes = cache.line_bytes
    lines = cache.num_sets * cache.ways
    for step in range(3 * lines):
        address = ((step * 7) % (2 * lines)) * line_bytes
        is_store = step % 3 != 0
        assert cache.access(address, is_store) == reference.access(
            address, is_store
        )
    assert asdict(cache.stats) == asdict(reference.stats)
    assert resident(cache) == reference.resident()


@settings(max_examples=50, deadline=None)
@given(dirty_fraction=st.floats(min_value=0.0, max_value=1.0))
def test_fill_dirty_schedule_matches_install_loop(dirty_fraction):
    cache, reference = build_pair("lru", False, (60 * 64, 4, 64))
    cache.fill_with_scratch(1 << 30, dirty_fraction)
    reference.fill_with_scratch(1 << 30, dirty_fraction)
    assert resident(cache) == reference.resident()


class TestFillPrecondition:
    def test_warm_cache_rejected(self):
        cache = Cache("T", 16 * 64, 4, 1.0)
        cache.access(0, is_store=False)
        with pytest.raises(SimulationError):
            cache.fill_with_scratch(1 << 20, dirty_fraction=0.5)

    def test_invalidated_cache_still_warm(self):
        cache = Cache("T", 16 * 64, 4, 1.0)
        cache.install(0, dirty=True)
        cache.invalidate(0)
        with pytest.raises(SimulationError):
            cache.fill_with_scratch(1 << 20, dirty_fraction=0.5)

    def test_second_fill_rejected(self):
        cache = Cache("T", 16 * 64, 4, 1.0)
        cache.fill_with_scratch(1 << 20, dirty_fraction=1.0)
        with pytest.raises(SimulationError):
            cache.fill_with_scratch(1 << 20, dirty_fraction=1.0)

    def test_reset_makes_fill_legal_again(self):
        cache = Cache("T", 16 * 64, 4, 1.0)
        cache.access(0, is_store=True)
        cache.reset()
        assert cache.fill_with_scratch(1 << 20, dirty_fraction=1.0) == 16
