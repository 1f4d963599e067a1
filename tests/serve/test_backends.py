"""Cache backends: the same digest-keyed contract over every store.

The directory store, the memory LRU and the pair of them are
interchangeable by construction — any payload stored under a digest
must round-trip byte-identically (same canonical JSON, same
:func:`repro.specs.spec_digest`) whichever store holds it,
corruption must quarantine instead of raising, and concurrent writers
of the same digest must never tear an entry.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.serve.backends import (
    DirectoryBackend,
    MemoryLRUBackend,
    TieredBackend,
    make_backend,
)
from repro.specs import spec_digest

KEY = "ab" * 32
OTHER = "cd" * 32
PAYLOAD = {
    "experiment_id": "scenario:x",
    "columns": ["series", "read_ratio"],
    "rows": [["a", 1.0], ["b", 0.5]],
}


def all_backends(tmp_path):
    return [
        DirectoryBackend(tmp_path / "dir"),
        MemoryLRUBackend(),
        TieredBackend(MemoryLRUBackend(), DirectoryBackend(tmp_path / "tiered")),
    ]


class TestContract:
    def test_round_trip_is_digest_identical_everywhere(self, tmp_path):
        digests = set()
        for backend in all_backends(tmp_path):
            assert backend.put(KEY, PAYLOAD, kind="scenario-result")
            stored = backend.get(KEY)
            assert stored == PAYLOAD
            digests.add(spec_digest(stored))
        assert len(digests) == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        for backend in all_backends(tmp_path):
            assert backend.get(KEY) is None
            assert backend.misses == 1
            assert backend.hits == 0

    def test_discard_and_keys(self, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put(KEY, PAYLOAD)
            backend.put(OTHER, {"x": 1})
            assert sorted(backend.keys()) == sorted([KEY, OTHER])
            backend.discard(KEY)
            assert backend.get(KEY) is None
            assert backend.get(OTHER) == {"x": 1}

    def test_clear_empties_every_backend(self, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put(KEY, PAYLOAD)
            assert backend.clear() >= 1
            assert backend.get(KEY) is None

    def test_info_keys_are_uniform(self, tmp_path):
        required = {
            "backend",
            "location",
            "entries",
            "bytes",
            "kinds",
            "kind_bytes",
            "shards",
            "corrupt_entries",
            "corrupt_bytes",
        }
        for backend in all_backends(tmp_path):
            backend.put(KEY, PAYLOAD, kind="result")
            info = backend.info()
            assert required <= set(info)
            assert info["entries"] == 1
            assert info["shards"]["count"] == 1


class TestCorruption:
    def test_dir_quarantines_corrupt_entry(self, tmp_path):
        corrupt_entries = [
            "{not json",
            # well-formed JSON, but the payload is no result
            json.dumps({"key": KEY, "kind": "", "payload": "oops"}),
        ]
        for index, corrupt in enumerate(corrupt_entries):
            backend = DirectoryBackend(tmp_path / str(index))
            backend.put(KEY, PAYLOAD)
            path = backend.path_for(KEY)
            path.write_text(corrupt)
            assert backend.get(KEY) is None
            assert backend.quarantined == 1
            assert not path.exists()
            (moved,) = list(backend.corrupt_entries())
            assert moved.name.endswith(".corrupt")
            assert backend.info()["corrupt_entries"] == 1


class TestConcurrency:
    def test_parallel_writers_same_digest_never_tear(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        payloads = [{"writer": n, "rows": [n] * 50} for n in range(8)]
        barrier = threading.Barrier(8)

        def write(payload):
            barrier.wait()
            for _ in range(25):
                assert backend.put(KEY, payload)

        threads = [
            threading.Thread(target=write, args=(payload,))
            for payload in payloads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # the winner is some writer's payload, intact — never a mix
        stored = backend.get(KEY)
        assert stored in payloads


class TestMemoryLRU:
    def test_eviction_under_entry_pressure(self):
        backend = MemoryLRUBackend(max_entries=3)
        keys = [format(n, "064x") for n in range(5)]
        for n, key in enumerate(keys):
            backend.put(key, {"n": n})
        assert backend.evictions == 2
        assert backend.get(keys[0]) is None
        assert backend.get(keys[-1]) == {"n": 4}

    def test_get_refreshes_recency(self):
        backend = MemoryLRUBackend(max_entries=2)
        a, b, c = (format(n, "064x") for n in range(3))
        backend.put(a, {"k": "a"})
        backend.put(b, {"k": "b"})
        assert backend.get(a) == {"k": "a"}  # a is now most recent
        backend.put(c, {"k": "c"})  # evicts b, not a
        assert backend.get(a) == {"k": "a"}
        assert backend.get(b) is None

    def test_stored_payloads_are_isolated(self):
        backend = MemoryLRUBackend()
        payload = {"rows": [1, 2]}
        backend.put(KEY, payload)
        payload["rows"].append(3)  # caller mutates after put
        assert backend.get(KEY) == {"rows": [1, 2]}
        backend.get(KEY)["rows"].append(9)  # caller mutates a get
        assert backend.get(KEY) == {"rows": [1, 2]}


class TestTiered:
    def test_read_through_promotes_to_fast_tier(self, tmp_path):
        fast = MemoryLRUBackend()
        slow = DirectoryBackend(tmp_path)
        slow.put(KEY, PAYLOAD)
        tiered = TieredBackend(fast, slow)
        assert tiered.get(KEY) == PAYLOAD
        assert tiered.promotions == 1
        assert fast.get(KEY) == PAYLOAD  # promoted

    def test_write_through_lands_everywhere_immediately(self, tmp_path):
        fast = MemoryLRUBackend()
        slow = DirectoryBackend(tmp_path)
        tiered = TieredBackend(fast, slow)
        tiered.put(KEY, PAYLOAD)
        assert fast.get(KEY) == PAYLOAD
        assert slow.get(KEY) == PAYLOAD


class TestMakeBackend:
    def test_named_specs(self, tmp_path):
        assert make_backend("dir", tmp_path / "a").kind == "dir"
        assert make_backend("memory", tmp_path / "c").kind == "memory"
        assert make_backend("tiered", tmp_path / "d").kind == "tiered"

    def test_tiered_alias_and_stacks(self, tmp_path):
        tiered = make_backend("tiered", tmp_path)
        assert tiered.memory.kind == "memory"
        assert tiered.directory.root == tmp_path
        # tiered is the one stack; comma-separated stacks are gone
        for stack in ("memory,dir", "memory,sqlite"):
            with pytest.raises(ConfigurationError):
                make_backend(stack, tmp_path)

    def test_unknown_spec_is_a_configuration_error(self, tmp_path):
        for name in ("redis", "sqlite"):
            with pytest.raises(ConfigurationError):
                make_backend(name, tmp_path)

    def test_round_trip_matches_canonical_json(self, tmp_path):
        backend = make_backend("tiered", tmp_path)
        backend.put(KEY, PAYLOAD)
        canonical = json.dumps(PAYLOAD, sort_keys=True)
        assert json.dumps(backend.get(KEY), sort_keys=True) == canonical
