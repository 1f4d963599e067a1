"""The result stores: one digest-keyed contract over both of them.

The runner's directory store and the serve store (the same directory
with a memory LRU in front of it) are interchangeable by construction —
any payload stored under a digest must round-trip byte-identically
(same canonical JSON, same :func:`repro.specs.spec_digest`) whichever
store holds it, corruption must quarantine instead of raising, and
concurrent writers of the same digest must never tear an entry.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.serve.backends import TieredBackend
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
        ResultCache(tmp_path / "dir"),
        TieredBackend(tmp_path / "tiered"),
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

    def test_discard(self, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put(KEY, PAYLOAD)
            backend.put(OTHER, {"x": 1})
            backend.discard(KEY)
            assert backend.get(KEY) is None
            assert not backend.path_for(KEY).exists()
            assert backend.get(OTHER) == {"x": 1}

    def test_unserializable_payload_is_refused(self, tmp_path):
        for backend in all_backends(tmp_path):
            assert backend.put(KEY, {"x": object()}) is False
            assert backend.get(KEY) is None
            # nothing is left behind, not even the temporary file
            assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_clear_empties_every_backend(self, tmp_path):
        for backend in all_backends(tmp_path):
            backend.put(KEY, PAYLOAD)
            assert backend.clear() >= 1
            assert backend.get(KEY) is None

    def test_info_keys_are_uniform(self, tmp_path):
        required = {
            "root",
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
            for backend in all_backends(tmp_path / str(index)):
                path = backend.path_for(KEY)
                path.parent.mkdir(parents=True)
                path.write_text(corrupt)
                assert backend.get(KEY) is None
                assert backend.quarantined == 1
                assert not path.exists()
                (moved,) = list(backend.corrupt_entries())
                assert moved.name.endswith(".corrupt")
                assert backend.info()["corrupt_entries"] == 1


class TestConcurrency:
    def test_parallel_writers_same_digest_never_tear(self, tmp_path):
        for backend in all_backends(tmp_path):
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
            assert backend.get(KEY) in payloads
            assert ResultCache(backend.root).get(KEY) in payloads


    def test_shared_serve_store_counts_every_read(self, tmp_path):
        # more threads than cores, switching often: a count or an LRU
        # byte total updated outside the lock would drift
        keys = [format(n, "064x") for n in range(24)]
        seeded = ResultCache(tmp_path)
        for n, key in enumerate(keys):
            seeded.put(key, {"n": n, "rows": [n] * n})
        store = TieredBackend(tmp_path, max_entries=8)
        threads_n, reads = 12, 300
        wrong = []

        def read(offset):
            for index in range(reads):
                n = (offset * 7 + index) % len(keys)
                if store.get(keys[n]) != {"n": n, "rows": [n] * n}:
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(offset,))
                for offset in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = store.stats()
        assert stats["hits"] + stats["misses"] == threads_n * reads
        assert stats["misses"] == 0
        assert stats["lru_entries"] == 8
        assert stats["lru_bytes"] == sum(len(blob) for blob in store._lru.values())


class TestMemoryLRU:
    def test_eviction_under_entry_pressure(self, tmp_path):
        backend = TieredBackend(tmp_path, max_entries=3)
        keys = [format(n, "064x") for n in range(5)]
        for n, key in enumerate(keys):
            backend.put(key, {"n": n})
        assert backend.evictions == 2
        assert backend.stats()["lru_entries"] == 3
        # an evicted entry still reads back, from the directory
        assert backend.get(keys[0]) == {"n": 0}
        assert backend.promotions == 1
        assert backend.get(keys[-1]) == {"n": 4}

    def test_get_refreshes_recency(self, tmp_path):
        backend = TieredBackend(tmp_path, max_entries=2)
        a, b, c = (format(n, "064x") for n in range(3))
        backend.put(a, {"k": "a"})
        backend.put(b, {"k": "b"})
        assert backend.get(a) == {"k": "a"}  # a is now most recent
        backend.put(c, {"k": "c"})  # evicts b, not a
        assert backend.get(a) == {"k": "a"}
        assert backend.promotions == 0
        assert backend.get(b) == {"k": "b"}
        assert backend.promotions == 1  # b came back from the directory

    def test_stored_payloads_are_isolated(self, tmp_path):
        backend = TieredBackend(tmp_path)
        payload = {"rows": [1, 2]}
        backend.put(KEY, payload)
        payload["rows"].append(3)  # caller mutates after put
        assert backend.get(KEY) == {"rows": [1, 2]}
        backend.get(KEY)["rows"].append(9)  # caller mutates a get
        assert backend.get(KEY) == {"rows": [1, 2]}

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TieredBackend(tmp_path, max_entries=0)


class TestTiered:
    def test_read_through_promotes_to_fast_tier(self, tmp_path):
        ResultCache(tmp_path).put(KEY, PAYLOAD)
        tiered = TieredBackend(tmp_path)
        assert tiered.stats()["lru_entries"] == 0
        assert tiered.get(KEY) == PAYLOAD
        assert tiered.promotions == 1
        assert tiered.stats()["lru_entries"] == 1  # promoted
        # the next read comes from memory, with the file gone
        tiered.path_for(KEY).unlink()
        assert tiered.get(KEY) == PAYLOAD
        assert tiered.promotions == 1

    def test_memory_read_touches_no_file(self, tmp_path, monkeypatch):
        ResultCache(tmp_path).put(KEY, PAYLOAD)
        tiered = TieredBackend(tmp_path)
        tiered.put(OTHER, {"x": 1})

        def no_file_io(*args, **kwargs):
            raise RuntimeError("get_memory touched the directory")

        for name in ("stat", "read_bytes", "read_text", "open"):
            monkeypatch.setattr(pathlib.Path, name, no_file_io)
        assert tiered.get_memory(KEY) is None  # in the directory only
        assert tiered.get_memory(OTHER) == {"x": 1}
        # a miss is left for the read-through get to count
        assert (tiered.hits, tiered.misses, tiered.promotions) == (1, 0, 0)

    def test_write_through_lands_everywhere_immediately(self, tmp_path):
        tiered = TieredBackend(tmp_path)
        tiered.put(KEY, PAYLOAD, kind="result")
        assert tiered.stats()["lru_entries"] == 1
        assert ResultCache(tmp_path).get(KEY) == PAYLOAD

    def test_round_trip_matches_canonical_json(self, tmp_path):
        backend = TieredBackend(tmp_path)
        backend.put(KEY, PAYLOAD)
        canonical = json.dumps(PAYLOAD, sort_keys=True)
        assert json.dumps(backend.get(KEY), sort_keys=True) == canonical

    def test_stats_count_in_memory(self, tmp_path):
        backend = TieredBackend(tmp_path, max_entries=4)
        backend.put(KEY, PAYLOAD, kind="result")
        backend.get(KEY)
        backend.get(OTHER)
        assert backend.stats() == {
            "root": str(tmp_path),
            "lru_entries": 1,
            "lru_bytes": len(json.dumps(PAYLOAD)),
            "max_entries": 4,
            "evictions": 0,
            "promotions": 0,
            "hits": 1,
            "misses": 1,
            "quarantined": 0,
        }
