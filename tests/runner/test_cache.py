"""Tests for the content-addressed on-disk cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.runner import cache as cache_mod
from repro.runner.cache import ResultCache, default_cache_dir, stable_digest


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


class TestKeys:
    def test_digest_is_order_independent(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_digest_distinguishes_values(self):
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_key_includes_kind(self, cache):
        config = {"x": 1}
        assert cache.key_for("result", config) != cache.key_for(
            "characterization", config
        )

    def test_key_is_hex_sha256(self, cache):
        key = cache.key_for("result", {"x": 1})
        assert len(key) == 64
        int(key, 16)  # must parse as hex

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestRoundTrip:
    def test_put_get(self, cache):
        key = cache.key_for("result", {"id": "fig2"})
        payload = {"rows": [1, 2, 3], "title": "demo"}
        assert cache.put(key, payload, kind="result")
        assert cache.get(key) == payload
        assert cache.hits == 1

    def test_miss_returns_none(self, cache):
        assert cache.get(cache.key_for("result", {"id": "nothing"})) is None
        assert cache.misses == 1

    def test_no_temp_droppings(self, cache):
        key = cache.key_for("result", {"id": "fig2"})
        cache.put(key, {"v": 1})
        leftovers = [
            p
            for p in cache.root.rglob("*")
            if p.is_file() and not p.name.endswith(f"{key}.json")
        ]
        assert leftovers == []

    def test_put_failure_is_nonfatal(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache root should be")
        cache = ResultCache(blocked)
        assert cache.put("ab" * 32, {"v": 1}) is False


class TestCorruption:
    def test_truncated_entry_is_discarded(self, cache):
        key = cache.key_for("result", {"id": "fig2"})
        cache.put(key, {"v": 1})
        path = cache.path_for(key)
        path.write_text('{"key": "' + key + '", "payl')  # truncated JSON
        assert cache.get(key) is None
        assert not path.exists(), "corrupt entry must be deleted"
        # recompute-and-store works again afterwards
        assert cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    def test_key_mismatch_is_discarded(self, cache):
        key = cache.key_for("result", {"id": "fig2"})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"key": "0" * 64, "payload": {"v": 1}}))
        assert cache.get(key) is None
        assert not path.exists()

    def test_garbage_bytes_are_discarded(self, cache):
        key = cache.key_for("result", {"id": "fig2"})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(os.urandom(64))
        assert cache.get(key) is None
        assert cache.misses == 1


class TestMaintenance:
    def test_info_counts_entries(self, cache):
        assert cache.info()["entries"] == 0
        cache.put(cache.key_for("result", {"i": 1}), {"v": 1}, kind="result")
        cache.put(
            cache.key_for("characterization", {"i": 2}),
            {"v": 2},
            kind="characterization",
        )
        info = cache.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert info["kinds"] == {"result": 1, "characterization": 1}

    def test_clear_removes_everything(self, cache):
        for i in range(3):
            cache.put(cache.key_for("result", {"i": i}), {"v": i})
        assert cache.clear() == 3
        assert cache.info()["entries"] == 0


class TestActivation:
    def test_activate_deactivate(self, cache):
        assert cache_mod.active_cache() is None
        installed = cache_mod.activate(cache)
        assert installed is cache
        assert cache_mod.active_cache() is cache
        cache_mod.deactivate()
        assert cache_mod.active_cache() is None

    def test_activate_default_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path / "envcache"))
        installed = cache_mod.activate()
        try:
            assert installed.root == tmp_path / "envcache"
        finally:
            cache_mod.deactivate()
