"""The service's result stores: the directory cache, a memory LRU, the pair.

The scenario layer made every run a pure function of its spec — the
digest is the identity — and the runner's on-disk store made results
content-addressed. That store, and the :class:`CacheBackend` contract
it implements, live in :mod:`repro.runner.cache`; this module adds what
serving needs on top of it:

- :class:`MemoryLRUBackend` — a bounded in-process LRU, the hot set
  (and the whole store for the in-process serve benches).
- :class:`TieredBackend` — that LRU in front of the directory store:
  reads fall through to the directory and promote hits into memory;
  writes land in both before ``put`` returns.

:func:`make_backend` builds one of the three by name (``dir``,
``memory`` or ``tiered``). Every store keeps the contract's rules: get
never raises, put never raises, and a payload reads back as the same
JSON value whichever store holds it.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator

from ..errors import ConfigurationError
from ..runner.cache import SHARD_CHARS, CacheBackend, DirectoryBackend, ResultCache

#: Default entry bound of the in-memory LRU tier.
DEFAULT_LRU_ENTRIES = 1024


class MemoryLRUBackend(CacheBackend):
    """A bounded in-process LRU tier.

    Values are stored as their canonical JSON encoding (not object
    references), so a cached payload cannot be mutated by one consumer
    under another — the same isolation the on-disk store gets for
    free. Least-recently-used entries are evicted once ``max_entries``
    is exceeded; evictions are counted, not errors.
    """

    kind = "memory"

    def __init__(self, max_entries: int = DEFAULT_LRU_ENTRIES) -> None:
        super().__init__()
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.evictions = 0
        self._lock = threading.Lock()
        #: key -> (blob, kind); ordered oldest-first.
        self._entries: "OrderedDict[str, tuple[str, str]]" = OrderedDict()
        self._bytes = 0

    @property
    def location(self) -> str:
        return f"memory (max_entries={self.max_entries})"

    def _do_get(self, key: str) -> "dict | list | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            blob = entry[0]
        try:
            payload = json.loads(blob)
        except (ValueError, TypeError):  # pragma: no cover - defensive
            with self._lock:
                self._discard_locked(key)
            self._quarantined_one(key)
            return None
        return payload

    def _discard_locked(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= len(entry[0])

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        try:
            blob = json.dumps(payload)
        except (TypeError, ValueError):
            return False
        with self._lock:
            self._discard_locked(key)
            self._entries[key] = (blob, kind)
            self._bytes += len(blob)
            while len(self._entries) > self.max_entries:
                evicted_key, (evicted_blob, _kind) = self._entries.popitem(
                    last=False
                )
                self._bytes -= len(evicted_blob)
                self.evictions += 1
        return True

    def discard(self, key: str) -> None:
        with self._lock:
            self._discard_locked(key)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._entries))

    def info(self, detail: bool = False) -> dict:
        with self._lock:
            snapshot = [
                (key, len(blob), kind)
                for key, (blob, kind) in self._entries.items()
            ]
            total = self._bytes
            evictions = self.evictions
        kinds: dict[str, int] = {}
        kind_bytes: dict[str, int] = {}
        shard_counts: dict[str, int] = {}
        for key, size, kind in snapshot:
            kind = kind or "unknown"
            kinds[kind] = kinds.get(kind, 0) + 1
            kind_bytes[kind] = kind_bytes.get(kind, 0) + size
            shard = key[:SHARD_CHARS]
            shard_counts[shard] = shard_counts.get(shard, 0) + 1
        info = {
            "backend": self.kind,
            "location": self.location,
            "entries": len(snapshot),
            "bytes": total,
            "kinds": kinds,
            "kind_bytes": kind_bytes,
            "shards": self._shard_summary(shard_counts),
            "corrupt_entries": 0,
            "corrupt_bytes": 0,
            "evictions": evictions,
            "max_entries": self.max_entries,
        }
        if detail:
            info["entry_list"] = sorted(
                (
                    {"key": key, "kind": kind or "unknown", "bytes": size}
                    for key, size, kind in snapshot
                ),
                key=lambda entry: (-entry["bytes"], entry["key"]),
            )
            info["corrupt_list"] = []
            info["shard_counts"] = dict(sorted(shard_counts.items()))
        return info

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        return count


class TieredBackend(CacheBackend):
    """A memory LRU in front of the directory store.

    ``get`` tries the LRU first; a directory hit is promoted into the
    LRU before returning, so the hot set migrates into memory on its
    own. ``put`` stores in the LRU and then in the directory before it
    returns, so the durable store holds everything the service ever
    acknowledged.
    """

    kind = "tiered"

    def __init__(
        self, memory: MemoryLRUBackend, directory: DirectoryBackend
    ) -> None:
        super().__init__()
        self.memory = memory
        self.directory = directory
        self.promotions = 0

    @property
    def location(self) -> str:
        return f"{self.memory.kind} -> {self.directory.kind}"

    def _do_get(self, key: str) -> "dict | list | None":
        payload = self.memory.get(key)
        if payload is None:
            payload = self.directory.get(key)
            if payload is not None:
                self.memory.put(key, payload)
                self.promotions += 1
        return payload

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        stored = self.memory.put(key, payload, kind)
        return self.directory.put(key, payload, kind) or stored

    def discard(self, key: str) -> None:
        self.memory.discard(key)
        self.directory.discard(key)

    def keys(self) -> Iterator[str]:
        seen: set[str] = set()
        for tier in (self.memory, self.directory):
            for key in tier.keys():
                if key not in seen:
                    seen.add(key)
                    yield key

    def info(self, detail: bool = False) -> dict:
        tier_infos = [
            self.memory.info(detail=detail),
            self.directory.info(detail=detail),
        ]
        # the directory is the durable tier: it reports sizes and shards
        durable = tier_infos[-1]
        info = {
            "backend": self.kind,
            "location": self.location,
            "entries": max(tier["entries"] for tier in tier_infos),
            "bytes": durable["bytes"],
            "kinds": dict(durable["kinds"]),
            "kind_bytes": dict(durable["kind_bytes"]),
            "shards": dict(durable["shards"]),
            "corrupt_entries": sum(
                tier["corrupt_entries"] for tier in tier_infos
            ),
            "corrupt_bytes": sum(tier["corrupt_bytes"] for tier in tier_infos),
            "promotions": self.promotions,
            "tiers": tier_infos,
        }
        if detail:
            info["entry_list"] = durable.get("entry_list", [])
            info["corrupt_list"] = durable.get("corrupt_list", [])
            info["shard_counts"] = durable.get("shard_counts", {})
        return info

    def clear(self) -> int:
        return max(self.memory.clear(), self.directory.clear())


#: Backend names accepted by :func:`make_backend`.
BACKEND_NAMES = ("dir", "memory", "tiered")


def make_backend(name: str, root: "str | Path | None" = None) -> CacheBackend:
    """Build the store called ``name``: ``dir``, ``memory`` or ``tiered``.

    ``tiered`` is a :class:`MemoryLRUBackend` in front of the directory
    store. ``root`` locates the directory store; it defaults to the
    runner's cache directory, so a server and ``repro run`` share
    entries by default.
    """
    if name == "memory":
        return MemoryLRUBackend()
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown cache backend {name!r}; available: {list(BACKEND_NAMES)}"
        )
    directory = ResultCache(root)
    if name == "dir":
        return directory
    return TieredBackend(MemoryLRUBackend(), directory)
