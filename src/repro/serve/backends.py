"""The service's result store: a memory LRU in front of the directory cache.

The scenario layer made every run a pure function of its spec — the
digest is the identity — and the runner's on-disk store made results
content-addressed. That store, :class:`~repro.runner.cache.ResultCache`,
lives in :mod:`repro.runner.cache`; this module adds the one thing
serving needs on top of it: :class:`TieredBackend`, the same directory
store with a bounded in-process LRU in front of it, which answers the
hot set without touching the disk.

It keeps the store's rules: get never raises, put never raises, and a
payload reads back as the same JSON value whether the LRU or the
directory holds it.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path

from ..errors import ConfigurationError
from ..runner.cache import ResultCache

#: Default entry bound of the in-memory LRU.
DEFAULT_LRU_ENTRIES = 1024


class TieredBackend(ResultCache):
    """The directory store with a bounded memory LRU in front of it.

    ``get`` tries the LRU first; a directory hit is promoted into the
    LRU before returning, so the hot set migrates into memory on its
    own. ``put`` stores in the LRU and then in the directory before it
    returns; when the directory write fails (a full disk) the LRU alone
    holds the entry. The LRU holds each payload's canonical JSON encoding
    (not an object reference), so a cached payload cannot be mutated by
    one consumer under another — the isolation the directory gets for
    free. Least-recently-used entries are evicted once ``max_entries``
    is exceeded; evictions are counted, not errors.
    """

    def __init__(
        self,
        root: "str | Path | None" = None,
        max_entries: int = DEFAULT_LRU_ENTRIES,
    ) -> None:
        super().__init__(root)
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.evictions = 0
        self.promotions = 0
        self._lock = threading.Lock()
        #: key -> canonical JSON blob; ordered oldest-first.
        self._lru: "OrderedDict[str, str]" = OrderedDict()
        self._lru_bytes = 0

    def get(self, key: str) -> "dict | list | None":
        payload = self.get_memory(key)
        if payload is not None:
            return payload
        payload = self._read(key)
        blob = None if payload is None else json.dumps(payload)
        with self._lock:
            if blob is None:
                self.misses += 1
            else:
                self.hits += 1
                self.promotions += 1
                self._insert_locked(key, blob)
        return payload

    def get_memory(self, key: str) -> "dict | list | None":
        """The LRU's payload under ``key``, or ``None``; reads no file.

        The event loop calls this directly. A hit counts as a store hit;
        a miss is not counted, because the caller then reads through
        :meth:`get`, which counts it.
        """
        # executor threads share the store: every count changes under
        # the lock, and no JSON is encoded or decoded while holding it
        with self._lock:
            blob = self._lru.get(key)
            if blob is None:
                return None
            self._lru.move_to_end(key)
            self.hits += 1
        return json.loads(blob)

    def put(self, key: str, payload: "dict | list", kind: str = "") -> bool:
        try:
            blob = json.dumps(payload)
        except (TypeError, ValueError):
            return False
        with self._lock:
            self._insert_locked(key, blob)
        super().put(key, payload, kind)
        return True

    def _insert_locked(self, key: str, blob: str) -> None:
        """Make ``blob`` the most recent entry, evicting past the bound."""
        self._forget_locked(key)
        self._lru[key] = blob
        self._lru_bytes += len(blob)
        while len(self._lru) > self.max_entries:
            _evicted, evicted_blob = self._lru.popitem(last=False)
            self._lru_bytes -= len(evicted_blob)
            self.evictions += 1

    def _forget_locked(self, key: str) -> None:
        blob = self._lru.pop(key, None)
        if blob is not None:
            self._lru_bytes -= len(blob)

    def discard(self, key: str) -> None:
        with self._lock:
            self._forget_locked(key)
        super().discard(key)

    def clear(self) -> int:
        with self._lock:
            self._lru.clear()
            self._lru_bytes = 0
        return super().clear()

    def stats(self) -> dict:
        """The store's counters, for ``/stats``; reads no file.

        :meth:`~repro.runner.cache.ResultCache.info` walks and parses
        every entry file, which ``repro cache info`` can afford and a
        request on the event loop cannot.
        """
        with self._lock:
            return {
                "root": str(self.root),
                "lru_entries": len(self._lru),
                "lru_bytes": self._lru_bytes,
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "promotions": self.promotions,
                "hits": self.hits,
                "misses": self.misses,
                "quarantined": self.quarantined,
            }
