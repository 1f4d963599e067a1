"""Content-addressed result cache for characterizations and results.

The expensive step of every experiment is characterization: one curve
family is a full store-fraction × nop-count sweep over the cycle-level
CPU+DRAM substrate. This cache memoizes those sweeps (and whole
experiment results) on disk so repeat runs are near-instant, keyed by a
stable hash of the *complete* configuration plus the package version —
change any sweep parameter, system knob or the code version and the key
changes with it.

This module holds the one result store. :class:`CacheBackend` is the
storage contract, :class:`DirectoryBackend` the content-addressed
directory tree that implements it, and :class:`ResultCache` that
directory store plus key derivation and the default root. ``repro
run``, the benchmark harness, ``repro cache`` and ``repro serve`` all
read and write the same entries; :mod:`repro.serve.backends` only puts
a memory LRU in front of this store, and imports it from here, so
importing the runner never loads the serving stack.

Contract rules (kept by every backend):

- **get never raises.** A missing, unreadable or corrupt entry is a
  miss; corruption is quarantined (the evidence survives for ``repro
  cache info``) and counted, never fatal.
- **put never raises.** A full disk degrades to "no cache"
  (``False``), not to an error.
- **Digest-identical everywhere.** A payload written through one
  backend and read through another is byte-for-byte the same JSON
  value; the round-trip suite in ``tests/serve`` enforces this.

The default location is ``~/.cache/repro-mess``; override it with the
``REPRO_CACHE_DIR`` environment variable or ``--cache-dir`` on the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Mapping

from ..telemetry import registry as telemetry_mod

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Suffix appended to a corrupt entry's filename when it is quarantined.
CORRUPT_SUFFIX = ".corrupt"

#: Digest prefix length used for sharding (directory fan-out). Two hex
#: chars -> 256 shards.
SHARD_CHARS = 2

_DEFAULT_CACHE_DIR = "~/.cache/repro-mess"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mess``."""
    return Path(os.environ.get(ENV_CACHE_DIR) or _DEFAULT_CACHE_DIR).expanduser()


def _package_version() -> str:
    # imported lazily: this module must stay importable while the repro
    # package itself is still initializing
    try:
        from repro import __version__

        return str(__version__)
    except Exception:  # pragma: no cover - partial-init fallback
        return "unknown"


def stable_digest(payload: object) -> str:
    """Hex sha256 of a canonical JSON encoding of ``payload``.

    ``sort_keys`` plus compact separators make the encoding independent
    of dict insertion order; non-JSON values fall back to ``str`` so
    configuration objects can carry e.g. ``Path`` members.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _count_quarantine(key: str) -> None:
    """Emit the quarantine telemetry counter/event when a registry is on."""
    registry = telemetry_mod.active()
    if registry is not None:
        registry.counter(
            "cache.corrupt_quarantined",
            help="corrupt cache entries quarantined on read",
        ).inc()
        registry.event("cache.quarantined", category="cache", key=key)


class CacheBackend:
    """The storage contract every cache tier implements.

    Subclasses override the ``_do_*`` primitives; the public methods
    add the shared miss/hit/quarantine accounting so counters mean the
    same thing regardless of backend.
    """

    #: Short machine-readable backend kind (``dir`` / ``memory`` /
    #: ``tiered``).
    kind: str = "abstract"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # -- primitives (override) -----------------------------------------

    def _do_get(self, key: str) -> "dict | list | None":
        raise NotImplementedError

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        raise NotImplementedError

    def discard(self, key: str) -> None:
        """Best-effort removal of one entry."""
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        """Every digest currently stored."""
        raise NotImplementedError

    def info(self, detail: bool = False) -> dict:
        """Uniform summary: backend, location, entries, shards, corruption.

        Every backend reports the same keys — ``backend``, ``location``,
        ``entries``, ``bytes``, ``kinds``, ``kind_bytes``,
        ``corrupt_entries``, ``corrupt_bytes`` and a ``shards`` summary
        (``{"count", "max", "mean"}`` over the digest-prefix shards) —
        so ``repro cache info`` and the service's ``/stats`` read them
        alike. With ``detail``, ``entry_list`` / ``corrupt_list`` /
        ``shard_counts`` are included.
        """
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every entry (quarantined included); returns the count."""
        raise NotImplementedError

    # -- shared accounting ----------------------------------------------

    def get(self, key: str) -> "dict | list | None":
        """The payload stored under ``key``, or ``None`` (never raises)."""
        payload = self._do_get(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: "dict | list", kind: str = "") -> bool:
        """Store ``payload`` under ``key``; ``False`` on failure."""
        return self._do_put(key, payload, kind)

    def _quarantined_one(self, key: str) -> None:
        self.quarantined += 1
        _count_quarantine(key)

    @staticmethod
    def _shard_summary(counts: Mapping[str, int]) -> dict:
        total = sum(counts.values())
        return {
            "count": len(counts),
            "max": max(counts.values()) if counts else 0,
            "mean": (total / len(counts)) if counts else 0.0,
        }


class DirectoryBackend(CacheBackend):
    """The content-addressed directory store.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fan-out keeps any
    single directory small) and wrap the payload with its key and kind
    so :meth:`get` can reject entries that landed at the wrong path.
    Writes go to a temporary file in the destination directory and are
    ``os.replace``d into place, so a concurrent reader (or a killed
    worker) never observes a half-written entry. Corrupt entries are
    renamed to ``<entry>.json.corrupt`` on read.
    """

    kind = "dir"

    def __init__(self, root: "str | Path") -> None:
        super().__init__()
        self.root = Path(root).expanduser()

    @property
    def location(self) -> str:
        return str(self.root)

    def path_for(self, key: str) -> Path:
        """On-disk location of the entry for ``key`` (may not exist)."""
        return self.root / key[:SHARD_CHARS] / f"{key}.json"

    def _do_get(self, key: str) -> "dict | list | None":
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            # json.loads handles the UTF-8 decode: undecodable bytes
            # surface as ValueError and take the corruption path
            entry = json.loads(data)
            if entry["key"] != key:
                raise ValueError("key mismatch")
            payload = entry["payload"]
            if not isinstance(payload, (dict, list)):
                raise ValueError("payload is not a JSON object or array")
        except (ValueError, TypeError, KeyError):
            self.quarantine(key)
            return None
        return payload

    def quarantine(self, key: str) -> "Path | None":
        """Move a corrupt entry aside instead of silently deleting it.

        The entry is renamed to ``<entry>.json.corrupt`` so the bad
        bytes survive for post-mortem inspection while the original
        path is freed for the recomputed value. Falls back to plain
        removal when the rename fails. Emits a
        ``cache.corrupt_quarantined`` telemetry counter and a
        ``cache.quarantined`` event when a registry is active.
        """
        path = self.path_for(key)
        target = path.with_name(path.name + CORRUPT_SUFFIX)
        result: "Path | None" = target
        try:
            os.replace(path, target)
        except OSError:
            self.discard(key)
            result = None
        self._quarantined_one(key)
        return result

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        path = self.path_for(key)
        entry = {"key": key, "kind": kind, "payload": payload}
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
            return True
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return False

    def discard(self, key: str) -> None:
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the cache."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    def corrupt_entries(self) -> Iterator[Path]:
        """Every quarantined (``*.json.corrupt``) file in the cache."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob(f"*.json{CORRUPT_SUFFIX}"))

    def keys(self) -> Iterator[str]:
        for path in self.entries():
            yield path.stem

    def info(self, detail: bool = False) -> dict:
        """Summary statistics: backend, location, entries, shards, kinds.

        Besides the contract's keys, ``root`` names the cache directory.
        A non-zero ``corrupt_entries`` count means corruption was
        detected and survived, which is worth knowing even though the
        run itself recovered. With ``detail``, an ``entry_list``
        (``{key, kind, bytes}``, largest first), a ``corrupt_list`` and
        per-shard ``shard_counts`` are included — the machine-readable
        breakdown behind ``repro cache info --json``.
        """
        count = 0
        total = 0
        kinds: dict[str, int] = {}
        kind_bytes: dict[str, int] = {}
        shard_counts: dict[str, int] = {}
        entry_list: list[dict] = []
        for path in self.entries():
            count += 1
            size = 0
            try:
                size = path.stat().st_size
                kind = json.loads(path.read_text()).get("kind") or "unknown"
            except (OSError, ValueError, AttributeError):
                kind = "corrupt"
            total += size
            kinds[kind] = kinds.get(kind, 0) + 1
            kind_bytes[kind] = kind_bytes.get(kind, 0) + size
            shard = path.parent.name
            shard_counts[shard] = shard_counts.get(shard, 0) + 1
            if detail:
                entry_list.append(
                    {"key": path.stem, "kind": kind, "bytes": size}
                )
        corrupt_count = 0
        corrupt_bytes = 0
        corrupt_list: list[dict] = []
        for path in self.corrupt_entries():
            corrupt_count += 1
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            corrupt_bytes += size
            if detail:
                key = path.name[: -len(f".json{CORRUPT_SUFFIX}")]
                corrupt_list.append({"key": key, "bytes": size})
        info = {
            "backend": self.kind,
            "location": self.location,
            "root": self.location,
            "entries": count,
            "bytes": total,
            "kinds": kinds,
            "kind_bytes": kind_bytes,
            "shards": self._shard_summary(shard_counts),
            "corrupt_entries": corrupt_count,
            "corrupt_bytes": corrupt_bytes,
        }
        if detail:
            entry_list.sort(key=lambda entry: (-entry["bytes"], entry["key"]))
            info["entry_list"] = entry_list
            corrupt_list.sort(key=lambda entry: entry["key"])
            info["corrupt_list"] = corrupt_list
            info["shard_counts"] = dict(sorted(shard_counts.items()))
        return info

    def clear(self) -> int:
        removed = 0
        for path in [*self.entries(), *self.corrupt_entries()]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class ResultCache(DirectoryBackend):
    """The runner's result store: the directory store at the default root.

    ``root`` defaults to :func:`default_cache_dir`, so ``repro run`` and
    ``repro serve`` share entries unless told otherwise.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        super().__init__(root if root else default_cache_dir())

    def key_for(self, kind: str, config: Mapping) -> str:
        """Cache key for one (kind, configuration) pair.

        The package version is folded in so a new release never replays
        stale entries from an older model of the hardware.
        """
        return stable_digest(
            {"kind": kind, "config": config, "version": _package_version()}
        )


# ----------------------------------------------------------------------
# Process-global active cache
# ----------------------------------------------------------------------
#
# The benchmark harness sits far below the runner and must not grow a
# cache parameter on every constructor in between, so activation is a
# process-global switch: the runner (or CLI) activates a cache, the
# harness consults whatever is active. Nothing is active by default —
# importing the package never touches the filesystem.

_ACTIVE: ResultCache | None = None


def activate(cache: ResultCache | None = None) -> ResultCache:
    """Install ``cache`` (or a default-location one) as the active cache."""
    global _ACTIVE
    _ACTIVE = cache if cache is not None else ResultCache()
    return _ACTIVE


def deactivate() -> None:
    """Remove the active cache; subsequent runs recompute everything."""
    global _ACTIVE
    _ACTIVE = None


def active_cache() -> ResultCache | None:
    """The currently active cache, if any."""
    return _ACTIVE
