"""repro.serve: the async digest-keyed characterization service.

The scenario layer makes every run a pure function of its spec digest;
this package turns that into a read-mostly service: a memory LRU in
front of the runner's directory cache (:mod:`.backends`), single-flight
request coalescing (:mod:`.singleflight`), the transport-independent
service core with backpressure/deadlines/retries (:mod:`.service`), a
stdlib asyncio HTTP front end and pooled client (:mod:`.http`,
:mod:`.client`), a deterministic load generator (:mod:`.loadgen`), and
the sharded fabric — health probing (:mod:`.health`), per-shard circuit
breakers (:mod:`.breaker`) and the digest-range router
(:mod:`.cluster`).

Only the backends and :mod:`.singleflight` are imported eagerly; the
backends need nothing beyond the runner's cache module, which holds
the directory store they build on. Everything else loads on first
attribute access.
"""

from __future__ import annotations

from . import backends, singleflight
from .backends import (
    BACKEND_NAMES,
    CacheBackend,
    DirectoryBackend,
    MemoryLRUBackend,
    TieredBackend,
    make_backend,
)

#: Lazily-exposed attribute -> defining submodule.
_LAZY = {
    "CharacterizationService": "service",
    "ServiceConfig": "service",
    "warm_from_manifest": "service",
    "HttpServer": "http",
    "serve_service": "http",
    "ServiceClient": "client",
    "ConnectionPool": "client",
    "LoadgenConfig": "loadgen",
    "run_loadgen": "loadgen",
    "loadgen_scenarios": "loadgen",
    "CircuitBreaker": "breaker",
    "HealthMonitor": "health",
    "ShardHealth": "health",
    "ClusterConfig": "cluster",
    "ClusterRouter": "cluster",
    "LocalCluster": "cluster",
    "owner_shard": "cluster",
    "spawn_shards": "cluster",
}

__all__ = [
    "BACKEND_NAMES",
    "CacheBackend",
    "DirectoryBackend",
    "MemoryLRUBackend",
    "TieredBackend",
    "backends",
    "make_backend",
    "singleflight",
    *sorted(_LAZY),
]


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
