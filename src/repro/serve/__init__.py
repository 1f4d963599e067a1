"""repro.serve: the async digest-keyed characterization service.

The scenario layer makes every run a pure function of its spec digest;
this package turns that into a read-mostly service: one store, a
memory LRU in front of the runner's directory cache (:mod:`.backends`),
single-flight request coalescing (:mod:`.singleflight`), the
transport-independent service core with backpressure and deadlines
(:mod:`.service`), a stdlib asyncio HTTP front end and keep-alive
client (:mod:`.http`, :mod:`.client`), and a deterministic load
generator (:mod:`.loadgen`). One ``repro serve`` process fronts one
service: front door → service → executor.

Only the store and :mod:`.singleflight` are imported eagerly; the
store needs nothing beyond the runner's cache module, which holds the
directory store it builds on. Everything else loads on first
attribute access.
"""

from __future__ import annotations

from . import backends, singleflight
from .backends import TieredBackend

#: Lazily-exposed attribute -> defining submodule.
_LAZY = {
    "CharacterizationService": "service",
    "ServiceConfig": "service",
    "warm_from_manifest": "service",
    "HttpServer": "http",
    "ServiceClient": "client",
    "LoadgenConfig": "loadgen",
    "run_loadgen": "loadgen",
    "loadgen_scenarios": "loadgen",
}

__all__ = [
    "TieredBackend",
    "backends",
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
