"""The sharded serving fabric: a digest-range router over N shards.

``repro.serve`` made characterization results a digest-keyed service;
this module makes that service survive its own machines. A
:class:`ClusterRouter` partitions the sha256 digest keyspace into N
contiguous ranges — shard ``i`` owns digests whose leading 32 bits
fall in ``[i/N, (i+1)/N)`` — and forwards each request to its range
owner over the pooled HTTP client. Correctness never depends on
*which* shard answers (results are content-addressed, and shards
sharing a cache directory share entries), so every robustness
mechanism below trades only locality and latency, never digests:

- **Health probing** (:mod:`.health`): a ``/healthz`` loop per shard
  with consecutive-failure thresholds catches shards that die idle,
  and sees a draining shard's ``ok: false`` before its socket closes.
- **Circuit breaking** (:mod:`.breaker`): request outcomes feed a
  per-shard closed/open/half-open breaker with deterministic
  exponential backoff, so a dead shard costs one connection error —
  not a timeout per request — and recovery is probed gently.
- **Failover**: when a digest's owner is open or down, the request
  walks the shard ring to the next usable shard. Killing one shard of
  N moves its range, it does not fail its requests.
- **Hedged reads**: optionally, a request races a second shard after a
  delay derived from observed p99 latency — tail latency becomes the
  second-fastest shard's, at the cost of bounded duplicate work
  (single-flight coalescing on the shards absorbs the duplicates).
- **Backpressure + deadlines**: the router carries the same bounded
  queue (429 :class:`~repro.serve.service.QueueFullError`), 503
  (:class:`~repro.resilience.failures.ShardUnavailableError` when all
  candidate shards are unusable) and per-request deadline (504) as the
  single-process service, so clients cannot tell one process from a
  fabric by its error contract.
- **Graceful drain**: the router itself drains like a shard — stop
  admitting, finish in-flight forwards, report — so rolling the router
  loses nothing either.

Failure classification is strict: every shard RPC failure routes
through :func:`repro.resilience.failures.classify_failure` (RPR007
forbids bare ``except`` in these paths and any broad handler that
neither re-raises nor classifies), and only *peer* failures
(connect errors, dropped sockets, 5xx) trip breakers — a 4xx is the
request's fault and is returned unchanged, without burning a failover.

:class:`LocalCluster` boots a whole fabric — N shard servers plus a
router — inside one process and event loop; the chaos tests and the
``serve.cluster`` bench kill and drain its shards mid-load.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError
from ..resilience.failures import (
    DeadlineExceededError,
    ShardUnavailableError,
    classify_failure,
)
from ..resilience.retry import RetryPolicy
from ..telemetry.registry import TelemetryRegistry
from .breaker import CircuitBreaker
from .client import ConnectionPool, ResponseError, ServiceClient
from .health import HealthMonitor
from .http import HttpServer
from .service import (
    LATENCY_MS_BUCKETS,
    BadRequestError,
    CharacterizationService,
    NotFoundError,
    QueueFullError,
    ServiceConfig,
    parse_request,
)

#: Leading hex characters of the digest that pick the owning shard.
#: 8 hex chars = 32 bits — granular enough for thousands of shards.
RANGE_PREFIX_CHARS = 8

#: Hedge delay used before enough latency samples exist, seconds.
DEFAULT_HEDGE_DELAY_S = 0.05

#: Latency samples kept for the p99-derived hedge delay.
HEDGE_WINDOW = 256


def owner_shard(digest: str, shard_count: int) -> int:
    """The index of the shard owning ``digest``'s range.

    The digest keyspace is split into ``shard_count`` equal contiguous
    ranges by the leading 32 bits — the same partition every router
    instance computes, with no coordination state to lose.
    """
    if shard_count < 1:
        raise ConfigurationError(
            f"shard_count must be >= 1, got {shard_count}"
        )
    prefix = digest[:RANGE_PREFIX_CHARS]
    try:
        value = int(prefix, 16)
    except ValueError as exc:
        raise BadRequestError(f"not a hex digest: {digest!r}") from exc
    return (value * shard_count) >> (4 * RANGE_PREFIX_CHARS)


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one router instance.

    Parameters
    ----------
    probe_interval_s / probe_timeout_s / probe_failures:
        Health-probe cadence, per-probe deadline, and the consecutive
        failed probes that mark a shard down.
    breaker_failures / breaker_reset_s / breaker_max_reset_s:
        Consecutive request failures that trip a shard's breaker, and
        the deterministic open-interval backoff bounds.
    hedge:
        Enable hedged reads: race a fallback shard when the owner has
        not answered within the hedge delay.
    hedge_delay_ms:
        Fixed hedge delay; ``None`` derives it from the observed p99
        of successful forwards (50 ms until enough samples).
    max_inflight / queue_limit / deadline_s:
        Router-side backpressure and per-request deadline — the same
        429/503/504 contract as :class:`ServiceConfig`.
    retry:
        Seeds the breakers' deterministic backoff jitter.
    """

    probe_interval_s: float = 0.5
    probe_timeout_s: float = 1.0
    probe_failures: int = 3
    breaker_failures: int = 3
    breaker_reset_s: float = 1.0
    breaker_max_reset_s: float = 30.0
    hedge: bool = False
    hedge_delay_ms: "float | None" = None
    max_inflight: int = 32
    queue_limit: int = 256
    deadline_s: float = 60.0
    max_idle_per_host: int = 8
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=2, base_delay_s=0.05, max_delay_s=1.0, jitter=0.5
        )
    )

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.hedge_delay_ms is not None and self.hedge_delay_ms < 0:
            raise ConfigurationError(
                f"hedge_delay_ms must be >= 0, got {self.hedge_delay_ms}"
            )


class _Shard:
    """Router-side state for one shard: client, breaker, counters."""

    __slots__ = ("index", "url", "client", "breaker", "forwarded", "failed")

    def __init__(
        self,
        index: int,
        url: str,
        client: ServiceClient,
        breaker: CircuitBreaker,
    ) -> None:
        self.index = index
        self.url = url
        self.client = client
        self.breaker = breaker
        self.forwarded = 0
        self.failed = 0

    def snapshot(self, health: "dict | None") -> dict:
        return {
            "index": self.index,
            "url": self.url,
            "forwarded": self.forwarded,
            "failed": self.failed,
            "breaker": self.breaker.snapshot(),
            "health": health,
        }


class ClusterRouter:
    """Route digest-keyed requests across shards; degrade, don't corrupt.

    Implements the same service protocol as
    :class:`~repro.serve.service.CharacterizationService` (``start`` /
    ``close`` / ``submit`` / ``lookup`` / ``stats`` / ``drain`` /
    ``health_payload`` / ``telemetry``), so
    :class:`~repro.serve.http.HttpServer` fronts either without knowing
    which it holds.
    """

    def __init__(
        self,
        shard_urls: Sequence[str],
        config: "ClusterConfig | None" = None,
    ) -> None:
        urls = [str(url).rstrip("/") for url in shard_urls]
        if not urls:
            raise ConfigurationError("a cluster needs at least one shard")
        if len(set(urls)) != len(urls):
            raise ConfigurationError(f"duplicate shard URLs in {urls}")
        self.config = config or ClusterConfig()
        self.pool = ConnectionPool(
            max_idle_per_host=self.config.max_idle_per_host
        )
        self.telemetry = TelemetryRegistry()
        self.shards: list[_Shard] = []
        for index, url in enumerate(urls):
            breaker = CircuitBreaker(
                url,
                failure_threshold=self.config.breaker_failures,
                reset_timeout_s=self.config.breaker_reset_s,
                max_reset_timeout_s=self.config.breaker_max_reset_s,
                seed=self.config.retry.seed,
                on_open=self._on_breaker_open,
            )
            self.shards.append(
                _Shard(
                    index,
                    url,
                    ServiceClient(url, pool=self.pool),
                    breaker,
                )
            )
        self.health = HealthMonitor(
            urls,
            interval_s=self.config.probe_interval_s,
            timeout_s=self.config.probe_timeout_s,
            failure_threshold=self.config.probe_failures,
            pool=self.pool,
        )
        self._draining = False
        self._closed = False
        self._waiting = 0
        self._active = 0
        self._semaphore: "asyncio.Semaphore | None" = None
        self._latencies: list[float] = []
        tel = self.telemetry
        self._requests = tel.counter("serve.requests", help="requests received")
        self._forwarded = tel.counter(
            "serve.forwarded", help="requests forwarded to a shard"
        )
        self._failovers = tel.counter(
            "serve.failovers",
            help="requests answered by a non-owner shard after failure",
        )
        self._hedged = tel.counter(
            "serve.hedged", help="hedge requests launched"
        )
        self._hedge_wins = tel.counter(
            "serve.hedge_wins", help="hedge requests that answered first"
        )
        self._breaker_opens = tel.counter(
            "serve.breaker_opens", help="circuit breaker open transitions"
        )
        self._rejected = tel.counter(
            "serve.rejected", help="requests refused by backpressure/drain"
        )
        self._timeouts = tel.counter(
            "serve.timeouts", help="requests past their deadline"
        )
        self._errors = tel.counter("serve.errors", help="failed requests")
        self._shards_available = tel.gauge(
            "serve.shards_available", help="shards currently routable"
        )
        self._queue_depth = tel.gauge(
            "serve.queue_depth", help="requests waiting for a forward slot"
        )
        self._latency_ms = tel.histogram(
            "serve.latency_ms",
            bounds=LATENCY_MS_BUCKETS,
            help="routed request latency, milliseconds",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the loop and start the health probe loops."""
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        self._closed = False
        self._draining = False
        await self.health.start()
        self._shards_available.set(float(len(self.shards)))

    async def close(self) -> None:
        self._closed = True
        await self.health.stop()
        await self.pool.close()

    @property
    def accepting(self) -> bool:
        return not (self._closed or self._draining)

    def health_payload(self) -> dict:
        return {
            "ok": self.accepting,
            "draining": self._draining,
            "role": "router",
            "shards": len(self.shards),
        }

    async def drain(self, timeout_s: "float | None" = None) -> dict:
        """Stop admitting requests; wait out in-flight forwards."""
        self._draining = True
        start = time.perf_counter()
        drained = True
        while self._active > 0:
            if (
                timeout_s is not None
                and time.perf_counter() - start > timeout_s
            ):
                drained = False
                break
            await asyncio.sleep(0.01)
        return {
            "drained": drained,
            "abandoned_in_flight": self._active,
            "drain_s": time.perf_counter() - start,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _on_breaker_open(self, breaker: CircuitBreaker) -> None:
        self._breaker_opens.inc()
        self.telemetry.event(
            "serve.breaker_open", category="serve", shard=breaker.label
        )

    def _usable(self, shard: _Shard) -> bool:
        """Routable: health has not proven it down, breaker admits."""
        return self.health.usable(shard.url) and shard.breaker.state != "open"

    def candidates(self, key: str) -> list[_Shard]:
        """Owner first, then ring successors; unusable shards filtered.

        The ring order is deterministic per digest, so two routers (or
        one router before and after a crash) fail the same range over
        to the same fallback shard.
        """
        owner = owner_shard(key, len(self.shards))
        ordered = [
            self.shards[(owner + offset) % len(self.shards)]
            for offset in range(len(self.shards))
        ]
        usable = [shard for shard in ordered if self._usable(shard)]
        self._shards_available.set(
            float(sum(1 for shard in self.shards if self._usable(shard)))
        )
        return usable

    async def _call_shard(
        self, shard: _Shard, method: str, path: str, payload: "dict | None"
    ) -> dict:
        """One RPC to one shard, with breaker bookkeeping.

        Peer failures — connect errors, dropped sockets, 5xx answers —
        are recorded against the breaker and re-raised as
        :class:`ShardUnavailableError` (classified ``unavailable``).
        4xx answers pass through untouched: the request is at fault,
        not the shard.
        """
        if not shard.breaker.allow():
            raise ShardUnavailableError(
                f"shard {shard.url} breaker is {shard.breaker.state}"
            )
        try:
            response = await shard.client.request(method, path, payload)
        except (
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
        ) as exc:
            shard.failed += 1
            shard.breaker.record_failure()
            raise ShardUnavailableError(
                f"shard {shard.url} unreachable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        except ResponseError as exc:
            if exc.status >= 500:
                shard.failed += 1
                shard.breaker.record_failure()
                raise ShardUnavailableError(
                    f"shard {shard.url} failed: {exc}"
                ) from exc
            # 4xx (including 404/429): shard is healthy, answer stands
            shard.breaker.record_success()
            raise
        shard.breaker.record_success()
        shard.forwarded += 1
        self._forwarded.inc()
        return response

    def _hedge_delay_s(self) -> float:
        if self.config.hedge_delay_ms is not None:
            return self.config.hedge_delay_ms / 1e3
        if len(self._latencies) < 16:
            return DEFAULT_HEDGE_DELAY_S
        ordered = sorted(self._latencies)
        rank = max(0, min(len(ordered) - 1, int(0.99 * len(ordered))))
        return ordered[rank] / 1e3

    def _observe_latency(self, elapsed_ms: float) -> None:
        self._latencies.append(elapsed_ms)
        if len(self._latencies) > HEDGE_WINDOW:
            del self._latencies[: len(self._latencies) - HEDGE_WINDOW]

    async def _route(
        self, key: str, method: str, path: str, payload: "dict | None"
    ) -> dict:
        """Forward to the owner, failing over along the ring."""
        owner = self.shards[owner_shard(key, len(self.shards))]
        candidates = self.candidates(key)
        if not candidates:
            raise ShardUnavailableError(
                f"no usable shard for digest {key[:12]}…: all "
                f"{len(self.shards)} shards are down or breaker-open"
            )
        if self.config.hedge and len(candidates) > 1:
            response = await self._route_hedged(
                key, candidates, method, path, payload
            )
            return response
        last: "BaseException | None" = None
        for shard in candidates:
            try:
                response = await self._call_shard(
                    shard, method, path, payload
                )
            except ShardUnavailableError as exc:
                last = exc
                continue
            if shard is not owner:
                # a non-owner answered — whether the owner failed this
                # request or was already filtered out as unusable
                self._failovers.inc()
                self.telemetry.event(
                    "serve.failover",
                    category="serve",
                    digest=key[:12],
                    shard=shard.url,
                )
            return response
        assert last is not None
        raise last

    async def _route_hedged(
        self,
        key: str,
        candidates: "list[_Shard]",
        method: str,
        path: str,
        payload: "dict | None",
    ) -> dict:
        """Race the owner against one fallback after the hedge delay."""
        primary, fallback = candidates[0], candidates[1]
        first = asyncio.ensure_future(
            self._call_shard(primary, method, path, payload)
        )
        done, _pending = await asyncio.wait(
            {first}, timeout=self._hedge_delay_s()
        )
        if done:
            try:
                return first.result()
            except ShardUnavailableError:
                # owner failed fast: plain failover, no race needed
                self._failovers.inc()
                return await self._call_shard(fallback, method, path, payload)
        self._hedged.inc()
        second = asyncio.ensure_future(
            self._call_shard(fallback, method, path, payload)
        )
        tasks: set = {first, second}
        last: "BaseException | None" = None
        try:
            while tasks:
                done, tasks = await asyncio.wait(
                    tasks, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    try:
                        result = task.result()
                    except ShardUnavailableError as exc:
                        last = exc
                        continue
                    if task is second:
                        self._hedge_wins.inc()
                    return result
            assert last is not None
            raise last
        finally:
            for task in (first, second):
                if not task.done():
                    task.cancel()

    # ------------------------------------------------------------------
    # Service protocol
    # ------------------------------------------------------------------

    async def _admit(self) -> None:
        if not self.accepting:
            self._rejected.inc()
            raise ShardUnavailableError(
                "router is draining" if self._draining
                else "router is not running"
            )
        if self.config.queue_limit and (
            self._waiting >= self.config.queue_limit
        ):
            self._rejected.inc()
            raise QueueFullError(
                f"{self._waiting} requests already queued at the router "
                f"(limit {self.config.queue_limit}); retry later"
            )

    async def _bounded(
        self, key: str, method: str, path: str, payload: "dict | None"
    ) -> dict:
        """Admission control + deadline around one routed request."""
        await self._admit()
        semaphore = self._semaphore
        if semaphore is None:
            raise ShardUnavailableError("router is not running")
        self._waiting += 1
        self._queue_depth.set(float(self._waiting))
        self._active += 1
        try:
            async with semaphore:
                try:
                    return await asyncio.wait_for(
                        self._route(key, method, path, payload),
                        timeout=self.config.deadline_s,
                    )
                except asyncio.TimeoutError:
                    self._timeouts.inc()
                    raise DeadlineExceededError(
                        f"routed request for {key[:12]}… exceeded its "
                        f"{self.config.deadline_s:.1f}s deadline"
                    ) from None
        finally:
            self._active -= 1
            self._waiting -= 1
            self._queue_depth.set(float(self._waiting))

    async def submit(self, verb: str, spec_payload: Mapping) -> dict:
        """Route one request; response envelope matches the shard's.

        The router adds ``shard`` (who answered) and ``routed`` keys to
        the shard's envelope — everything else, digest included, is the
        shard's answer verbatim.
        """
        start = time.perf_counter()
        self._requests.inc()
        try:
            scenario = parse_request(verb, spec_payload)
            key = scenario.digest()
            response = await self._bounded(
                key, "POST", f"/v1/{verb}", dict(spec_payload)
            )
            elapsed_ms = (time.perf_counter() - start) * 1e3
            self._observe_latency(elapsed_ms)
            self._latency_ms.observe(elapsed_ms)
            response["routed"] = True
            return response
        except Exception as exc:
            if not isinstance(exc, (QueueFullError, DeadlineExceededError)):
                self._errors.inc()
            self._latency_ms.observe((time.perf_counter() - start) * 1e3)
            raise

    async def lookup(self, digest: str) -> dict:
        """Digest lookup, routed to the range owner.

        A 404 from a healthy owner is authoritative and is returned as
        the router's own 404; the ring is only walked when the owner is
        down or breaker-open (failover), same as :meth:`submit`.
        """
        self._requests.inc()
        if not digest or any(c not in "0123456789abcdef" for c in digest):
            raise BadRequestError(f"not a hex digest: {digest!r}")
        try:
            return await self._bounded(
                digest, "GET", f"/v1/result/{digest}", None
            )
        except ResponseError as exc:
            if exc.status == 404:
                raise NotFoundError(
                    f"no cached result for digest {digest}"
                ) from exc
            raise
        except Exception as exc:
            if not isinstance(exc, (QueueFullError, DeadlineExceededError)):
                self._errors.inc()
            raise

    def stats(self) -> dict:
        """JSON-ready operational snapshot (the router's ``/stats``)."""
        summary = self.telemetry.summary()
        health = self.health.snapshot()
        return {
            "role": "router",
            "accepting": self.accepting,
            "draining": self._draining,
            "in_flight": self._active,
            "counters": summary["counters"],
            "gauges": summary["gauges"],
            "histograms": summary["histograms"],
            "shards": [
                shard.snapshot(health.get(shard.url))
                for shard in self.shards
            ],
            "pool": self.pool.stats(),
            "config": {
                "shards": len(self.shards),
                "hedge": self.config.hedge,
                "hedge_delay_ms": self.config.hedge_delay_ms,
                "max_inflight": self.config.max_inflight,
                "queue_limit": self.config.queue_limit,
                "deadline_s": self.config.deadline_s,
            },
        }


class LocalCluster:
    """A whole fabric in one process: N shard servers plus a router.

    The chaos tests and the ``serve.cluster`` bench boot one of these
    on a single event loop, then kill (:meth:`kill_shard`) or drain
    (:meth:`drain_shard`) members mid-load. Shards share one backend
    spec but get *independent* backend instances (memory backends do
    not share entries, matching separate processes); pass ``cache_dir``
    with a ``dir`` backend for the shared-store layout.
    """

    def __init__(
        self,
        shard_count: int = 3,
        *,
        backend: str = "memory",
        cache_dir: "str | None" = None,
        service_config: "ServiceConfig | None" = None,
        cluster_config: "ClusterConfig | None" = None,
        host: str = "127.0.0.1",
    ) -> None:
        if shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        self.shard_count = shard_count
        self.backend = backend
        self.cache_dir = cache_dir
        self.service_config = service_config
        self.cluster_config = cluster_config
        self.host = host
        self.shard_servers: list[HttpServer] = []
        self.router: "ClusterRouter | None" = None
        self.router_server: "HttpServer | None" = None

    async def start(self) -> "LocalCluster":
        for _ in range(self.shard_count):
            config = self.service_config or ServiceConfig(
                backend=self.backend, cache_dir=self.cache_dir
            )
            server = HttpServer(
                CharacterizationService(config), host=self.host, port=0
            )
            await server.start()
            self.shard_servers.append(server)
        self.router = ClusterRouter(
            [server.url for server in self.shard_servers],
            self.cluster_config,
        )
        self.router_server = HttpServer(self.router, host=self.host, port=0)
        await self.router_server.start()
        return self

    @property
    def url(self) -> str:
        """The router's URL — what clients talk to."""
        if self.router_server is None:
            raise ConfigurationError("cluster is not started")
        return self.router_server.url

    @property
    def shard_urls(self) -> list[str]:
        return [server.url for server in self.shard_servers]

    async def kill_shard(self, index: int) -> str:
        """Abruptly kill one shard — the in-process stand-in for
        SIGKILL: its listener closes and every later connection is
        refused, with no drain and no flush."""
        server = self.shard_servers[index]
        await server.close()
        return server.url

    async def drain_shard(self, index: int) -> dict:
        """Gracefully drain one shard (the SIGTERM path)."""
        server = self.shard_servers[index]
        summary = await server.drain(timeout_s=30.0)
        await server.close()
        return summary

    async def close(self) -> None:
        if self.router_server is not None:
            await self.router_server.close()
            self.router_server = None
        for server in self.shard_servers:
            try:
                await server.close()
            except (ConnectionError, OSError):
                continue
        self.shard_servers = []


def spawn_shards(
    shard_count: int,
    base_port: int,
    *,
    host: str = "127.0.0.1",
    cache_dir: "str | None" = None,
    max_inflight: int = 4,
    extra_args: "Sequence[str] | None" = None,
) -> "list[Any]":
    """Spawn ``shard_count`` ``repro serve`` child processes.

    Plain synchronous helper for the CLI (``repro serve --shards N``):
    shard ``i`` listens on ``base_port + i``. Returns the
    ``subprocess.Popen`` handles; the caller owns their lifetime (and
    their SIGTERM-to-drain shutdown). Shards share ``cache_dir``, so a
    failover target serves the dead shard's digests from the shared
    durable tier.
    """
    import subprocess
    import sys

    processes = []
    for index in range(shard_count):
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            host,
            "--port",
            str(base_port + index),
            "--max-inflight",
            str(max_inflight),
        ]
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        if extra_args:
            argv += list(extra_args)
        processes.append(subprocess.Popen(argv))
    return processes


#: Re-exported so callers can catch routed failures without importing
#: the resilience layer explicitly.
__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "LocalCluster",
    "owner_shard",
    "spawn_shards",
    "classify_failure",
]
