"""The characterization service: digest-keyed computes behind a cache.

:class:`CharacterizationService` is the transport-independent core of
``repro serve``. A request is a verb (``characterize`` / ``simulate``
/ ``profile``) plus the raw bytes of a JSON scenario spec; the scenario
digest is the identity, exactly as in ``repro run``, so the service and
the CLI share cache entries and produce digest-identical results.

The request path, in order:

1. **Memo hit.** The service remembers the scenario digest and name of
   each body that parsed, keyed by the verb and the body's sha256 (at
   most the store's ``max_entries`` bodies, least recently used dropped
   first). A remembered body whose result is in the store's memory LRU
   is answered on the event loop, with no parse and no executor hop:
   :meth:`~repro.serve.backends.TieredBackend.get_memory` reads no
   file.
2. **Parse and read**, for every other request, in one executor call:
   decode the body, build the frozen
   :class:`~repro.scenario.core.Scenario` (a malformed body is a 400
   and is never remembered), take its digest and read the store
   through :func:`~repro.runner.cache.cached_result` (the directory
   read blocks; RPR009 enforces the offload). Building a scenario
   builds its memory model to validate it, which a large model makes
   slow, so no body is parsed on the loop. Both reads apply
   :func:`~repro.runner.cache.is_result`: a payload that does not
   rebuild as a result is discarded and counts as a miss.
3. **Coalesce** misses per digest through
   :class:`~repro.serve.singleflight.SingleFlight`: a thundering herd
   on one uncached digest computes once, followers await the shared
   flight. The flight re-reads the cache and, on a miss, computes
   through :func:`~repro.runner.cache.compute_result` — the two
   functions ``repro run`` calls too, so both paths store one digest as
   the same bytes.
4. **Backpressure**: leaders queue on a bounded semaphore
   (``max_inflight`` computes at once); when more than ``queue_limit``
   requests are already waiting the request is refused with a typed
   429 (:class:`QueueFullError`) instead of growing the queue without
   bound.
5. **Deadline**: each *request* is bounded by ``deadline_s``
   (:class:`~repro.resilience.failures.DeadlineExceededError`, 504). A
   timed-out waiter abandons the flight; the flight itself keeps
   flying so its result still lands in the cache for the next asker.

A failed compute is not retried: nothing a serve executor thread runs
raises a transient failure kind (worker crashes, deadlines and injected
cache faults belong to the ``repro run`` runner), and a model error
would fail identically. Its typed error keeps its HTTP status.

Every stage is instrumented on the service's own
:class:`~repro.telemetry.registry.TelemetryRegistry`
(hit/miss/coalesce counters, queue-depth gauge, latency histograms) —
the HTTP layer exports it at ``/metrics`` in Prometheus format. Besides
the whole request (``serve.latency_ms``), four histograms time its
stages: ``serve.parse_ms`` (body to digest: the memo lookup, or the
parse with the hop to the executor), ``serve.lookup_ms`` (the cache
read: on the loop for a memo hit, else in the executor with the hop
back), ``serve.queue_ms`` (a flight leader's wait for a compute slot)
and ``serve.compute_ms`` (a flight's compute). Every request observes
``parse_ms`` and ``lookup_ms`` once.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import ConfigurationError, MessError, ServeError
from ..resilience.failures import DeadlineExceededError
from ..runner.cache import (
    ResultCache,
    cached_result,
    compute_result,
    is_result,
    result_kind,
)
from ..telemetry.registry import TelemetryRegistry
from .backends import TieredBackend
from .singleflight import SingleFlight

#: Request verbs the service answers, and the scenario workload kind
#: each one expects. ``characterize`` runs the Mess benchmark sweep;
#: ``simulate`` and ``profile`` both execute registered experiments —
#: profiling figures are experiments in this reproduction, so the two
#: verbs differ in intent, not mechanism.
VERB_KINDS: Mapping[str, str] = {
    "characterize": "characterize",
    "simulate": "experiment",
    "profile": "experiment",
}

#: Millisecond latency buckets for the request/stage histograms; the
#: sub-millisecond ones resolve a cache hit's stages.
LATENCY_MS_BUCKETS = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)


class BadRequestError(ServeError):
    """The request body or scenario spec is malformed (400)."""

    status = 400


class NotFoundError(ServeError):
    """No cached result exists for the requested digest (404)."""

    status = 404


class QueueFullError(ServeError):
    """The compute queue is at its limit; retry later (429)."""

    status = 429


class ServiceUnavailableError(ServeError):
    """The service is not accepting work (starting up/draining) (503)."""

    status = 503


def error_status(exc: BaseException) -> int:
    """HTTP status for an exception out of the service (500 fallback)."""
    if isinstance(exc, DeadlineExceededError):
        return 504
    return int(getattr(exc, "status", 500))


def parse_request(verb: str, spec_payload: Mapping) -> Any:
    """Parse + validate a spec against ``verb``; 400 on any problem.

    The digest of the returned scenario is the request's cache key —
    the same key ``repro run`` stores the scenario's result under.
    ``Scenario.from_spec`` validates the scenario it builds and raises
    on any problem, so a returned scenario is runnable.
    """
    from ..scenario.core import Scenario

    expected = VERB_KINDS.get(verb)
    if expected is None:
        raise BadRequestError(
            f"unknown verb {verb!r}; available: {sorted(VERB_KINDS)}"
        )
    if not isinstance(spec_payload, Mapping):
        raise BadRequestError(
            "request body must be a scenario spec object, got "
            f"{type(spec_payload).__name__}"
        )
    try:
        scenario = Scenario.from_spec(spec_payload)
    except MessError as exc:
        raise BadRequestError(f"invalid scenario spec: {exc}") from exc
    kind = str(scenario.workload.get("kind", ""))
    if kind != expected:
        raise BadRequestError(
            f"verb {verb!r} expects a {expected!r} workload, the "
            f"scenario {scenario.name!r} declares {kind!r}"
        )
    return scenario


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    Parameters
    ----------
    cache_dir:
        Root of the directory store; ``None`` uses the runner's
        default, so the service answers from — and feeds — the same
        cache as ``repro run``.
    max_inflight:
        Computes allowed to run concurrently (executor threads doing
        scenario work). Lookups are not bounded by this.
    queue_limit:
        Requests allowed to *wait* for a compute slot before new
        arrivals are refused with :class:`QueueFullError`.
    deadline_s:
        Per-request wall-clock bound; a request still waiting after
        this long fails with ``DeadlineExceededError`` (504). It must
        be positive (NaN is refused); ``inf`` means no deadline.
    """

    cache_dir: "str | None" = None
    max_inflight: int = 4
    queue_limit: int = 64
    deadline_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if not self.deadline_s > 0:  # NaN compares false: reject it too
            raise ConfigurationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


class CharacterizationService:
    """Answer scenario requests from cache, computing misses once."""

    def __init__(self, config: "ServiceConfig | None" = None) -> None:
        self.config = config or ServiceConfig()
        self.store = TieredBackend(self.config.cache_dir)
        self.telemetry = TelemetryRegistry()
        self.flights = SingleFlight()
        #: (verb, sha256 of a body that parsed) -> (scenario digest,
        #: scenario name), least recently used first. Event loop only.
        self._memo: "OrderedDict[tuple[str, bytes], tuple[str, str]]" = (
            OrderedDict()
        )
        self._executor: "ThreadPoolExecutor | None" = None
        self._semaphore: "asyncio.Semaphore | None" = None
        self._waiting = 0
        self._active = 0
        self._closed = False
        self._draining = False
        tel = self.telemetry
        self._requests = tel.counter("serve.requests", help="requests received")
        self._hits = tel.counter("serve.hits", help="served from cache")
        self._misses = tel.counter("serve.misses", help="cache misses")
        self._coalesced = tel.counter(
            "serve.coalesced", help="requests that joined an in-flight compute"
        )
        self._computed = tel.counter("serve.computed", help="computes executed")
        self._rejected = tel.counter(
            "serve.rejected", help="requests refused by backpressure"
        )
        self._timeouts = tel.counter(
            "serve.timeouts", help="requests past their deadline"
        )
        self._errors = tel.counter("serve.errors", help="failed requests")
        self._queue_depth = tel.gauge(
            "serve.queue_depth", help="requests waiting for a compute slot"
        )
        self._latency_ms = tel.histogram(
            "serve.latency_ms",
            bounds=LATENCY_MS_BUCKETS,
            help="request latency, milliseconds",
        )
        self._parse_ms = tel.histogram(
            "serve.parse_ms",
            bounds=LATENCY_MS_BUCKETS,
            help="request body to scenario digest, milliseconds",
        )
        self._lookup_ms = tel.histogram(
            "serve.lookup_ms",
            bounds=LATENCY_MS_BUCKETS,
            help="cache read, milliseconds",
        )
        self._queue_ms = tel.histogram(
            "serve.queue_ms",
            bounds=LATENCY_MS_BUCKETS,
            help="flight leader's wait for a compute slot, milliseconds",
        )
        self._compute_ms = tel.histogram(
            "serve.compute_ms",
            bounds=LATENCY_MS_BUCKETS,
            help="scenario compute latency, milliseconds",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the service to the running event loop."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight + 2,
            thread_name_prefix="repro-serve",
        )
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        self._closed = False
        self._draining = False

    @property
    def accepting(self) -> bool:
        """Whether new requests are admitted (not draining/closed)."""
        return not (self._closed or self._draining)

    @property
    def in_flight(self) -> int:
        """Requests currently inside :meth:`submit` / :meth:`lookup`."""
        return self._active

    def health_payload(self) -> dict:
        """The ``/healthz`` body: ``ok`` flips false while draining.

        A draining instance fails its health probe before it stops
        answering traffic, so a load balancer in front of it stops
        sending requests without a single dropped one.
        """
        return {"ok": self.accepting, "draining": self._draining}

    async def drain(self, timeout_s: "float | None" = None) -> dict:
        """Graceful shutdown, phase one: stop accepting, wait, report.

        New requests are refused with 503 immediately; requests already
        inside the service (queued waiters, running computes) are given
        up to ``timeout_s`` seconds (forever when ``None``) to finish.
        Every put reached the durable store before it returned, so no
        write is left pending. Returns a summary; call :meth:`close`
        afterwards to release resources.
        """
        self._draining = True
        start = time.perf_counter()
        drained = True
        while self._active > 0 or self.flights.in_flight > 0:
            if (
                timeout_s is not None
                and time.perf_counter() - start > timeout_s
            ):
                drained = False
                break
            await asyncio.sleep(0.01)
        return {
            "drained": drained,
            "abandoned_in_flight": self._active + self.flights.in_flight,
            "drain_s": time.perf_counter() - start,
        }

    async def close(self) -> None:
        """Stop accepting work and release the executor."""
        self._closed = True
        executor = self._executor
        self._executor = None
        if executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: executor.shutdown(wait=True)
            )

    async def _offload(self, func: Any, *args: Any) -> Any:
        """Run blocking work on the service executor."""
        executor = self._executor
        if executor is None or self._closed:
            raise ServiceUnavailableError("service is not running")
        return await asyncio.get_running_loop().run_in_executor(
            executor, func, *args
        )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _fly(self, scenario: Any, key: str) -> dict:
        """The flight body: backpressure, then the compute slot.

        Inside the slot the cache is read again (another process or
        flight may have landed the entry since the request's lookup)
        before the scenario is computed and stored.
        """
        if self.config.queue_limit and self._waiting >= self.config.queue_limit:
            self._rejected.inc()
            raise QueueFullError(
                f"{self._waiting} requests already queued "
                f"(limit {self.config.queue_limit}); retry later"
            )
        semaphore = self._semaphore
        if semaphore is None or self._closed:
            raise ServiceUnavailableError("service is not running")
        self._waiting += 1
        self._queue_depth.set(float(self._waiting))
        queued = time.perf_counter()
        try:
            async with semaphore:
                tick = time.perf_counter()
                self._queue_ms.observe((tick - queued) * 1e3)
                payload = await self._offload(cached_result, self.store, key)
                if payload is None:
                    payload = await self._offload(
                        compute_result, self.store, scenario
                    )
                self._computed.inc()
                self._compute_ms.observe((time.perf_counter() - tick) * 1e3)
                return payload
        finally:
            self._waiting -= 1
            self._queue_depth.set(float(self._waiting))

    def _memory_result(self, key: str) -> "dict | None":
        """``key``'s result from the memory LRU, checked; reads no file."""
        payload = self.store.get_memory(key)
        return payload if is_result(payload) else None

    def _parse_and_read(self, verb: str, body: bytes) -> tuple:
        """Decode, parse and digest ``body``, then read the store.

        One executor call. Returns ``(scenario, digest, parsed_at,
        payload)``: ``parsed_at`` is the clock reading between parse and
        read, and ``payload`` is ``None`` on a miss.
        """
        try:
            spec = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # too deeply nested
            raise BadRequestError(f"request body is not JSON: {exc}") from exc
        scenario = parse_request(verb, spec)
        key = scenario.digest()
        parsed = time.perf_counter()
        return scenario, key, parsed, cached_result(self.store, key)

    def _remember(self, memo_key: "tuple[str, bytes]", key: str, name: str) -> None:
        """Make ``memo_key`` the memo's most recent body, within the bound."""
        self._memo[memo_key] = (key, name)
        self._memo.move_to_end(memo_key)
        while len(self._memo) > self.store.max_entries:
            self._memo.popitem(last=False)

    async def submit(self, verb: str, body: bytes) -> dict:
        """Serve one request; the response envelope is JSON-ready.

        ``body`` is the request's raw bytes, a JSON scenario spec.
        Returns ``{"verb", "digest", "scenario", "cached", "coalesced",
        "latency_ms", "result"}``. Raises typed :class:`ServeError`
        subclasses (or ``DeadlineExceededError``) on refusal/failure.
        """
        start = time.perf_counter()
        self._requests.inc()
        if not self.accepting:
            self._rejected.inc()
            raise ServiceUnavailableError(
                "service is draining" if self._draining
                else "service is not running"
            )
        self._active += 1
        try:
            memo_key = (verb, hashlib.sha256(body).digest())
            scenario: Any = None
            payload: "dict | None" = None
            known = self._memo.get(memo_key)
            if known is not None:
                key, name = known
                parsed = time.perf_counter()
                payload = self._memory_result(key)
            if payload is None:
                # a body the memo does not hold, or a result gone from
                # the LRU: the scenario is needed, however long it takes
                scenario, key, parsed, payload = await self._offload(
                    self._parse_and_read, verb, body
                )
                name = scenario.name
            self._parse_ms.observe((parsed - start) * 1e3)
            self._lookup_ms.observe((time.perf_counter() - parsed) * 1e3)
            self._remember(memo_key, key, name)
            cached = payload is not None
            coalesced = False
            if payload is None:
                self._misses.inc()
                try:
                    payload, coalesced = await asyncio.wait_for(
                        self.flights.run(
                            key, lambda: self._fly(scenario, key)
                        ),
                        timeout=self.config.deadline_s,
                    )
                except asyncio.TimeoutError:
                    self._timeouts.inc()
                    raise DeadlineExceededError(
                        f"request for {key[:12]}… exceeded its "
                        f"{self.config.deadline_s:.1f}s deadline"
                    ) from None
                if coalesced:
                    self._coalesced.inc()
            else:
                self._hits.inc()
            latency_ms = (time.perf_counter() - start) * 1e3
            self._latency_ms.observe(latency_ms)
            return {
                "verb": verb,
                "digest": key,
                "scenario": name,
                "cached": cached,
                "coalesced": coalesced,
                "latency_ms": latency_ms,
                "result": payload,
            }
        except Exception as exc:
            if not isinstance(
                exc, (QueueFullError, DeadlineExceededError)
            ):
                self._errors.inc()
            self._latency_ms.observe((time.perf_counter() - start) * 1e3)
            raise
        finally:
            self._active -= 1

    async def lookup(self, digest: str) -> dict:
        """Serve a result by digest from cache only; 404 when absent."""
        self._requests.inc()
        if not self.accepting:
            self._rejected.inc()
            raise ServiceUnavailableError(
                "service is draining" if self._draining
                else "service is not running"
            )
        if not digest or any(c not in "0123456789abcdef" for c in digest):
            raise BadRequestError(f"not a hex digest: {digest!r}")
        self._active += 1
        try:
            start = time.perf_counter()
            payload = self._memory_result(digest)
            if payload is None:
                payload = await self._offload(cached_result, self.store, digest)
            self._lookup_ms.observe((time.perf_counter() - start) * 1e3)
            if payload is None:
                self._misses.inc()
                raise NotFoundError(f"no cached result for digest {digest}")
            self._hits.inc()
            return {"digest": digest, "cached": True, "result": payload}
        finally:
            self._active -= 1

    def stats(self) -> dict:
        """JSON-ready operational snapshot (the ``/stats`` endpoint).

        Built from in-memory counters only: it runs on the event loop,
        so it reads no cache file.
        """
        summary = self.telemetry.summary()
        return {
            "accepting": self.accepting,
            "draining": self._draining,
            "in_flight": self._active,
            "counters": summary["counters"],
            "gauges": summary["gauges"],
            "histograms": summary["histograms"],
            "singleflight": {
                "leaders": self.flights.leaders,
                "followers": self.flights.followers,
                "in_flight": self.flights.in_flight,
            },
            "store": self.store.stats(),
            "config": {
                "max_inflight": self.config.max_inflight,
                "queue_limit": self.config.queue_limit,
                "deadline_s": self.config.deadline_s,
            },
        }


def warm_from_manifest(store: ResultCache, manifest_path: "str | Any") -> dict:
    """Pre-seed ``store`` from a ``repro run`` manifest's results.

    The manifest records which scenarios a sweep ran and the cache
    directory it ran against; the payloads live there under the
    scenario digest. Warming walks every successful record, recomputes
    its scenario digest (from ``scenario_spec`` for scenario records,
    from ``experiment_id``/``scale``/``options`` for experiment
    records), reads the payload from the manifest's ``cache_dir`` (the
    default cache directory when the run recorded none) and writes it
    through ``store`` with the kind ``repro run`` stores — so the
    first request wave after a deploy hits a hot cache instead of a
    compute storm. Both stores are read through
    :func:`~repro.runner.cache.cached_result`: a malformed payload is
    discarded and counts as missing.

    Synchronous and blocking by design: it runs *before* the server
    starts accepting traffic. Returns
    ``{"records", "warmed", "already_present", "missing", "failed"}``.
    """
    from ..runner.manifest import RunManifest
    from ..scenario.core import Scenario

    manifest = RunManifest.read(manifest_path)
    source = ResultCache(manifest.cache_dir)
    warmed = present = missing = failed = 0
    for record in manifest.records:
        if record.status != "ok":
            continue
        try:
            if record.scenario_spec is not None:
                scenario = Scenario.from_spec(record.scenario_spec)
            else:
                scenario = Scenario.for_experiment(
                    record.experiment_id,
                    scale=record.scale,
                    options=dict(record.options),
                )
            key = scenario.digest()
        except MessError:
            failed += 1
            continue
        if cached_result(store, key) is not None:
            present += 1
            continue
        payload = cached_result(source, key)
        if payload is None:
            missing += 1
            continue
        if store.put(key, payload, kind=result_kind(scenario)):
            warmed += 1
        else:
            failed += 1
    return {
        "records": len(manifest.records),
        "warmed": warmed,
        "already_present": present,
        "missing": missing,
        "failed": failed,
    }
