"""The characterization service: digest-keyed computes behind a cache.

:class:`CharacterizationService` is the transport-independent core of
``repro serve``. A request is a verb (``characterize`` / ``simulate``
/ ``profile``) plus a scenario spec; the scenario digest is the
identity, exactly as in ``repro run``, so the service and the CLI
share cache entries and produce digest-identical results.

The request path, in order:

1. **Parse and validate** the spec into a frozen
   :class:`~repro.scenario.core.Scenario` (malformed specs are a 400,
   computed on the event loop — validation is cheap).
2. **Cache lookup** through :func:`~repro.runner.cache.cached_result`
   on the configured :class:`~repro.runner.cache.CacheBackend`,
   offloaded to the executor (backend I/O is blocking; RPR009 enforces
   the offload). The read is validated: a payload that does not
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
6. **Retries**: transient compute failures re-run inside the flight
   under the configured :class:`~repro.resilience.retry.RetryPolicy`
   with its deterministic backoff; deterministic model errors are
   never retried (they would fail identically).

Every stage is instrumented on the service's own
:class:`~repro.telemetry.registry.TelemetryRegistry`
(hit/miss/coalesce counters, queue-depth gauge, latency histograms) —
the HTTP layer exports it at ``/metrics`` in Prometheus format.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ConfigurationError, MessError, ServeError
from ..resilience.failures import (
    DeadlineExceededError,
    classify_failure,
)
from ..resilience.retry import RetryPolicy
from ..runner.cache import ResultCache, cached_result, compute_result, result_kind
from ..telemetry.registry import TelemetryRegistry
from .backends import BACKEND_NAMES, CacheBackend, make_backend
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

#: Millisecond latency buckets for the request/compute histograms.
LATENCY_MS_BUCKETS = (
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
    problems = scenario.validate()
    if problems:
        raise BadRequestError(
            f"scenario {scenario.name!r}: " + "; ".join(problems)
        )
    return scenario


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    Parameters
    ----------
    backend:
        Store name for :func:`~repro.serve.backends.make_backend`:
        ``dir``, ``memory`` or ``tiered``. The default ``tiered`` is an
        in-memory LRU in front of the shared directory store.
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
        this long fails with ``DeadlineExceededError`` (504).
    retry:
        Policy for transient compute failures inside a flight.
    """

    backend: str = "tiered"
    cache_dir: "str | None" = None
    max_inflight: int = 4
    queue_limit: int = 64
    deadline_s: float = 60.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=2, base_delay_s=0.05, max_delay_s=1.0, jitter=0.5
        )
    )

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {list(BACKEND_NAMES)}"
            )
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


class CharacterizationService:
    """Answer scenario requests from cache, computing misses once."""

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        backend: "CacheBackend | None" = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.backend = backend if backend is not None else make_backend(
            self.config.backend, self.config.cache_dir
        )
        self.telemetry = TelemetryRegistry()
        self.flights = SingleFlight()
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
        """The flight body: backpressure, compute slot, retries.

        Inside the slot the cache is read again (another process or
        flight may have landed the entry since the event-loop lookup)
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
        try:
            async with semaphore:
                policy = self.config.retry
                attempt = 1
                while True:
                    tick = time.perf_counter()
                    try:
                        payload = await self._offload(
                            cached_result, self.backend, key
                        )
                        if payload is None:
                            payload = await self._offload(
                                compute_result, self.backend, scenario
                            )
                    except Exception as exc:
                        kind = classify_failure(exc)
                        if not policy.should_retry(kind, attempt):
                            raise
                        delay = policy.delay_s(key, attempt)
                        attempt += 1
                        if delay > 0:
                            await asyncio.sleep(delay)
                        continue
                    self._computed.inc()
                    self._compute_ms.observe(
                        (time.perf_counter() - tick) * 1e3
                    )
                    return payload
        finally:
            self._waiting -= 1
            self._queue_depth.set(float(self._waiting))

    async def submit(self, verb: str, spec_payload: Mapping) -> dict:
        """Serve one request; the response envelope is JSON-ready.

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
            scenario = parse_request(verb, spec_payload)
            key = scenario.digest()
            payload = await self._offload(cached_result, self.backend, key)
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
                "scenario": scenario.name,
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
            payload = await self._offload(cached_result, self.backend, digest)
            if payload is None:
                self._misses.inc()
                raise NotFoundError(f"no cached result for digest {digest}")
            self._hits.inc()
            return {"digest": digest, "cached": True, "result": payload}
        finally:
            self._active -= 1

    def stats(self) -> dict:
        """JSON-ready operational snapshot (the ``/stats`` endpoint)."""
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
            "backend": self.backend.info(),
            "config": {
                "backend": self.config.backend,
                "max_inflight": self.config.max_inflight,
                "queue_limit": self.config.queue_limit,
                "deadline_s": self.config.deadline_s,
            },
        }


def warm_from_manifest(backend: CacheBackend, manifest_path: "str | Any") -> dict:
    """Pre-seed ``backend`` from a ``repro run`` manifest's results.

    The manifest records which scenarios a sweep ran and the cache
    directory it ran against; the payloads live there under the
    scenario digest. Warming walks every successful record, recomputes
    its scenario digest (from ``scenario_spec`` for scenario records,
    from ``experiment_id``/``scale``/``options`` for experiment
    records), reads the payload from the manifest's ``cache_dir`` (the
    default cache directory when the run recorded none) and writes it
    through ``backend`` with the kind ``repro run`` stores — so the
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
        if cached_result(backend, key) is not None:
            present += 1
            continue
        payload = cached_result(source, key)
        if payload is None:
            missing += 1
            continue
        if backend.put(key, payload, kind=result_kind(scenario)):
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
