"""Shard health probing: a ``/healthz`` loop with failure thresholds.

The router cannot wait for a request to discover that a shard died —
by then a user is already holding the latency. :class:`HealthMonitor`
runs one background probe task per shard: ``GET /healthz`` every
``interval_s``, with a per-probe timeout. ``failure_threshold``
*consecutive* failed probes mark the shard down (one dropped packet is
noise, three in a row is an outage); ``success_threshold`` consecutive
good probes mark it back up, so a shard flapping at the threshold does
not thrash the routing table.

A probe fails when the connection fails, times out, answers a non-2xx
status, or answers ``{"ok": false}`` — the last being how a *draining*
shard tells the fabric to stop sending it traffic before its socket
ever closes.

Health is advisory and layered under the circuit breaker: the breaker
reacts to real request outcomes within milliseconds, the monitor
catches shards that die while idle. The router routes to a shard only
when both agree it is usable.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Mapping, Sequence

from ..errors import ConfigurationError, MessError
from .client import ConnectionPool, ServiceClient


class ShardHealth:
    """Probe bookkeeping for one shard."""

    __slots__ = (
        "url",
        "healthy",
        "consecutive_failures",
        "consecutive_successes",
        "probes",
        "failed_probes",
        "last_error",
        "last_probe_at",
    )

    def __init__(self, url: str) -> None:
        self.url = url
        #: ``None`` until the first probe lands; then a bool.
        self.healthy: "bool | None" = None
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.probes = 0
        self.failed_probes = 0
        self.last_error: "str | None" = None
        self.last_probe_at = 0.0

    def snapshot(self) -> dict:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "probes": self.probes,
            "failed_probes": self.failed_probes,
            "last_error": self.last_error,
        }


class HealthMonitor:
    """Background ``/healthz`` probe loops over a set of shards.

    Parameters
    ----------
    urls:
        Shard base URLs to probe.
    interval_s / timeout_s:
        Probe cadence and per-probe deadline.
    failure_threshold / success_threshold:
        Consecutive probe outcomes required to flip a shard down / up.
    pool:
        Optional shared :class:`ConnectionPool`; probes are tiny, so
        sharing the router's pool keeps total socket count flat.
    on_change:
        Callback ``(url, healthy)`` fired on every down/up transition.
    """

    def __init__(
        self,
        urls: Sequence[str],
        *,
        interval_s: float = 0.5,
        timeout_s: float = 1.0,
        failure_threshold: int = 3,
        success_threshold: int = 1,
        pool: "ConnectionPool | None" = None,
        on_change: "Callable[[str, bool], None] | None" = None,
    ) -> None:
        if interval_s <= 0 or timeout_s <= 0:
            raise ConfigurationError(
                "probe interval and timeout must be positive, got "
                f"interval={interval_s}, timeout={timeout_s}"
            )
        if failure_threshold < 1 or success_threshold < 1:
            raise ConfigurationError(
                "probe thresholds must be >= 1, got "
                f"failure={failure_threshold}, success={success_threshold}"
            )
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self.failure_threshold = failure_threshold
        self.success_threshold = success_threshold
        self.on_change = on_change
        self._pool = pool
        self._states: "dict[str, ShardHealth]" = {
            url: ShardHealth(url) for url in urls
        }
        self._clients: "dict[str, ServiceClient]" = {}
        self._tasks: "list[asyncio.Task]" = []
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn one probe loop per shard on the running loop."""
        if self._tasks:
            return
        self._stopping = False
        for url in self._states:
            self._clients[url] = ServiceClient(url, pool=self._pool)
            self._tasks.append(
                asyncio.ensure_future(self._probe_loop(url))
            )

    async def stop(self) -> None:
        """Cancel the probe loops and release private clients.

        The loops also check a stop flag: before Python 3.12,
        ``asyncio.wait_for`` swallows a cancellation that lands just as
        the probe it wraps completes, and the loop would then probe on
        forever while this method waits for it.
        """
        self._stopping = True
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        clients, self._clients = self._clients, {}
        if self._pool is None:
            for client in clients.values():
                await client.close()

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    async def probe_once(self, url: str) -> bool:
        """Run one probe against ``url`` and fold it into the state."""
        state = self._states[url]
        client = self._clients.get(url) or ServiceClient(url, pool=self._pool)
        self._clients[url] = client
        state.probes += 1
        state.last_probe_at = time.monotonic()
        try:
            payload = await asyncio.wait_for(
                client.healthz(), timeout=self.timeout_s
            )
            ok = bool(payload.get("ok", False))
            error = None if ok else "healthz answered ok=false (draining?)"
        except (
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            MessError,  # ResponseError: non-2xx healthz is a failed probe
        ) as exc:
            ok = False
            error = f"{type(exc).__name__}: {exc}"
        self._record(state, ok, error)
        return ok

    def _record(
        self, state: ShardHealth, ok: bool, error: "str | None"
    ) -> None:
        if ok:
            state.consecutive_failures = 0
            state.consecutive_successes += 1
            state.last_error = None
            if state.healthy is not True and (
                state.consecutive_successes >= self.success_threshold
            ):
                self._flip(state, True)
        else:
            state.failed_probes += 1
            state.consecutive_successes = 0
            state.consecutive_failures += 1
            state.last_error = error
            if state.healthy is not False and (
                state.consecutive_failures >= self.failure_threshold
            ):
                self._flip(state, False)

    def _flip(self, state: ShardHealth, healthy: bool) -> None:
        state.healthy = healthy
        if self.on_change is not None:
            self.on_change(state.url, healthy)

    async def _probe_loop(self, url: str) -> None:
        while not self._stopping:
            await self.probe_once(url)
            await asyncio.sleep(self.interval_s)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def healthy(self, url: str) -> "bool | None":
        """Latest verdict for ``url``: True/False, or None before data."""
        return self._states[url].healthy

    def usable(self, url: str) -> bool:
        """Routable until proven down — unknown (None) counts as usable."""
        return self._states[url].healthy is not False

    def snapshot(self) -> "dict[str, dict]":
        """JSON-ready per-shard probe state for ``/stats``."""
        return {url: state.snapshot() for url, state in self._states.items()}

    def states(self) -> Mapping[str, ShardHealth]:
        return self._states
