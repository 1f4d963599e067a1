"""Self-contained HTTP/1.1 load generator for the serving workloads.

One process, one thread, one asyncio loop, at most two keep-alive
connections. It deliberately imports nothing from ``repro.serve``: the
client side of the measurement must not get faster when the server
side changes.

The open loop sends request ``i`` when it is due (``i / rate`` seconds
after the start), whether or not earlier requests have finished, and
times each request from its due time: a stall therefore also shows in
the latency of every request queued behind it. How late the generator
itself woke for each request is kept as its lag. A request that fails
or is refused counts as an infinite latency.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0

#: What a failed or refused request raises (malformed responses: ValueError).
REQUEST_ERRORS = (
    OSError,
    asyncio.IncompleteReadError,
    asyncio.LimitOverrunError,
    asyncio.TimeoutError,
    ValueError,
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``(0, 1]``) of unsorted values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def due_times(count: int, rate_per_s: float) -> list[float]:
    """Offsets (seconds from the start) at which each request is due."""
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    return [index / rate_per_s for index in range(count)]


@dataclass
class LoopResult:
    """What one open-loop pass observed, per request."""

    #: Milliseconds from due time to response; ``inf`` when it failed.
    latency_ms: list[float]
    #: Milliseconds the generator woke after each request's due time.
    lag_ms: list[float]
    #: Absolute clock readings (due, done) per request, for tracing.
    due_at: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)


async def open_loop(
    offsets: list[float],
    connections: list,
    send: Callable[[int, object], Awaitable[bool]],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> LoopResult:
    """Issue request ``i`` at ``offsets[i]`` on the first free connection.

    ``send(i, connection)`` performs request ``i`` and returns whether
    its response was acceptable; an exception counts as a failure.
    """
    count = len(offsets)
    result = LoopResult(
        latency_ms=[math.inf] * count,
        lag_ms=[0.0] * count,
        due_at=[0.0] * count,
        done_at=[0.0] * count,
    )
    free: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        free.put_nowait(connection)

    async def one(index: int, connection: object, due: float) -> None:
        try:
            ok = await send(index, connection)
        except REQUEST_ERRORS:
            ok = False
        finally:
            free.put_nowait(connection)
        done = clock()
        result.done_at[index] = done
        if ok:
            result.latency_ms[index] = (done - due) * 1e3

    tasks = []
    start = clock()
    for index, offset in enumerate(offsets):
        due = start + offset
        result.due_at[index] = due
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        result.lag_ms[index] = max(0.0, clock() - due) * 1e3
        connection = await free.get()
        tasks.append(asyncio.ensure_future(one(index, connection, due)))
    await asyncio.gather(*tasks)
    return result


class HttpConnection:
    """One keep-alive HTTP/1.1 connection speaking the subset ``repro serve`` does."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(
        self, method: str, path: str, body: bytes = b"", request_id: str = ""
    ) -> tuple[int, bytes]:
        """Send one request and return ``(status, body)``."""
        return await asyncio.wait_for(
            self._request(method, path, body, request_id), REQUEST_TIMEOUT_S
        )

    async def _request(
        self, method: str, path: str, body: bytes, request_id: str
    ) -> tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        reader, writer = self._reader, self._writer
        assert reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Request-Id: {request_id}\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
            raw = await reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].partition(" ")[2][:3])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await reader.readexactly(int(headers.get("content-length", "0")))
        except BaseException:
            # the stream is in an unknown state: drop it, reconnect next time
            self._drop()
            raise
        if headers.get("connection", "").lower() == "close":
            self._drop()
        return status, payload

    def _drop(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()

    async def close(self) -> None:
        writer = self._writer
        self._drop()
        if writer is not None:
            try:
                await writer.wait_closed()
            except OSError:
                pass
