"""Minimal asyncio HTTP/1.1 front end for the characterization service.

Stdlib-only by project rule, so this is a small, deliberate subset of
HTTP/1.1 built directly on :func:`asyncio.start_server`: request line,
headers, ``Content-Length`` bodies, keep-alive. That subset is exactly
what ``curl``, the bundled :mod:`repro.serve.client` and the load
generator speak. A request the server cannot frame — a malformed
request line, a bad ``Content-Length``, a header block or body over
its bound — is answered with a JSON 400/413 and the connection closed,
never dropped unanswered; chunked uploads, expect/continue and TLS are
not emulated.

Routes::

    GET  /healthz             liveness probe
    GET  /metrics             Prometheus exposition of serve.* metrics
    GET  /stats               JSON operational snapshot
    GET  /v1/result/<digest>  cached result by digest (404 when absent)
    POST /v1/characterize     run/serve a characterize scenario spec
    POST /v1/simulate         run/serve an experiment scenario spec
    POST /v1/profile          alias of simulate for profiling scenarios

Typed service errors carry their own HTTP status
(:func:`repro.serve.service.error_status`); anything unexpected is a
500 with the exception type named, never a dropped connection.

One server fronts one
:class:`~repro.serve.service.CharacterizationService`. ``/healthz``
answers the service's ``health_payload()``: 503 with ``ok: false``
while draining, so a load balancer stops sending traffic here before
the socket closes.

Graceful drain (:meth:`HttpServer.drain`, wired to SIGTERM by
:func:`serve`): stop accepting connections, wait for requests already
being handled, drain the service (which waits out its queue and
running computes), then exit 0 — a SIGTERM never loses an in-flight
response.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from typing import Callable

from ..errors import ServeError
from ..telemetry.exporters import prometheus_text
from .service import (
    BadRequestError,
    CharacterizationService,
    NotFoundError,
    ServiceConfig,
    error_status,
    warm_from_manifest,
)

#: Largest accepted request body / header block, bytes. Scenario specs
#: are small; anything bigger is a client bug or abuse.
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 1 << 16

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _FramingError(ServeError):
    """A request the server cannot frame: answered with ``status``, then closed."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


class HttpServer:
    """One listening socket in front of one service instance."""

    def __init__(
        self,
        service: CharacterizationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None
        #: Requests currently inside ``_dispatch`` (drain waits on it).
        self._active_requests = 0

    async def start(self) -> None:
        """Start the service and begin accepting connections."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            # port 0 binds an ephemeral port; report the real one
            self.port = sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def drain(self, timeout_s: "float | None" = 30.0) -> dict:
        """Graceful shutdown: refuse new work, finish what's in flight.

        Three phases: (1) close the listening socket so no new
        connections arrive (established keep-alive connections keep
        being read — their next request gets a 503 once the service is
        draining); (2) drain the service — it stops admitting requests
        and waits out its queue and running computes; (3) wait for
        responses still being written.
        Returns the service's drain summary plus the requests this
        transport was still handling.
        """
        if self._server is not None:
            # close the listener only: from Python 3.12, wait_closed()
            # also waits for every kept-alive connection to drop
            self._server.close()
            self._server = None
        summary = await self.service.drain(timeout_s=timeout_s)
        deadline = (
            None if timeout_s is None
            else time.monotonic() + max(0.0, timeout_s)
        )
        while self._active_requests > 0:
            if deadline is not None and time.monotonic() > deadline:
                summary["drained"] = False
                break
            await asyncio.sleep(0.01)
        summary["transport_in_flight"] = self._active_requests
        return summary

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server is not started")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _FramingError as exc:
                    status, payload = _error_payload(exc.status, str(exc))
                    await _write_response(writer, status, payload, False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload = await self._dispatch(method, path, body)
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                    and status < 500
                )
                await _write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> "tuple[int, bytes]":
        self._active_requests += 1
        try:
            if method == "GET":
                return await self._dispatch_get(path)
            if method == "POST":
                return await self._dispatch_post(path, body)
            return _error_payload(405, f"method {method} not allowed")
        except Exception as exc:
            status = error_status(exc)
            detail = str(exc) if status < 500 else (
                f"{type(exc).__name__}: {exc}"
            )
            return _error_payload(status, detail)
        finally:
            self._active_requests -= 1

    async def _dispatch_get(self, path: str) -> "tuple[int, bytes]":
        if path == "/healthz":
            payload = self.service.health_payload()
            status = 200 if payload.get("ok") else 503
            return status, _json_bytes(payload)
        if path == "/metrics":
            text = prometheus_text(self.service.telemetry)
            return 200, text.encode("utf-8")
        if path == "/stats":
            return 200, _json_bytes(self.service.stats())
        if path.startswith("/v1/result/"):
            digest = path[len("/v1/result/"):]
            return 200, _json_bytes(await self.service.lookup(digest))
        raise NotFoundError(f"no route for GET {path}")

    async def _dispatch_post(
        self, path: str, body: bytes
    ) -> "tuple[int, bytes]":
        if not path.startswith("/v1/"):
            raise NotFoundError(f"no route for POST {path}")
        verb = path[len("/v1/"):]
        try:
            spec = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequestError(f"request body is not JSON: {exc}") from exc
        return 200, _json_bytes(await self.service.submit(verb, spec))


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict[str, str], bytes] | None":
    """Parse one request; None on clean EOF before a request line.

    A request that cannot be framed raises :class:`_FramingError` with
    its 400/413 status; a peer that hangs up mid-request raises
    :class:`asyncio.IncompleteReadError`.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    except asyncio.LimitOverrunError as exc:
        raise _FramingError(413, "header block too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise _FramingError(413, "header block too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise _FramingError(400, f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as exc:
        raise _FramingError(400, "bad Content-Length") from exc
    if length < 0:
        raise _FramingError(400, f"negative Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise _FramingError(
            413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    keep_alive: bool,
) -> None:
    content_type = (
        b"application/json"
        if payload.startswith((b"{", b"["))
        else b"text/plain; charset=utf-8"
    )
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type.decode('ascii')}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + payload)
    await writer.drain()


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _error_payload(status: int, detail: str) -> "tuple[int, bytes]":
    return status, _json_bytes({"error": detail, "status": status})


async def serve(
    config: "ServiceConfig | None" = None,
    host: str = "127.0.0.1",
    port: int = 8650,
    ready: "Callable[[HttpServer], None] | None" = None,
    warm_manifest: "str | None" = None,
) -> None:
    """Serve until stopped; drain on SIGTERM (``repro serve``'s entry point).

    ``warm_manifest`` pre-seeds the cache backend from a ``repro run``
    manifest before the listening socket opens, so the first request
    wave hits a hot cache. On SIGTERM/SIGINT the server drains — stops
    accepting and finishes in-flight work — and this coroutine returns
    normally, so the process exits 0.
    """
    service = CharacterizationService(config)
    if warm_manifest is not None:
        counts = warm_from_manifest(service.backend, warm_manifest)
        print(
            f"warm: {counts['warmed']} warmed, "
            f"{counts['already_present']} already present, "
            f"{counts['missing']} missing of {counts['records']} records",
            flush=True,
        )
    server = HttpServer(service, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            # non-unix loops: fall back to KeyboardInterrupt
            continue
    forever = asyncio.ensure_future(server.serve_forever())
    stopper = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait(
            {forever, stopper}, return_when=asyncio.FIRST_COMPLETED
        )
        if stop.is_set():
            summary = await server.drain()
            if ready is not None:  # only log when interactive
                print(f"drained: {summary}", flush=True)
    except asyncio.CancelledError:
        raise
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        for task in (forever, stopper):
            task.cancel()
            with contextlib.suppress(
                asyncio.CancelledError, ConnectionError, OSError
            ):
                await task
        await server.close()
