"""Minimal asyncio HTTP client for the characterization service.

Speaks exactly the HTTP/1.1 subset :mod:`repro.serve.http` serves —
request line, headers, ``Content-Length`` bodies, keep-alive — so the
load generator and tests need no third-party HTTP stack.

A :class:`ServiceClient` keeps one connection to its endpoint alive
between requests, dialed on first use. A connection that went stale
while idle (server restarted, keep-alive timed out) is detected before
reuse, closed and replaced by a fresh dial; a request whose connection
drops mid-exchange is retried once on a new socket, which is safe
because every service route is idempotent (results are
content-addressed).
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ServeError


class ResponseError(ServeError):
    """A non-2xx response, with the server's status and error detail."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class ServiceClient:
    """HTTP client for one serve endpoint, keeping one socket alive."""

    def __init__(self, url: str) -> None:
        if not url.startswith("http://"):
            raise ServeError(f"only http:// URLs are supported, got {url!r}")
        rest = url[len("http://"):].rstrip("/")
        host, _sep, port = rest.partition(":")
        self.host = host
        self.port = int(port) if port else 80
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None

    async def _checkout(
        self,
    ) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
        """The kept-alive connection, or a fresh dial when none is usable.

        The connection leaves the client for the exchange, so concurrent
        requests on one client each get a socket of their own.
        """
        reader, writer = self._reader, self._writer
        self._reader = self._writer = None
        if reader is not None and writer is not None:
            if not _stale(reader, writer):
                return reader, writer
            _hang_up(writer)
        return await asyncio.open_connection(self.host, self.port)

    def _checkin(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Keep a healthy connection for the next request, or close it."""
        if self._writer is None and not _stale(reader, writer):
            self._reader, self._writer = reader, writer
        else:
            _hang_up(writer)

    async def close(self) -> None:
        """Close the kept-alive connection."""
        writer = self._writer
        self._reader = self._writer = None
        if writer is not None:
            _hang_up(writer)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self, method: str, path: str, payload: "object | None" = None
    ) -> dict:
        """One round-trip; returns the decoded JSON body.

        Non-2xx responses raise :class:`ResponseError` carrying the
        server's status and ``error`` detail. A connection that drops
        mid-exchange is closed and the request retried once on a fresh
        dial — safe here because every service route is idempotent
        (results are content-addressed).
        """
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        for final in (False, True):
            reader, writer = await self._checkout()
            try:
                writer.write(
                    (
                        f"{method} {path} HTTP/1.1\r\n"
                        f"Host: {self.host}:{self.port}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        "Connection: keep-alive\r\n"
                        "\r\n"
                    ).encode("latin-1")
                    + body
                )
                await writer.drain()
                status, headers, raw = await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                _hang_up(writer)
                if final:
                    raise
                continue
            if headers.get("connection", "").lower() == "close":
                _hang_up(writer)
            else:
                self._checkin(reader, writer)
            return _decode(status, raw)
        raise AssertionError("unreachable")  # pragma: no cover

    async def submit(self, verb: str, spec: dict) -> dict:
        return await self.request("POST", f"/v1/{verb}", spec)

    async def lookup(self, digest: str) -> dict:
        return await self.request("GET", f"/v1/result/{digest}")

    async def healthz(self) -> dict:
        return await self.request("GET", "/healthz")

    async def stats(self) -> dict:
        return await self.request("GET", "/stats")


def _stale(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> bool:
    """True when the peer hung up while the connection idled."""
    return writer.is_closing() or reader.at_eof()


def _hang_up(writer: asyncio.StreamWriter) -> None:
    """Close a connection without waiting for the close to finish."""
    try:
        writer.close()
    except (ConnectionError, OSError, RuntimeError):
        pass


async def _read_response(
    reader: asyncio.StreamReader,
) -> "tuple[int, dict[str, str], bytes]":
    """Status, lower-cased headers and body of one response."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    raw = await reader.readexactly(length) if length else b""
    return status, headers, raw


def _decode(status: int, raw: bytes) -> dict:
    """The JSON body of a 2xx response; :class:`ResponseError` otherwise."""
    try:
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
    except (ValueError, UnicodeDecodeError):
        decoded = {"error": raw.decode("utf-8", "replace")}
    if status >= 300:
        raise ResponseError(
            status, str(decoded.get("error", "unexpected response"))
        )
    if not isinstance(decoded, dict):
        raise ResponseError(status, "response body is not an object")
    return decoded
