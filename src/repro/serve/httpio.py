"""Shared asyncio HTTP/1.1 plumbing for the serve front ends.

The repair server (:mod:`repro.serve.server`) and the shard router
(:mod:`repro.serve.router`) speak the same deliberately tiny dialect:
``Connection: close``, JSON bodies, explicit ``Content-Length``.  This
module is the one copy of what the two share: the request and response
heads, the reader and writer, the router's async client (:func:`fetch`),
the :class:`HTTPService` base both specialise, the signal-draining run
loop behind ``lif serve`` (:func:`run_service`) and the background-thread
harness (:class:`ServiceThread`).
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import Optional

from repro.obs import OBS
from repro.serve.protocol import ProtocolError, encode_json

#: Largest accepted request body (submissions are capped far below this).
MAX_BODY_BYTES = 2 << 20

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
}


async def read_request(reader) -> Optional[tuple]:
    """``(method, target, body)`` of one request, or None on EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ProtocolError("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers = await read_headers(reader)
    raw = headers.get("content-length", "") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise ProtocolError(
            f"Content-Length must be a non-negative integer, got {raw!r}"
        )
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise ProtocolError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, target, body


async def read_headers(reader) -> dict:
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def response_head(status: int, content_type: str = "application/json",
                  length: Optional[int] = None, extra_headers=()) -> bytes:
    """Status line and headers; ``length=None`` streams until close."""
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append("Connection: close")
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def respond(writer, status: int, payload: dict,
                  extra_headers=()) -> None:
    await respond_raw(writer, status, encode_json(payload), extra_headers)


async def respond_raw(writer, status: int, body: bytes,
                      extra_headers=()) -> None:
    writer.write(response_head(status, length=len(body),
                               extra_headers=extra_headers) + body)
    await writer.drain()


def request_head(host: str, port: int, method: str, target: str,
                 length: int = 0) -> bytes:
    return (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {length}\r\n"
        "Content-Type: application/json\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")


def parse_query(query: str) -> dict:
    params = {}
    for pair in query.split("&"):
        if not pair:
            continue
        name, _, value = pair.partition("=")
        params[name] = value
    return params


async def fetch(host: str, port: int, method: str, target: str,
                body: bytes = b"", timeout: float = 60.0) -> tuple:
    """One ``Connection: close`` request; returns ``(status, body bytes)``.

    The router's forwarding primitive.  Raises ``OSError`` /
    ``asyncio.TimeoutError`` on transport failure — the caller decides
    whether that demotes a shard.
    """

    async def _exchange() -> tuple:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                request_head(host, port, method, target, len(body)) + body
            )
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {host}:{port}: "
                    f"{status_line!r}"
                )
            status = int(parts[1])
            headers = await read_headers(reader)
            length = headers.get("content-length")
            if length is not None:
                blob = await reader.readexactly(int(length))
            else:
                blob = await reader.read()
            return status, blob
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass

    return await asyncio.wait_for(_exchange(), timeout)


class HTTPService:
    """One listening socket, one connection loop, one drain skeleton.

    ``config`` needs ``host`` and ``port``.  A subclass supplies
    ``_route`` and ``drain`` (which sets ``_drained``), extends ``start``
    with its own background work and stops it in ``_teardown``.
    ``ProtocolError`` is answered 400; any other exception 500 plus the
    ``INTERNAL_ERRORS`` counter.
    """

    #: Counter bumped when a request handler raises.
    INTERNAL_ERRORS = "serve.internal_errors"

    def __init__(self, config) -> None:
        self.config = config
        self.counters: dict[str, int] = {}
        self.draining = False
        self.started = time.monotonic()
        self._active_connections = 0
        self._drained = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> tuple:
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    def start_drain(self) -> None:
        """Schedule :meth:`drain` from a callback (signal, other thread)."""
        self._drain_task = asyncio.ensure_future(self.drain())

    async def wait_closed(self) -> None:
        """Block until a drain completes, then tear down and unbind."""
        await self._drained.wait()
        await self._teardown()
        self._server.close()
        await self._server.wait_closed()

    async def _teardown(self) -> None:
        """Stop background work and release resources (before unbinding)."""

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if OBS.enabled:
            OBS.counter(name, value)

    async def _handle_connection(self, reader, writer) -> None:
        self._active_connections += 1
        try:
            request = await read_request(reader)
            if request is None:
                return
            method, target, body = request
            path, _, query = target.partition("?")
            await self._route(method, path, query, body, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except ProtocolError as exc:
            await respond(writer, 400, {"error": "bad_request",
                                        "detail": str(exc)})
        except Exception as exc:  # never kill the accept loop
            self._count(self.INTERNAL_ERRORS)
            try:
                await respond(
                    writer, 500,
                    {"error": "internal",
                     "detail": f"{type(exc).__name__}: {exc}"},
                )
            except OSError:
                pass
        finally:
            self._active_connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass


def run_service(make, announce=None) -> int:
    """Run ``make()`` until it drains; SIGINT/SIGTERM start the drain.

    ``announce(service, host, port)`` is called once the socket is bound
    and the signal handlers are in place, so a supervisor may signal the
    process as soon as it reads the announcement.
    """

    async def main() -> None:
        service = make()
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.start_drain)
            except (NotImplementedError, RuntimeError):
                pass
        if announce is not None:
            announce(service, *service.address)
        await service.wait_closed()

    asyncio.run(main())
    return 0


class ServiceThread:
    """A service on a background thread with its own loop (tests, benchmarks).

    Context-manager use drains the service on exit, so in-flight work
    finishes before the ``with`` block returns.  ``make`` builds the
    service inside the thread's loop.
    """

    def __init__(self, name: str, make) -> None:
        self.service: Optional[HTTPService] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._lock = threading.Lock()
        self._closed = False
        self._make = make
        self._thread = threading.Thread(
            target=self._main, name=name, daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced by start()
            self.error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.service = self._make()
        await self.service.start()
        self.loop = asyncio.get_running_loop()
        self.host, self.port = self.service.address
        self._ready.set()
        try:
            await self.service.wait_closed()
        finally:
            with self._lock:
                self._closed = True

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=60)
        name = type(self).__name__
        if self.error is not None:
            raise RuntimeError(f"{name} failed to start") from self.error
        if self.port is None:
            raise RuntimeError(f"{name} did not come up within 60s")
        return self

    def request_drain(self) -> None:
        # Once the service has closed, ``asyncio.run`` is closing the loop
        # on a still-live thread: the service is already drained, and a
        # callback sent now would hit a closed loop or start a drain never
        # awaited.
        with self._lock:
            if self.loop is not None and not self._closed:
                self.loop.call_soon_threadsafe(self.service.start_drain)

    def join(self, timeout: float = 120.0) -> None:
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.request_drain()
        self.join()
