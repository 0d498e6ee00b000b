"""Asyncio HTTP/1.1 ingestion server (stdlib only).

A deliberately small HTTP layer over ``asyncio`` streams — no
frameworks, no threads.  Ingestion is single-writer by construction:
request handlers run on the one event loop and apply events
synchronously, so the classifier needs no locking and observes the WAL
order exactly.

Endpoints:

* ``POST /events`` — one JSON event object, or an array of them, as
  UTF-8.  The request is journaled to the WAL (when configured) as one
  line before any of its events mutates state.  A schema-invalid event
  stops the batch with a 400 naming the problem; the events before it
  are journaled and applied, and ``accepted`` counts them.  A WAL that
  cannot be written applies nothing: 503 with ``accepted: 0``.
* ``GET /stats`` — the live dashboard document
  (:meth:`repro.service.state.ServiceState.stats`).
* ``GET /healthz`` — liveness probe.
* ``POST /shutdown`` — request the same graceful shutdown SIGTERM
  triggers (lets tests and CI avoid signal plumbing).

Graceful shutdown (SIGTERM/SIGINT or ``/shutdown``): stop accepting
connections, let every in-flight request finish, flush the WAL, write
the service checkpoint, close.  A restart with the same WAL +
checkpoint paths resumes to the identical classifier state.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
from pathlib import Path

from repro.errors import DegradedError, ValidationError
from repro.faults.retry import DEFAULT_IO_RETRY
from repro.service.state import ServiceState

#: Largest accepted request body; protects the single-threaded loop
#: from one pathological POST (a feed batches far below this).
MAX_BODY_BYTES = 32 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _LineTooLong(Exception):
    """A request or header line outran the ``StreamReader`` limit."""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:
        # readline() reports a line past the reader's limit (64 KiB by
        # default) as ValueError, leaving the stream mid-line.
        raise _LineTooLong from exc


class ReproService:
    """The live honey-telemetry ingestion service.

    Args:
        state: the ingestion core (classifier + dashboard + WAL).
        host: bind address.
        port: bind port; ``0`` picks a free one (see :attr:`port`).
        checkpoint_path: where the shutdown checkpoint is written;
            ``None`` disables checkpointing on shutdown.
        degraded_ok: keep ``/healthz`` answering 200 while the WAL is
            unwritable (ingest still answers 503).  For deployments
            where a restart would not fix the disk and an orchestrator
            kill-loop only makes things worse.
    """

    def __init__(
        self,
        state: ServiceState,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_path: str | Path | None = None,
        degraded_ok: bool = False,
    ) -> None:
        self.state = state
        self.host = host
        self.port = port
        self.degraded_ok = degraded_ok
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.requests_handled = 0
        self._server: asyncio.AbstractServer | None = None
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        self._shutdown = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    def request_shutdown(self) -> None:
        """Trigger the graceful shutdown sequence (idempotent).

        Safe from any thread: ``asyncio.Event.set`` only wakes the
        loop when called on it, so off-loop callers (a feeder thread,
        a test) route through ``call_soon_threadsafe``.
        """
        if self._shutdown is None:
            return
        try:
            on_loop = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            on_loop = False
        if on_loop:
            self._shutdown.set()
        elif self._loop is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`; then drain and flush."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        # Stop accepting; in-flight requests keep their connections.
        self._server.close()
        await self._server.wait_closed()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self.state.flush()
        if self.checkpoint_path is not None:
            from repro.service.checkpoint import write_service_checkpoint

            # The shutdown checkpoint is the last thing standing
            # between a clean stop and a full-WAL replay on restart;
            # ride out transient IO errors before giving up.
            DEFAULT_IO_RETRY.call(
                lambda: write_service_checkpoint(
                    self.checkpoint_path, self.state
                ),
                retry_on=(OSError,),
                key=str(self.checkpoint_path),
            )
        self.state.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.ensure_future(
            self._handle_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request_line = await self._read_or_shutdown(reader)
                if not request_line:
                    break
                keep_alive = await self._handle_request(
                    request_line, reader, writer
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except _LineTooLong:
            # The rest of the request cannot be framed: answer, then
            # drop the connection.
            with contextlib.suppress(ConnectionError):
                await self._respond(
                    writer, 431, {"error": "request line or header too long"}
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_or_shutdown(
        self, reader: asyncio.StreamReader
    ) -> bytes:
        """The next request line, or ``b""`` when shutdown wins the
        race — an *idle* keep-alive connection closes on shutdown, but
        a request already on the wire is served to completion (a short
        grace window lets bytes sent just before the signal land)."""
        line_task = asyncio.ensure_future(_read_line(reader))
        shutdown_task = asyncio.ensure_future(self._shutdown.wait())
        done, _ = await asyncio.wait(
            {line_task, shutdown_task},
            return_when=asyncio.FIRST_COMPLETED,
        )
        if line_task in done:
            shutdown_task.cancel()
            return line_task.result()
        done, _ = await asyncio.wait({line_task}, timeout=0.1)
        if line_task in done:
            return line_task.result()
        line_task.cancel()
        return b""

    async def _handle_request(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        try:
            method, target, _ = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request line"}
            )
            return False
        headers: dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Without a length the body's end is unknown: answer and
            # drop the connection rather than misread the next request.
            await self._respond(
                writer,
                400,
                {"error": "malformed Content-Length", "accepted": 0},
            )
            return False
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer,
                413,
                {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
            )
            return False
        body = await reader.readexactly(length) if length else b""
        keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
        )
        status, payload = self._dispatch(method, target, body)
        self.requests_handled += 1
        await self._respond(
            writer, status, payload, keep_alive=keep_alive
        )
        return keep_alive

    def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict]:
        path = target.split("?", 1)[0]
        if path == "/events":
            if method != "POST":
                return 405, {"error": "POST /events"}
            return self._ingest_body(body)
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "GET /stats"}
            return 200, self.state.stats()
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET /healthz"}
            if self.state.degraded:
                status = 200 if self.degraded_ok else 503
                return status, {
                    "status": "degraded",
                    "degraded": True,
                }
            return 200, {"status": "ok"}
        if path == "/shutdown":
            if method != "POST":
                return 405, {"error": "POST /shutdown"}
            self.request_shutdown()
            return 200, {"status": "shutting down"}
        return 404, {"error": f"no route {path}"}

    def _ingest_body(self, body: bytes) -> tuple[int, dict]:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            return 400, {"error": f"body is not UTF-8: {exc}", "accepted": 0}
        try:
            parsed = json.loads(text) if text else None
        except json.JSONDecodeError as exc:
            return 400, {"error": f"bad JSON: {exc}", "accepted": 0}
        if parsed is None:
            return 400, {"error": "empty body", "accepted": 0}
        records = parsed if isinstance(parsed, list) else [parsed]
        try:
            accepted = self.state.apply(records, body)
        except DegradedError as exc:
            # Nothing from the request was applied; 503 tells the feed
            # to back off and resend the whole batch.
            return 503, {"error": str(exc), "accepted": 0, "degraded": True}
        except ValidationError as exc:
            return 400, {"error": str(exc), "accepted": exc.accepted}
        return 200, {
            "accepted": accepted,
            "total_events": self.state.classifier.events_ingested,
        }

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


def run_service(
    service: ReproService, *, announce=print
) -> None:
    """Run a service until SIGTERM/SIGINT/``POST /shutdown``.

    ``announce`` receives the ``serving on http://host:port`` line once
    the socket is bound (the CLI prints it; tests parse it to learn an
    ephemeral port).
    """

    async def _main() -> None:
        host, port = await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, service.request_shutdown
                )
            except (NotImplementedError, RuntimeError):
                # win32, or running off the main thread (tests host the
                # service in a thread and stop it via POST /shutdown).
                pass
        announce(f"serving on http://{host}:{port}")
        await service.serve_until_shutdown()

    asyncio.run(_main())
