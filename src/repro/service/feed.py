"""``LiveFeed``: deliver a stream of wire-format events to a service.

The feed buffers the events it is handed with :meth:`LiveFeed.send`
and delivers them in batches of ``batch_size``:

* ``LiveFeed(deliver)`` hands each batch to any ``callable`` — e.g.
  ``ServiceState.apply``, which journals a batch as one WAL line (the
  in-process path);
* :meth:`LiveFeed.over_http` POSTs JSON arrays to a running
  :class:`~repro.service.server.ReproService` with stdlib
  ``http.client`` (the ``serve --scenario`` and CI smoke path).

The stream itself comes from
:func:`~repro.service.events.events_from_dataset`, the one producer of
the service's event stream.  Call :meth:`close` (or use the feed as a
context manager) to flush the tail.
"""

from __future__ import annotations

import json
from typing import Callable
from urllib.parse import urlsplit

from repro.errors import ServiceError
from repro.faults.plan import fault_site
from repro.faults.retry import DEFAULT_IO_RETRY


class LiveFeed:
    """Batches wire-format events to a delivery target.

    Args:
        deliver: called with a non-empty ``list[dict]`` of wire-format
            events per flush.
        batch_size: events buffered between deliveries (1 = unbuffered).
    """

    def __init__(
        self,
        deliver: Callable[[list[dict]], None],
        *,
        batch_size: int = 256,
    ) -> None:
        if batch_size < 1:
            raise ServiceError("batch_size must be at least 1")
        self._deliver = deliver
        self._batch_size = batch_size
        self._buffer: list[dict] = []
        self.events_sent = 0
        self.batches_sent = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def over_http(
        cls,
        url: str,
        *,
        batch_size: int = 256,
        timeout: float = 30.0,
    ) -> "LiveFeed":
        """A feed that POSTs event arrays to ``url`` (``/events`` is
        appended when the URL has no path).

        Each batch retries under ``DEFAULT_IO_RETRY`` on connection
        failures, timeouts, and 503s from a degraded service.  A 503
        means the service journaled and applied none of the batch, and
        events carry no server-side dedup key — so the whole batch is
        resent, keeping delivery exactly-once as long as the failure
        happened before the 200 landed.
        """
        import http.client

        parts = urlsplit(url)
        if parts.scheme not in ("http", ""):
            raise ServiceError(
                f"only http:// feeds are supported, got {url!r}"
            )
        host = parts.hostname or "127.0.0.1"
        port = parts.port or 80
        path = parts.path or "/events"

        class _RetryableServiceError(ServiceError):
            """A response worth resending: 503 from a degraded peer."""

        def post_once(batch: list[dict]) -> None:
            fault_site("feed.post", events=len(batch))
            connection = http.client.HTTPConnection(
                host, port, timeout=timeout
            )
            try:
                connection.request(
                    "POST",
                    path,
                    body=json.dumps(batch),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = response.read()
                if response.status == 503:
                    raise _RetryableServiceError(
                        f"feed POST {path}: service degraded (503)"
                    )
                if response.status != 200:
                    raise ServiceError(
                        f"feed POST {path} failed: {response.status} "
                        f"{payload[:200]!r}"
                    )
            finally:
                connection.close()

        def deliver(batch: list[dict]) -> None:
            DEFAULT_IO_RETRY.call(
                lambda: post_once(batch),
                retry_on=(
                    ConnectionError,
                    TimeoutError,
                    OSError,
                    http.client.HTTPException,
                    _RetryableServiceError,
                ),
                key=f"{host}:{port}{path}",
            )

        return cls(deliver, batch_size=batch_size)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, record: dict) -> None:
        """Buffer one event; a full batch is delivered at once."""
        self._buffer.append(record)
        if len(self._buffer) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self._deliver(batch)
        self.events_sent += len(batch)
        self.batches_sent += 1

    def close(self) -> None:
        """Flush the tail."""
        self.flush()

    def __enter__(self) -> "LiveFeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
