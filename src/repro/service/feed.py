"""``LiveFeed``: stream a running simulation's telemetry to a service.

The feed attaches row sinks to the monitor's columnar stores, so every
scraped access row, script notification and lockout becomes a
wire-format event the moment the simulation collects it — the
simulator plays the role of a real honey-account deployment feeding
the live classifier.  Delivery is pluggable:

* ``LiveFeed(deliver)`` hands each batch to any ``callable`` — e.g.
  ``ServiceState.apply``, which journals a batch as one WAL line (the
  in-process path); :meth:`LiveFeed.to_callable` hands it on one
  event at a time;
* :meth:`LiveFeed.over_http` POSTs JSON arrays to a running
  :class:`~repro.service.server.ReproService` with stdlib
  ``http.client`` (the CI smoke path).

Events buffer locally and flush every ``batch_size`` records; call
:meth:`close` (or use the feed as a context manager) to flush the tail
and detach the sinks.
"""

from __future__ import annotations

import json
from typing import Callable
from urllib.parse import urlsplit

from repro.core.experiment import Experiment
from repro.core.monitor import MonitorInfrastructure
from repro.errors import ServiceError
from repro.faults.plan import fault_site
from repro.faults.retry import DEFAULT_IO_RETRY
from repro.service.events import (
    access_event_from_row,
    lockout_event_from_row,
    meta_event,
    notification_event_from_row,
)


class _RowSink:
    """Adapter: EventLog sink protocol -> wire-format event buffer."""

    __slots__ = ("_feed", "_builder")

    def __init__(self, feed: "LiveFeed", builder) -> None:
        self._feed = feed
        self._builder = builder

    def write(self, index: int, row: tuple, log) -> None:
        self._feed._buffer_event(self._builder(row))


class LiveFeed:
    """Streams monitor telemetry to a delivery target as it happens.

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
        self._attached: list[tuple[object, _RowSink]] = []
        self.events_sent = 0
        self.batches_sent = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def to_callable(
        cls,
        per_event: Callable[[dict], None],
        *,
        batch_size: int = 256,
    ) -> "LiveFeed":
        """A feed that hands each event to ``per_event`` in order."""

        def deliver(batch: list[dict]) -> None:
            for record in batch:
                per_event(record)

        return cls(deliver, batch_size=batch_size)

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
    # attachment
    # ------------------------------------------------------------------
    def attach(
        self,
        experiment: Experiment | None = None,
        *,
        monitor: MonitorInfrastructure | None = None,
        scan_period: float | None = None,
    ) -> "LiveFeed":
        """Hook the feed onto a built experiment (or bare monitor).

        Sends the ``meta`` event immediately — the classifier needs the
        cleaning rules before the first row — then forwards every new
        store row.  Rows collected *before* attachment are not
        replayed; attach before the measurement starts (e.g. from
        ``run_scenario``'s ``on_built`` hook).
        """
        if monitor is None:
            if experiment is None:
                raise ServiceError(
                    "attach needs an experiment or a monitor"
                )
            experiment.build()
            monitor = experiment.monitor
            if scan_period is None:
                scan_period = experiment.config.scan_period
        self._buffer_event(
            meta_event(
                monitor_ips=monitor.monitor_ip_strings,
                monitor_city=monitor.monitor_city.name,
                scan_period=scan_period,
            )
        )
        for store, builder in (
            (monitor.access_store, access_event_from_row),
            (monitor.notification_store, notification_event_from_row),
            (monitor.failure_log, lockout_event_from_row),
        ):
            sink = _RowSink(self, builder)
            store.attach_sink(sink)
            self._attached.append((store, sink))
        return self

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _buffer_event(self, record: dict) -> None:
        self._buffer.append(record)
        if len(self._buffer) >= self._batch_size:
            self.flush()

    def send(self, record: dict) -> None:
        """Feed one externally produced event (replay drivers)."""
        self._buffer_event(record)

    def flush(self) -> None:
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self._deliver(batch)
        self.events_sent += len(batch)
        self.batches_sent += 1

    def close(self) -> None:
        """Flush the tail and detach from the stores."""
        self.flush()
        for store, sink in self._attached:
            store.detach_sink(sink)
        self._attached.clear()

    def __enter__(self) -> "LiveFeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
