"""Wire format of the live ingestion API.

Every message is one JSON object with a ``type`` field:

* ``meta`` — measurement metadata the classifier needs before any row:
  the monitoring infrastructure's own IPs and city (the Section 4.1
  cleaning filter) and the script scan period (the attribution margin);
* ``access`` — one scraped activity-page row
  (:data:`repro.telemetry.stores.ACCESS_FIELDS`);
* ``notification`` — one hidden-script notification
  (:data:`repro.telemetry.stores.NOTIFICATION_FIELDS`);
* ``lockout`` — one scraper lockout
  (:data:`repro.telemetry.stores.SCRAPE_FAILURE_FIELDS`), the
  password-change signal behind the hijacker label.

The same records flow over HTTP (``POST /events``), through the
write-ahead log, and out of :func:`events_from_dataset` — the replay
generator that turns a completed run's telemetry back into the event
stream a live deployment would have produced.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core.records import ObservedDataset
from repro.errors import ValidationError
from repro.telemetry.stores import (
    ACCESS_FIELDS,
    NOTIFICATION_FIELDS,
    SCRAPE_FAILURE_FIELDS,
)

ACCESS_FIELD_NAMES: tuple[str, ...] = tuple(
    f.name for f in ACCESS_FIELDS
)
NOTIFICATION_FIELD_NAMES: tuple[str, ...] = tuple(
    f.name for f in NOTIFICATION_FIELDS
)
LOCKOUT_FIELD_NAMES: tuple[str, ...] = tuple(
    f.name for f in SCRAPE_FAILURE_FIELDS
)

EVENT_TYPES = ("meta", "access", "notification", "lockout")

#: Deterministic replay interleaving: streams merge by ``(timestamp,
#: stream rank, within-stream sequence)``.  Per-account classification
#: state is order-insensitive, but a fixed total order keeps WAL files
#: and fingerprints reproducible byte for byte.
_STREAM_RANK = {"access": 0, "notification": 1, "lockout": 2}

_REQUIRED = {
    "access": ACCESS_FIELD_NAMES,
    "notification": NOTIFICATION_FIELD_NAMES,
    "lockout": LOCKOUT_FIELD_NAMES,
}


def meta_event(
    *,
    monitor_ips=(),
    monitor_city: str | None = None,
    scan_period: float | None = None,
) -> dict:
    """The metadata record a feed sends before its first row."""
    return {
        "type": "meta",
        "monitor_ips": sorted(str(ip) for ip in monitor_ips),
        "monitor_city": monitor_city,
        "scan_period": scan_period,
    }


def validate_event(record: dict) -> dict:
    """Check one incoming record against the wire schema.

    Returns the record unchanged; raises
    :class:`~repro.errors.ValidationError` (an HTTP 400 at the API
    surface) naming what is wrong.
    """
    if not isinstance(record, dict):
        raise ValidationError(
            f"event must be a JSON object, got {type(record).__name__}"
        )
    kind = record.get("type")
    if kind not in EVENT_TYPES:
        raise ValidationError(
            f"unknown event type {kind!r}; expected one of "
            f"{', '.join(EVENT_TYPES)}"
        )
    required = _REQUIRED.get(kind)
    if required is not None:
        missing = [name for name in required if name not in record]
        if missing:
            raise ValidationError(
                f"{kind} event missing fields: {', '.join(missing)}"
            )
        timestamp = record["timestamp"]
        if not isinstance(timestamp, (int, float)) or isinstance(
            timestamp, bool
        ):
            raise ValidationError(
                f"{kind} event timestamp must be a number, got "
                f"{type(timestamp).__name__}"
            )
        # json.loads accepts NaN and +/-Infinity, and an int can be
        # too large for a float; neither has a place on the timeline.
        try:
            finite = math.isfinite(timestamp)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(
                f"{kind} event timestamp must be finite, got "
                f"{timestamp!r:.40}"
            )
    return record


def access_event_from_row(row: tuple) -> dict:
    record = dict(zip(ACCESS_FIELD_NAMES, row))
    record["type"] = "access"
    return record


def notification_event_from_row(row: tuple) -> dict:
    record = dict(zip(NOTIFICATION_FIELD_NAMES, row))
    record["type"] = "notification"
    return record


def lockout_event_from_row(row: tuple) -> dict:
    record = dict(zip(LOCKOUT_FIELD_NAMES, row))
    record["type"] = "lockout"
    return record


def events_from_dataset(
    dataset: ObservedDataset, *, scan_period: float | None = None
) -> Iterator[dict]:
    """Replay a completed run's telemetry as the live event stream.

    Yields the ``meta`` record first, then every access, notification
    and lockout row merged by ``(timestamp, stream, sequence)`` — the
    arrival order a live deployment would have seen.  Feeding these
    events to an :class:`~repro.service.classifier.OnlineClassifier`
    must produce the labels batch ``analyze()`` assigns to the same
    dataset; that parity contract is pinned by the service test gate.
    """
    yield meta_event(
        monitor_ips=dataset.monitor_ips,
        monitor_city=dataset.monitor_city,
        scan_period=scan_period,
    )

    def _tagged(rows, kind: str, builder):
        rank = _STREAM_RANK[kind]
        for sequence, row in enumerate(rows):
            record = builder(tuple(row))
            yield (record["timestamp"], rank, sequence), record

    import heapq

    streams = [
        _tagged(
            dataset.access_store.iter_rows(),
            "access",
            access_event_from_row,
        ),
        _tagged(
            dataset.notification_store.iter_rows(),
            "notification",
            notification_event_from_row,
        ),
        _tagged(
            iter(dataset.scrape_failures),
            "lockout",
            lockout_event_from_row,
        ),
    ]
    for _, record in heapq.merge(*streams, key=lambda item: item[0]):
        yield record
