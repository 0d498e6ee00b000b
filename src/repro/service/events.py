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

#: Per column kind: the Python types a JSON value of it parses to, and
#: how an error names them.  Exact types, so ``bool`` is not a number
#: here although it subclasses ``int``; an ``obj`` column holds any
#: JSON value.
_KIND_TYPES = {
    "intern": (frozenset({str, type(None)}), "a string or null"),
    "f64": (frozenset({int, float}), "a number"),
    "opt_f64": (frozenset({int, float, type(None)}), "a number or null"),
    "i64": (frozenset({int}), "an integer"),
    "obj": (
        frozenset({str, int, float, bool, type(None), list, dict}),
        "a JSON value",
    ),
}

#: ``intern`` fields the classifier groups and orders rows by: a null
#: there would be compared with strings when it sorts accounts and
#: cookies, so these must be strings.
_KEY_FIELDS = frozenset({"account_address", "cookie_id", "kind", "address"})


def _field_check(field) -> tuple:
    """``(name, allowed types, expected)`` for one store field."""
    if field.name in _KEY_FIELDS:
        return (field.name, frozenset({str}), "a string")
    return (field.name, *_KIND_TYPES[field.kind])


#: Per row event type: one precomputed check per field, then the
#: ``f64`` fields that must also be finite — both read off the store
#: schema, so the wire format has no second copy of it.
_SCHEMAS = {
    kind: (
        tuple(_field_check(field) for field in fields),
        tuple(field.name for field in fields if field.kind == "f64"),
    )
    for kind, fields in (
        ("access", ACCESS_FIELDS),
        ("notification", NOTIFICATION_FIELDS),
        ("lockout", SCRAPE_FAILURE_FIELDS),
    )
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
    surface) naming what is wrong.  Every field the classifier reads
    is type-checked here, so a record that passes cannot make
    ``OnlineClassifier.ingest`` raise.
    """
    if not isinstance(record, dict):
        raise ValidationError(
            f"event must be a JSON object, got {type(record).__name__}"
        )
    kind = record.get("type")
    schema = _SCHEMAS.get(kind)
    if schema is None:
        if kind == "meta":
            _validate_meta(record)
            return record
        raise ValidationError(
            f"unknown event type {kind!r}; expected one of "
            f"{', '.join(EVENT_TYPES)}"
        )
    checks, finite = schema
    try:
        for name, allowed, expected in checks:
            value = record[name]
            if type(value) not in allowed:
                raise ValidationError(
                    f"{kind} event {name} must be {expected}, got "
                    f"{type(value).__name__}"
                )
    except KeyError:
        missing = [name for name, _, _ in checks if name not in record]
        raise ValidationError(
            f"{kind} event missing fields: {', '.join(missing)}"
        ) from None
    for name in finite:
        if not _is_finite(record[name]):
            raise ValidationError(
                f"{kind} event {name} must be finite, got "
                f"{record[name]!r:.40}"
            )
    return record


def _is_finite(value) -> bool:
    # json.loads accepts NaN and +/-Infinity, and an int can be too
    # large for a float; neither has a place on the timeline.
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _validate_meta(record: dict) -> None:
    """The ``meta`` fields are optional; present ones must be typed."""
    ips = record.get("monitor_ips")
    if ips is not None and (
        type(ips) is not list or any(type(ip) is not str for ip in ips)
    ):
        raise ValidationError(
            "meta event monitor_ips must be a list of strings"
        )
    city = record.get("monitor_city")
    if city is not None and type(city) is not str:
        raise ValidationError(
            f"meta event monitor_city must be a string or null, got "
            f"{type(city).__name__}"
        )
    period = record.get("scan_period")
    if period is not None and (
        type(period) not in (int, float)
        or not _is_finite(period)
        or period <= 0
    ):
        raise ValidationError(
            f"meta event scan_period must be a finite positive number "
            f"or null, got {period!r:.40}"
        )


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
            dataset.failure_log.iter_rows(),
            "lockout",
            lockout_event_from_row,
        ),
    ]
    for _, record in heapq.merge(*streams, key=lambda item: item[0]):
        yield record
