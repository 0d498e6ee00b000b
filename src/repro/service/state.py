"""The live service's in-memory state: classifier + dashboard + WAL.

:class:`ServiceState` is the single-writer core the HTTP layer drives:
``apply()`` journals one request's events to the write-ahead log as one
line and folds them into the online classifier and the dashboard
aggregators.  The dashboard is built from the telemetry streaming
aggregators — :class:`CountByKey` per event type / notification kind /
access country, :class:`OnlineStats` over access timestamps, and a
:class:`StreamingECDF` of access times in days — so ``/stats`` answers
from O(1)-per-event state, never by rescanning the stream.

Everything here snapshots to JSON (:meth:`dashboard_snapshot` /
:meth:`restore_dashboard` plus ``OnlineClassifier.to_dict``), which is
what :mod:`repro.service.checkpoint` persists.
"""

from __future__ import annotations

from repro.errors import DegradedError, ValidationError
from repro.service.classifier import OnlineClassifier
from repro.service.events import validate_event
from repro.service.wal import WriteAheadLog
from repro.sim.clock import days
from repro.telemetry.aggregates import (
    CountByKey,
    OnlineStats,
    StreamingECDF,
)

#: Aggregator key/value callables are not serializable state; the
#: dashboard's are fixed here and re-supplied on restore.
_TYPE_KEY = "type"


def _event_type(record: dict):
    return record.get(_TYPE_KEY)


def _notification_kind(record: dict):
    return record.get("kind")


def _access_country(record: dict):
    return record.get("country") or "unlocated"


def _access_timestamp(record: dict):
    return record.get("timestamp")


def _access_day(record: dict):
    timestamp = record.get("timestamp")
    return None if timestamp is None else timestamp / days(1)


class ServiceState:
    """Single-writer ingestion core: WAL -> classifier -> dashboard.

    Args:
        classifier: the online classifier to feed.
        wal: optional write-ahead log; when present every accepted
            request is journaled before any of its events mutates
            state.
    """

    def __init__(
        self,
        classifier: OnlineClassifier | None = None,
        *,
        wal: WriteAheadLog | None = None,
    ) -> None:
        self.classifier = classifier or OnlineClassifier()
        self.wal = wal
        #: True after a WAL append failed even through its retry
        #: policy; cleared by the next successful append.  Surfaced in
        #: ``/stats`` and ``/healthz`` and mapped to 503 on ingest.
        self.degraded = False
        self.wal_failures = 0
        self.events_by_type = CountByKey(_event_type)
        self.notifications_by_kind = CountByKey(_notification_kind)
        self.accesses_by_country = CountByKey(_access_country)
        self.access_timestamps = OnlineStats(_access_timestamp)
        self.access_days = StreamingECDF(_access_day)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def apply(self, records: list[dict], raw: bytes | None = None) -> int:
        """Validate, journal and ingest one request's events (the live
        path); returns how many were accepted.

        The events are validated first, up to the first invalid one.
        The valid prefix is then journaled as one WAL line — the body
        ``raw`` itself when every event is valid, so the live state and
        a replay parse the same bytes — and only then ingested.  An
        invalid event at index ``k`` raises
        :class:`~repro.errors.ValidationError` with ``accepted = k``
        after the first ``k`` events were journaled and applied.

        Durability before state: if the WAL cannot journal the line
        even through its retry policy, **no** event of the request is
        applied and :class:`~repro.errors.DegradedError` surfaces — the
        service answers 503 and flags itself degraded rather than
        acknowledging events a restart would lose.  The next successful
        append clears the flag (degradation is a property of the disk,
        not a latch).
        """
        invalid = None
        for index, record in enumerate(records):
            try:
                validate_event(record)
            except ValidationError as exc:
                exc.accepted = index
                invalid = exc
                records = records[:index]
                raw = None
                break
        if self.wal is not None and records:
            try:
                self.wal.append(records, raw)
            except OSError as exc:
                self.degraded = True
                self.wal_failures += 1
                raise DegradedError(
                    f"WAL unwritable at position {self.wal.position}: "
                    f"{exc}"
                ) from exc
            self.degraded = False
        for record in records:
            self.ingest(record)
        if invalid is not None:
            raise invalid
        return len(records)

    def ingest(self, record: dict) -> None:
        """Fold one already-journaled event in (the replay path)."""
        self.classifier.ingest(record)
        self._observe_dashboard(record)

    def _observe_dashboard(self, record: dict) -> None:
        kind = record.get(_TYPE_KEY)
        self.events_by_type.write(0, record, None)
        if kind == "notification":
            self.notifications_by_kind.write(0, record, None)
        elif kind == "access":
            self.accesses_by_country.write(0, record, None)
            self.access_timestamps.write(0, record, None)
            self.access_days.write(0, record, None)

    def replay(self, records) -> int:
        """Re-ingest journaled records (no re-journaling); returns the
        number replayed."""
        count = 0
        for record in records:
            self.ingest(record)
            count += 1
        return count

    # ------------------------------------------------------------------
    # dashboard
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` document: totals, label counts, quantiles."""
        classifier = self.classifier
        label_totals = {
            label.value: count
            for label, count in sorted(
                classifier.label_totals().items(),
                key=lambda kv: kv[0].value,
            )
        }
        stats: dict = {
            "events": {
                "total": classifier.events_ingested,
                "by_type": dict(
                    sorted(self.events_by_type.counts.items())
                ),
            },
            "accesses": {
                "rows": classifier.accesses_ingested,
                "cleaned_rows": classifier.cleaned_rows,
                "unique": len(classifier.unique_accesses()),
                "by_country": self.accesses_by_country.most_common(10),
            },
            "notifications": {
                "rows": classifier.notifications_ingested,
                "actions": classifier.actions_ingested,
                "by_kind": dict(
                    sorted(self.notifications_by_kind.counts.items())
                ),
            },
            "lockouts": classifier.lockouts_ingested,
            "labels": label_totals,
            "wal_position": (
                self.wal.position if self.wal is not None else None
            ),
            "degraded": self.degraded,
            "wal_failures": self.wal_failures,
        }
        if self.access_timestamps.count:
            stats["access_time"] = {
                "count": self.access_timestamps.count,
                "mean_day": self.access_timestamps.mean / days(1),
                "first_day": self.access_timestamps.minimum / days(1),
                "last_day": self.access_timestamps.maximum / days(1),
                "p50_day": self.access_days.quantile(0.5),
                "p90_day": self.access_days.quantile(0.9),
            }
        return stats

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def dashboard_snapshot(self) -> dict:
        """JSON-safe snapshot of every dashboard aggregator."""
        return {
            "events_by_type": self.events_by_type.to_dict(),
            "notifications_by_kind": self.notifications_by_kind.to_dict(),
            "accesses_by_country": self.accesses_by_country.to_dict(),
            "access_timestamps": self.access_timestamps.to_dict(),
            "access_days": self.access_days.to_dict(),
        }

    def restore_dashboard(self, data: dict) -> None:
        self.events_by_type = CountByKey.from_dict(
            data["events_by_type"], key=_event_type
        )
        self.notifications_by_kind = CountByKey.from_dict(
            data["notifications_by_kind"], key=_notification_kind
        )
        self.accesses_by_country = CountByKey.from_dict(
            data["accesses_by_country"], key=_access_country
        )
        self.access_timestamps = OnlineStats.from_dict(
            data["access_timestamps"], value=_access_timestamp
        )
        self.access_days = StreamingECDF.from_dict(
            data["access_days"], value=_access_day
        )

    def flush(self) -> None:
        if self.wal is not None:
            self.wal.flush()

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
