"""The live service's in-memory state: classifier + WAL.

:class:`ServiceState` is the single-writer core the HTTP layer drives:
``apply()`` journals one request's events to the write-ahead log as one
line and folds each of them once, into the online classifier.  The
classifier's fold keeps everything ``/stats`` reports — per-type and
per-label counts, rows per notification kind and access country, and
the access timestamps — so the dashboard never rescans the stream.

The classifier snapshots to JSON (``OnlineClassifier.to_dict``), which
is what :mod:`repro.service.checkpoint` persists.
"""

from __future__ import annotations

import math

from repro.analysis.ecdf import Ecdf
from repro.analysis.taxonomy import label_counts
from repro.errors import DegradedError, ValidationError
from repro.service.classifier import OnlineClassifier
from repro.service.events import validate_event
from repro.service.wal import WriteAheadLog
from repro.sim.clock import days


class ServiceState:
    """Single-writer ingestion core: WAL -> classifier.

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
        ingest = self.classifier.ingest
        for record in records:
            ingest(record)
        if invalid is not None:
            raise invalid
        return len(records)

    def replay(self, records) -> int:
        """Fold already-journaled records in (no re-journaling);
        returns the number folded."""
        ingest = self.classifier.ingest
        count = 0
        for record in records:
            ingest(record)
            count += 1
        return count

    # ------------------------------------------------------------------
    # dashboard
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` document: totals, label counts, quantiles."""
        classifier = self.classifier
        classified = classifier.classified()
        per_type = {
            "access": classifier.accesses_ingested,
            "lockout": classifier.lockouts_ingested,
            "meta": classifier.events_ingested
            - classifier.accesses_ingested
            - classifier.notifications_ingested
            - classifier.lockouts_ingested,
            "notification": classifier.notifications_ingested,
        }
        stats: dict = {
            "events": {
                "total": classifier.events_ingested,
                "by_type": {
                    kind: count for kind, count in per_type.items() if count
                },
            },
            "accesses": {
                "rows": classifier.accesses_ingested,
                "cleaned_rows": classifier.cleaned_rows,
                "unique": len(classified),
                "by_country": sorted(
                    classifier.accesses_by_country.items(),
                    key=lambda kv: (-kv[1], str(kv[0])),
                )[:10],
            },
            "notifications": {
                "rows": classifier.notifications_ingested,
                "actions": classifier.actions_ingested,
                "by_kind": dict(
                    sorted(classifier.notifications_by_kind.items())
                ),
            },
            "lockouts": classifier.lockouts_ingested,
            "labels": {
                label.value: count
                for label, count in sorted(
                    label_counts(classified).items(),
                    key=lambda kv: kv[0].value,
                )
            },
            "wal_position": (
                self.wal.position if self.wal is not None else None
            ),
            "degraded": self.degraded,
            "wal_failures": self.wal_failures,
        }
        timestamps = classifier.access_timestamps
        if timestamps:
            ecdf = Ecdf.from_sample(timestamps)
            day = days(1)
            stats["access_time"] = {
                "count": ecdf.n,
                "mean_day": math.fsum(timestamps) / ecdf.n / day,
                "first_day": float(ecdf.x[0]) / day,
                "last_day": float(ecdf.x[-1]) / day,
                "p50_day": ecdf.quantile(0.5) / day,
                "p90_day": ecdf.quantile(0.9) / day,
            }
        return stats

    def flush(self) -> None:
        if self.wal is not None:
            self.wal.flush()

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
