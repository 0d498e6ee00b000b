"""Online taxonomy classification over the live event stream.

:class:`OnlineClassifier` ingests the wire-format events of
:mod:`repro.service.events` one at a time and maintains, per
``(account, cookie)``, the same rolling state batch analysis derives
from the full telemetry after the fact: the unique-access span, the
fingerprint of its earliest observation, and the location of its
earliest located observation.  Actions and lockouts accumulate per
account; labels are recomputed lazily — only for accounts whose state
changed since the last query — through the *same* per-account
attribution the batch path uses
(:func:`repro.analysis.taxonomy.label_account`).

The same fold keeps what the ``/stats`` dashboard reports beyond the
labels: rows per notification kind and per access country, and every
access timestamp, all counted before the Section 4.1 cleaning.

**Parity contract**: after ingesting any prefix of a run's event
stream, :meth:`classified` equals ``classify_accesses(...)`` over batch
``extract_unique_accesses`` on that same prefix — same spans, same
labels, same attributed counts, in the same ``(t0, account, cookie)``
order.  The service test gate pins this against ``paper_default`` and
``scaled(200)`` datasets across seeds.

The whole state is plain data: :meth:`to_dict` / :meth:`from_dict`
round-trip it losslessly through JSON, which is what the service
checkpoint writes.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field

from repro.analysis.accesses import UniqueAccess
from repro.analysis.taxonomy import (
    ACTION_KIND_VALUES,
    ClassifiedAccess,
    TaxonomyLabel,
    attribution_margin,
    label_account,
    label_counts,
)
from repro.errors import ValidationError
from repro.service.events import validate_event
from repro.sim.clock import hours


@dataclass
class _CookieState:
    """Rolling summary of one (account, cookie): everything
    :class:`~repro.analysis.accesses.UniqueAccess` needs, maintained
    in O(1) per observation.

    ``first_*`` fields mirror the batch rule "fingerprint from the
    first observation": replacement on strictly earlier timestamps
    only, because ties resolve to the earliest arrival — which is the
    row already held.  ``located_*`` mirrors "location from the first
    located observation" the same way.
    """

    cookie_id: str
    t0: float
    t_last: float
    count: int = 0
    #: ip -> (timestamp, arrival sequence) of its first observation;
    #: the batch tuple is these keys ordered by value.
    ips: dict[str, tuple[float, int]] = field(default_factory=dict)
    first_ts: float = 0.0
    device_kind: str = ""
    os_family: str = ""
    browser: str = ""
    user_agent: str = ""
    located_ts: float | None = None
    city: str | None = None
    country: str | None = None
    latitude: float | None = None
    longitude: float | None = None

    def observe(self, record: dict, sequence: int) -> None:
        timestamp = record["timestamp"]
        self.count += 1
        if timestamp < self.t0:
            self.t0 = timestamp
        if timestamp > self.t_last:
            self.t_last = timestamp
        ip_address = record["ip_address"]
        known = self.ips.get(ip_address)
        if known is None or (timestamp, sequence) < known:
            self.ips[ip_address] = (timestamp, sequence)
        if self.count == 1 or timestamp < self.first_ts:
            self.first_ts = timestamp
            self.device_kind = record["device_kind"]
            self.os_family = record["os_family"]
            self.browser = record["browser"]
            self.user_agent = record["user_agent"]
        city = record["city"]
        if city is not None and (
            self.located_ts is None or timestamp < self.located_ts
        ):
            self.located_ts = timestamp
            self.city = city
            self.country = record["country"]
            self.latitude = record["latitude"]
            self.longitude = record["longitude"]

    def unique_access(self, account_address: str) -> UniqueAccess:
        ordered_ips = tuple(
            sorted(self.ips, key=self.ips.__getitem__)
        )
        return UniqueAccess(
            account_address=account_address,
            cookie_id=self.cookie_id,
            t0=self.t0,
            t_last=self.t_last,
            observation_count=self.count,
            ip_addresses=ordered_ips,
            city=self.city,
            country=self.country,
            latitude=self.latitude,
            longitude=self.longitude,
            device_kind=self.device_kind,
            browser=self.browser,
            os_family=self.os_family,
            empty_user_agent=(self.user_agent == ""),
        )

    def to_dict(self) -> dict:
        return {
            "cookie_id": self.cookie_id,
            "t0": self.t0,
            "t_last": self.t_last,
            "count": self.count,
            "ips": [
                [ip, ts, seq] for ip, (ts, seq) in self.ips.items()
            ],
            "first_ts": self.first_ts,
            "device_kind": self.device_kind,
            "os_family": self.os_family,
            "browser": self.browser,
            "user_agent": self.user_agent,
            "located_ts": self.located_ts,
            "city": self.city,
            "country": self.country,
            "latitude": self.latitude,
            "longitude": self.longitude,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_CookieState":
        state = cls(
            cookie_id=data["cookie_id"],
            t0=data["t0"],
            t_last=data["t_last"],
            count=data["count"],
            first_ts=data["first_ts"],
            device_kind=data["device_kind"],
            os_family=data["os_family"],
            browser=data["browser"],
            user_agent=data["user_agent"],
            located_ts=data["located_ts"],
            city=data["city"],
            country=data["country"],
            latitude=data["latitude"],
            longitude=data["longitude"],
        )
        state.ips = {ip: (ts, seq) for ip, ts, seq in data["ips"]}
        return state


class OnlineClassifier:
    """Incremental curious/gold-digger/spammer/hijacker classification.

    Args:
        scan_period: script scan cadence; fixes the attribution margin
            exactly as batch ``classify_accesses`` does.  A later
            ``meta`` event carrying a scan period overrides it.
        monitor_ips: the monitoring infrastructure's own source IPs
            (rows from them are dropped — the Section 4.1 cleaning).
        monitor_city: the infrastructure's host city (ditto).
    """

    def __init__(
        self,
        *,
        scan_period: float = hours(2),
        monitor_ips=(),
        monitor_city: str | None = None,
    ) -> None:
        self.scan_period = scan_period
        self.monitor_ips = {str(ip) for ip in monitor_ips}
        self.monitor_city = monitor_city
        #: account -> cookie -> rolling span state.
        self._accounts: dict[str, dict[str, _CookieState]] = {}
        #: account -> (kind value, timestamp) actions, arrival order.
        self._actions: dict[str, list[tuple[str, float]]] = {}
        #: account -> lockout timestamps, arrival order.
        self._lockouts: dict[str, list[float]] = {}
        #: accounts whose labels must be recomputed.
        self._dirty: set[str] = set()
        #: account -> classification of its accesses (cache).
        self._labeled: dict[str, list[ClassifiedAccess]] = {}
        self._sequence = 0
        self.events_ingested = 0
        self.accesses_ingested = 0
        self.cleaned_rows = 0
        self.notifications_ingested = 0
        self.actions_ingested = 0
        self.lockouts_ingested = 0
        #: notification kind -> rows.
        self.notifications_by_kind: dict = {}
        #: access country (``"unlocated"`` when absent) -> rows.
        self.accesses_by_country: dict = {}
        #: every access timestamp, in arrival order.
        self.access_timestamps = array("d")

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, record: dict) -> None:
        """Fold one wire-format event into the rolling state."""
        kind = record.get("type")
        if kind == "access":
            self._ingest_access(record)
        elif kind == "notification":
            self._ingest_notification(record)
        elif kind == "lockout":
            self._ingest_lockout(record)
        elif kind == "meta":
            self._ingest_meta(record)
        else:
            raise ValidationError(f"unknown event type {kind!r}")
        self.events_ingested += 1

    def _ingest_meta(self, record: dict) -> None:
        self.monitor_ips.update(record.get("monitor_ips") or ())
        city = record.get("monitor_city")
        if city is not None:
            self.monitor_city = city
        scan_period = record.get("scan_period")
        if scan_period is not None:
            self.scan_period = float(scan_period)
        # Cleaning and margins changed for everything already seen.
        self._dirty.update(self._accounts)

    def _ingest_access(self, record: dict) -> None:
        self.accesses_ingested += 1
        country = record["country"] or "unlocated"
        by_country = self.accesses_by_country
        by_country[country] = by_country.get(country, 0) + 1
        self.access_timestamps.append(record["timestamp"])
        sequence = self._sequence
        self._sequence += 1
        if record["ip_address"] in self.monitor_ips or (
            self.monitor_city is not None
            and record["city"] == self.monitor_city
        ):
            self.cleaned_rows += 1
            return
        account = record["account_address"]
        cookies = self._accounts.get(account)
        if cookies is None:
            cookies = self._accounts[account] = {}
        cookie_id = record["cookie_id"]
        state = cookies.get(cookie_id)
        if state is None:
            timestamp = record["timestamp"]
            state = cookies[cookie_id] = _CookieState(
                cookie_id=cookie_id, t0=timestamp, t_last=timestamp
            )
        state.observe(record, sequence)
        self._dirty.add(account)

    def _ingest_notification(self, record: dict) -> None:
        self.notifications_ingested += 1
        kind = record["kind"]
        by_kind = self.notifications_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind not in ACTION_KIND_VALUES:
            return
        self.actions_ingested += 1
        account = record["account_address"]
        self._actions.setdefault(account, []).append(
            (kind, record["timestamp"])
        )
        self._dirty.add(account)

    def _ingest_lockout(self, record: dict) -> None:
        self.lockouts_ingested += 1
        account = record["address"]
        self._lockouts.setdefault(account, []).append(
            record["timestamp"]
        )
        self._dirty.add(account)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _classify_account(self, account: str) -> list[ClassifiedAccess]:
        """Batch-identical labels for one account's current state."""
        cookies = self._accounts.get(account)
        if not cookies:
            return []
        items = [
            ClassifiedAccess(access=state.unique_access(account))
            for state in sorted(
                cookies.values(), key=lambda s: (s.t0, s.cookie_id)
            )
        ]
        label_account(
            items,
            self._actions.get(account, ()),
            self._lockouts.get(account, ()),
            margin=attribution_margin(self.scan_period),
        )
        return items

    def _refresh(self) -> None:
        for account in self._dirty:
            labeled = self._classify_account(account)
            if labeled:
                self._labeled[account] = labeled
            else:
                self._labeled.pop(account, None)
        self._dirty.clear()

    def classified(self) -> list[ClassifiedAccess]:
        """Every unique access with its labels, in the batch order
        (ascending ``(t0, account, cookie)``)."""
        self._refresh()
        merged = [
            item
            for items in self._labeled.values()
            for item in items
        ]
        merged.sort(
            key=lambda c: (
                c.access.t0,
                c.access.account_address,
                c.access.cookie_id,
            )
        )
        return merged

    def unique_accesses(self) -> list[UniqueAccess]:
        return [item.access for item in self.classified()]

    def label_totals(self) -> dict[TaxonomyLabel, int]:
        """Non-exclusive per-label access counts (the §4.2 headline)."""
        return label_counts(self.classified())

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-safe snapshot of the whole rolling state."""
        return {
            "scan_period": self.scan_period,
            "monitor_ips": sorted(self.monitor_ips),
            "monitor_city": self.monitor_city,
            "sequence": self._sequence,
            "accounts": {
                account: [
                    state.to_dict()
                    for state in cookies.values()
                ]
                for account, cookies in self._accounts.items()
            },
            "actions": {
                account: [[kind, ts] for kind, ts in actions]
                for account, actions in self._actions.items()
            },
            "lockouts": dict(self._lockouts),
            "counters": {
                "events_ingested": self.events_ingested,
                "accesses_ingested": self.accesses_ingested,
                "cleaned_rows": self.cleaned_rows,
                "notifications_ingested": self.notifications_ingested,
                "actions_ingested": self.actions_ingested,
                "lockouts_ingested": self.lockouts_ingested,
            },
            # Pairs, not objects: a non-string key survives JSON.
            "notifications_by_kind": [
                [kind, count]
                for kind, count in self.notifications_by_kind.items()
            ],
            "accesses_by_country": [
                [country, count]
                for country, count in self.accesses_by_country.items()
            ],
            "access_timestamps": self.access_timestamps.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineClassifier":
        classifier = cls(
            scan_period=data["scan_period"],
            monitor_ips=data["monitor_ips"],
            monitor_city=data["monitor_city"],
        )
        classifier._sequence = data["sequence"]
        classifier._accounts = {
            account: {
                state["cookie_id"]: _CookieState.from_dict(state)
                for state in states
            }
            for account, states in data["accounts"].items()
        }
        classifier._actions = {
            account: [(kind, ts) for kind, ts in actions]
            for account, actions in data["actions"].items()
        }
        classifier._lockouts = {
            account: list(times)
            for account, times in data["lockouts"].items()
        }
        counters = data["counters"]
        classifier.events_ingested = counters["events_ingested"]
        classifier.accesses_ingested = counters["accesses_ingested"]
        classifier.cleaned_rows = counters["cleaned_rows"]
        classifier.notifications_ingested = counters[
            "notifications_ingested"
        ]
        classifier.actions_ingested = counters["actions_ingested"]
        classifier.lockouts_ingested = counters["lockouts_ingested"]
        classifier.notifications_by_kind = {
            kind: count for kind, count in data["notifications_by_kind"]
        }
        classifier.accesses_by_country = {
            country: count
            for country, count in data["accesses_by_country"]
        }
        classifier.access_timestamps = array(
            "d", data["access_timestamps"]
        )
        classifier._dirty = set(classifier._accounts)
        return classifier

    def fingerprint(self) -> str:
        """sha256 over the canonical classification state.

        Two classifiers that ingested the same event multiset have
        equal fingerprints, and a classifier that ingested a full run's
        stream matches :func:`classification_fingerprint` of the batch
        pipeline's output — the parity and restart tests compare these.
        """
        return classification_fingerprint(self.classified())


def classification_fingerprint(items) -> str:
    """sha256 over a canonical form of classified accesses.

    Works on both :meth:`OnlineClassifier.classified` output and batch
    ``classify_accesses`` output (sorted to the same ``(t0, account,
    cookie)`` order first), so online/batch parity reduces to string
    equality.
    """
    ordered = sorted(
        items,
        key=lambda c: (
            c.access.t0,
            c.access.account_address,
            c.access.cookie_id,
        ),
    )
    canonical = [
        {
            "account": item.access.account_address,
            "cookie": item.access.cookie_id,
            "t0": f"{item.access.t0:.10g}",
            "t_last": f"{item.access.t_last:.10g}",
            "observations": item.access.observation_count,
            "ips": list(item.access.ip_addresses),
            "city": item.access.city,
            "labels": sorted(label.value for label in item.labels),
            "reads": item.attributed_reads,
            "sends": item.attributed_sends,
            "drafts": item.attributed_drafts,
        }
        for item in ordered
    ]
    encoded = json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(encoded).hexdigest()


def ingest_all(classifier: OnlineClassifier, events) -> int:
    """Validate and ingest an iterable of events; returns the count."""
    count = 0
    for record in events:
        classifier.ingest(validate_event(record))
        count += 1
    return count
