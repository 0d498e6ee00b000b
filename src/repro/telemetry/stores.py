"""Typed event logs for the measurement's observation streams.

Three schemas cover everything the monitoring infrastructure collects:

* :class:`AccessStore` — scraped activity-page rows (the paper's
  "unique accesses" raw material);
* :class:`NotificationStore` — hidden-script notifications;
* :class:`ScrapeLogStore` / :class:`ScrapeFailureLog` — scraper
  diagnostics and lockout events.

Each is an :class:`~repro.telemetry.eventlog.EventLog` with a fixed
schema plus a hand-inlined ``append_fields`` fast path: the ingest hot
loop writes straight into the column arrays (interning as it goes)
instead of dispatching through the generic per-column loop, which is
what buys the multi-x throughput over building frozen dataclasses.

Readers get rows back as plain value tuples in schema order
(``iter_rows()``, ``row(i)``) or read the columns directly; the stores
know nothing about ``repro.core`` types.
"""

from __future__ import annotations

from repro.telemetry.columns import Field
from repro.telemetry.eventlog import EventLog
from repro.telemetry.interning import StringTable

#: Schema of one scraped activity-page row.
ACCESS_FIELDS: tuple[Field, ...] = (
    Field("account_address", "intern"),
    Field("cookie_id", "intern"),
    Field("ip_address", "intern"),
    Field("city", "intern"),
    Field("country", "intern"),
    Field("latitude", "opt_f64"),
    Field("longitude", "opt_f64"),
    Field("device_kind", "intern"),
    Field("os_family", "intern"),
    Field("browser", "intern"),
    Field("user_agent", "intern"),
    Field("timestamp", "f64"),
)

#: Schema of one script notification; ``kind`` holds the
#: ``NotificationKind.value`` string (interned — six distinct values).
NOTIFICATION_FIELDS: tuple[Field, ...] = (
    Field("kind", "intern"),
    Field("account_address", "intern"),
    Field("timestamp", "f64"),
    Field("message_id", "intern"),
    Field("subject", "intern"),
    Field("body_copy", "obj"),
)

SCRAPE_LOG_FIELDS: tuple[Field, ...] = (
    Field("address", "intern"),
    Field("timestamp", "f64"),
    Field("outcome", "intern"),
    Field("new_events", "i64"),
)

SCRAPE_FAILURE_FIELDS: tuple[Field, ...] = (
    Field("address", "intern"),
    Field("timestamp", "f64"),
)

#: Schema of one defender-side action.  ``defense`` is the registered
#: defense name (``c3``, ``breach_notification``, ...), ``action`` one
#: of its event kinds (``check``, ``detect``, ``notify``, ``reset``,
#: ``prevented_login``, ``releak``), ``detail`` a short free-form tag
#: (e.g. ``"false_positive"``) — all low-cardinality, so interned.
DEFENSE_ACTION_FIELDS: tuple[Field, ...] = (
    Field("defense", "intern"),
    Field("action", "intern"),
    Field("account_address", "intern"),
    Field("timestamp", "f64"),
    Field("detail", "intern"),
)


class AccessStore(EventLog):
    """Columnar store of scraped activity-page rows."""

    def __init__(self, *, strings: StringTable | None = None) -> None:
        super().__init__(ACCESS_FIELDS, strings=strings)
        self._after_restore()

    def _after_restore(self) -> None:
        columns = self._columns
        self.account_ids = columns[0].ids
        self.cookie_ids = columns[1].ids
        self.ip_ids = columns[2].ids
        self.city_ids = columns[3].ids
        self.country_ids = columns[4].ids
        self.latitudes = columns[5].data
        self.latitude_mask = columns[5].mask
        self.longitudes = columns[6].data
        self.longitude_mask = columns[6].mask
        self.device_ids = columns[7].ids
        self.os_ids = columns[8].ids
        self.browser_ids = columns[9].ids
        self.ua_ids = columns[10].ids
        self.timestamps = columns[11].data
        # Bound-method cache: append_fields runs once per scraped row.
        self._appends = (
            self.account_ids.append,
            self.cookie_ids.append,
            self.ip_ids.append,
            self.city_ids.append,
            self.country_ids.append,
            self.latitudes.append,
            self.latitude_mask.append,
            self.longitudes.append,
            self.longitude_mask.append,
            self.device_ids.append,
            self.os_ids.append,
            self.browser_ids.append,
            self.ua_ids.append,
            self.timestamps.append,
        )

    def append_fields(
        self,
        account_address: str,
        cookie_id: str,
        ip_address: str,
        city: str | None,
        country: str | None,
        latitude: float | None,
        longitude: float | None,
        device_kind: str,
        os_family: str,
        browser: str,
        user_agent: str,
        timestamp: float,
    ) -> int:
        """Ingest one row straight into the columns (hot path)."""
        intern = self.strings.intern
        index = len(self.timestamps)
        (
            a_account, a_cookie, a_ip, a_city, a_country,
            a_lat, a_lat_mask, a_lon, a_lon_mask,
            a_device, a_os, a_browser, a_ua, a_ts,
        ) = self._appends
        a_account(intern(account_address))
        a_cookie(intern(cookie_id))
        a_ip(intern(ip_address))
        a_city(intern(city))
        a_country(intern(country))
        if latitude is None:
            a_lat(0.0)
            a_lat_mask(0)
        else:
            a_lat(latitude)
            a_lat_mask(1)
        if longitude is None:
            a_lon(0.0)
            a_lon_mask(0)
        else:
            a_lon(longitude)
            a_lon_mask(1)
        a_device(intern(device_kind))
        a_os(intern(os_family))
        a_browser(intern(browser))
        a_ua(intern(user_agent))
        a_ts(timestamp)
        if self._spill is not None:
            self._maybe_flush()
        return index


class NotificationStore(EventLog):
    """Columnar store of hidden-script notifications."""

    def __init__(self, *, strings: StringTable | None = None) -> None:
        super().__init__(NOTIFICATION_FIELDS, strings=strings)
        self._after_restore()

    def _after_restore(self) -> None:
        columns = self._columns
        self.kind_ids = columns[0].ids
        self.account_ids = columns[1].ids
        self.timestamps = columns[2].data
        self.message_ids = columns[3].ids
        self.subject_ids = columns[4].ids
        self.bodies = columns[5].data

    def append_fields(
        self,
        kind_value: str,
        account_address: str,
        timestamp: float,
        message_id: str,
        subject: str,
        body_copy: str,
    ) -> int:
        """Ingest one notification (hot path; ``kind_value`` is the
        :class:`~repro.core.notifications.NotificationKind` value)."""
        intern = self.strings.intern
        index = len(self.timestamps)
        self.kind_ids.append(intern(kind_value))
        self.account_ids.append(intern(account_address))
        self.timestamps.append(timestamp)
        self.message_ids.append(intern(message_id))
        self.subject_ids.append(intern(subject))
        self.bodies.append(body_copy)
        if self._spill is not None:
            self._maybe_flush()
        return index


class ScrapeLogStore(EventLog):
    """Diagnostic log of scraper visits (outcome per account per visit)."""

    def __init__(self, *, strings: StringTable | None = None) -> None:
        super().__init__(SCRAPE_LOG_FIELDS, strings=strings)
        self._after_restore()

    def _after_restore(self) -> None:
        columns = self._columns
        self.address_ids = columns[0].ids
        self.timestamps = columns[1].data
        self.outcome_ids = columns[2].ids
        self.event_counts = columns[3].data

    def append_fields(
        self,
        address: str,
        timestamp: float,
        outcome_value: str,
        new_events: int,
    ) -> int:
        """Ingest one scrape diagnostic (hot path: one row per account
        per scrape tick; ``outcome_value`` is the ``ScrapeOutcome``
        value string)."""
        intern = self.strings.intern
        index = len(self.timestamps)
        self.address_ids.append(intern(address))
        self.timestamps.append(timestamp)
        self.outcome_ids.append(intern(outcome_value))
        self.event_counts.append(new_events)
        if self._spill is not None:
            self._maybe_flush()
        return index


class ScrapeFailureLog(EventLog):
    """Lockout events: ``(address, timestamp)`` rows."""

    def __init__(self, *, strings: StringTable | None = None) -> None:
        super().__init__(SCRAPE_FAILURE_FIELDS, strings=strings)


class DefenseActionStore(EventLog):
    """Columnar store of defender-side actions (checks/notifies/resets).

    Row volume is tiny next to the access stream (a handful of rows per
    defended account), so like the failure log it stays resident by
    default; it still spills through the standard machinery when an
    :class:`~repro.core.records.ObservedDataset` is spilled wholesale.
    """

    def __init__(self, *, strings: StringTable | None = None) -> None:
        super().__init__(DEFENSE_ACTION_FIELDS, strings=strings)
        self._after_restore()

    def _after_restore(self) -> None:
        columns = self._columns
        self.defense_ids = columns[0].ids
        self.action_ids = columns[1].ids
        self.account_ids = columns[2].ids
        self.timestamps = columns[3].data
        self.detail_ids = columns[4].ids

    def append_fields(
        self,
        defense: str,
        action: str,
        account_address: str,
        timestamp: float,
        detail: str = "",
    ) -> int:
        """Ingest one defender action."""
        intern = self.strings.intern
        index = len(self.timestamps)
        self.defense_ids.append(intern(defense))
        self.action_ids.append(intern(action))
        self.account_ids.append(intern(account_address))
        self.timestamps.append(timestamp)
        self.detail_ids.append(intern(detail))
        if self._spill is not None:
            self._maybe_flush()
        return index
