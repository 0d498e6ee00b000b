"""The account activity page.

Gmail's "last account activity" page lists recent accesses with IP
address, geolocated city (when resolvable), and device/browser details.
The paper's monitoring scripts scrape this page; its analysis counts
unique accesses by cookie and measures locations.  :class:`ActivityPage`
is the provider-side log that scraping reads.

The page lists the logins of every client except the monitoring
scraper: a scrape visit only checks the credential, and the scraper
appends its own row to the access store after reading the page (see
:mod:`repro.core.monitor`), so the page never holds the ~99% of rows
that are the scraper observing itself.

The page is append-only, so incremental consumers never rescan:
:meth:`ActivityPage.read_from` hands scrapers an index cursor and every
visit costs O(new events) regardless of how much history the account
has accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.netsim.fingerprint import DeviceFingerprint
from repro.netsim.geo import GeoLocation
from repro.netsim.ipaddr import IPAddress
from repro.webmail.sessions import Cookie


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One row of the activity page: a login or returning visit."""

    account_address: str
    cookie: Cookie
    ip_address: IPAddress
    location: GeoLocation | None
    fingerprint: DeviceFingerprint
    timestamp: float

    @property
    def has_location(self) -> bool:
        """False for Tor/proxy accesses, which Google cannot geolocate."""
        return self.location is not None


@dataclass
class ActivityPage:
    """Per-account access log, append-only, scrape-friendly."""

    _events: dict[str, list[AccessEvent]] = field(default_factory=dict)
    #: Called with the account address after every append (the
    #: scraper's wake marks).  They must pickle, since checkpoints
    #: pickle the page.
    _record_hooks: list[Callable[[str], None]] = field(
        default_factory=list, compare=False, repr=False
    )

    def record(self, event: AccessEvent) -> None:
        """Append an access event for its account."""
        self._events.setdefault(event.account_address, []).append(event)
        for hook in self._record_hooks:
            hook(event.account_address)

    def add_record_hook(self, hook: Callable[[str], None]) -> None:
        """Call ``hook(address)`` after every future append."""
        self._record_hooks.append(hook)

    def events_for(self, account_address: str) -> tuple[AccessEvent, ...]:
        """All recorded events for an account, oldest first."""
        return tuple(self._events.get(account_address, ()))

    def read_from(
        self, account_address: str, cursor: int
    ) -> tuple[tuple[AccessEvent, ...], int]:
        """Events appended at or after index ``cursor``, plus the new cursor.

        The returned cursor is the index one past the last event read;
        passing it back on the next visit yields only fresh events.
        """
        events = self._events.get(account_address)
        if not events:
            return (), cursor
        return tuple(events[cursor:]), len(events)

    def event_count(self, account_address: str) -> int:
        """Number of recorded events for one account."""
        return len(self._events.get(account_address, ()))

    def total_events(self) -> int:
        """Total events across accounts (diagnostics)."""
        return sum(len(v) for v in self._events.values())
