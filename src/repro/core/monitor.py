"""The monitoring infrastructure: notification store + activity scraper.

Two collectors, as in Section 3.1 of the paper:

* the **notification store** is the dedicated webmail account the hidden
  scripts report to; here it is an append-only columnar
  :class:`~repro.telemetry.stores.NotificationStore`;
* the **activity scraper** drives a browser, periodically logs into every
  honey account with the leaked credentials, and dumps the account
  activity page to disk for offline parsing.  When a hijacker changes a
  password the scraper is locked out — access records stop, while script
  notifications keep flowing.

Everything the monitor collects is telemetry: scraped rows, script
notifications, scrape diagnostics and lockouts each stream into a typed
:class:`~repro.telemetry.eventlog.EventLog` sharing one string-interning
table, so a million-row run stores every address, user agent and city
exactly once.  Readers take row tuples or columns off the stores
(``access_store``, ``notification_store``, ``scrape_log_store``,
``failure_log``).  Each watched account carries a monotonic index
cursor into its activity page, making every scrape O(new events)
instead of a full rescan.

A full scrape visit (:meth:`MonitorInfrastructure._scrape_one`) is a
credential check, not a session: the scraper calls
:meth:`WebmailService.authenticate` (block, password and the
auth-failure listener, the same checks :meth:`~WebmailService.login`
runs), reads what *other* clients left on the page since its cursor,
and then appends its own login row itself — last, exactly where the
page read used to return it, stamped with the tick time.  No
:class:`~repro.webmail.sessions.Session` is opened and nothing is
written to the activity page.  The self rows are identical to what a
real login would record; the analysis layer removes them by IP and by
city, exactly like the paper's cleaning step.

Most visits find nothing changed, and then their outcome is known in
advance: an ``OK`` scrape-log row with one new event, and a self row
whose fields depend only on the account, the IP slot and the scraper's
cookie.  So a scrape tick **wakes on change**:

* the provider's change hooks — an activity-page append, a password
  change or block, a cookie-generation bump — and
  :meth:`update_password` mark accounts dirty, and a dirty account's
  next visit is a full one;
* an account is *armed* once full visits have appended its self row
  for every IP slot under its current cookie; those rows' stored
  values (interned ids, read back from the store, so the string table
  grows exactly as before) become its templates.  A newly watched
  account, a new IP slot or a new cookie leaves it unarmed, and an
  unarmed account gets a full visit every tick;
* every other active account is quiet: a :class:`_QuietPlan` holds the
  armed accounts' templates column-wise per rotation phase, each run
  of quiet accounts between two full visits is one
  :meth:`~repro.telemetry.eventlog.EventLog.extend` per store, and
  their visit counts advance arithmetically.

Rows, their order and the interning order are those of a full visit to
every account on every tick.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.core.notifications import NotificationRecord, notification_to_fields
from repro.core.sharding import stable_hash64
from repro.errors import (
    AccountBlockedError,
    AuthenticationError,
    NoSuchAccountError,
)
from repro.netsim.cities import City
from repro.netsim.fingerprint import (
    DeviceFingerprint,
    fingerprint_from_user_agent,
)
from repro.netsim.geo import GeoDatabase, GeoLocation
from repro.netsim.ipaddr import IPAddress
from repro.sim.clock import hours
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.telemetry import (
    AccessStore,
    DefenseActionStore,
    NotificationStore,
    ScrapeFailureLog,
    ScrapeLogStore,
    StringTable,
)
from repro.webmail.activity import AccessEvent
from repro.webmail.service import LoginContext, WebmailService

_SCRAPER_USER_AGENT = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/43.0.2357 Safari/537.36"
)


class ScrapeOutcome(enum.Enum):
    """Result of one scraper visit to one account."""

    OK = "ok"
    LOCKED_OUT = "locked_out"  # password changed by a hijacker
    BLOCKED = "blocked"  # account suspended by the provider


@dataclass
class _WatchedAccount:
    address: str
    password: str
    #: ``stable_hash64(address)``; plus :attr:`visits` it picks the
    #: infrastructure IP of the account's next visit.
    rotation: int
    #: Position in watch order, assigned when the quiet plan is built;
    #: quiet runs and wake visits interleave by it.
    order: int = 0
    #: Index cursor into the account's activity page; the next scrape
    #: reads from here, so each visit is O(new events).
    cursor: int = 0
    locked_out: bool = False
    blocked: bool = False
    #: Scrape visits so far.  While the account is a quiet member of
    #: the monitor's plan this holds the count at an earlier tick; the
    #: plan adds the ticks since (see :class:`_QuietPlan`).
    visits: int = 0
    #: The scraper's cookie on this account as of the last OK visit.
    cookie: str | None = None
    #: The scraper's own access row per IP slot, under :attr:`cookie`:
    #: its fields minus the timestamp (what ``append_fields`` takes)
    #: and, captured from the first such row appended, its stored
    #: values (what a quiet tick extends the store with).  A new
    #: cookie empties it.
    self_rows: dict[int, tuple[tuple, tuple]] = field(default_factory=dict)
    #: The first three stored values (address id, timestamp, ``ok`` id)
    #: of one of this account's OK scrape-log rows, read back from the
    #: store.
    log_row: tuple = ()


#: An account's role in a quiet plan: skipped (locked out or blocked),
#: woken every tick (not yet armed), or quiet (armed: a stored self
#: row for every IP slot under its current cookie).
_IDLE, _WAKING, _QUIET = range(3)


def _status(watched: _WatchedAccount, slots: int) -> int:
    if watched.locked_out or watched.blocked:
        return _IDLE
    return _QUIET if len(watched.self_rows) == slots else _WAKING


class _QuietPlan:
    """The quiet accounts' rows for every tick until something changes.

    Built at tick :attr:`tick` over the active accounts in watch order:
    armed ones are members, the rest are woken every tick.  A member's
    slot advances by one per tick, so at tick ``t`` its row is its
    stored self row for slot ``(rotation + visits + phase) % slots``,
    where ``phase = (t - plan.tick) % slots``.  :attr:`phases` holds
    those rows column-wise for every phase, and a run of consecutive
    members is one slice of them.  Members' visit counts stay at
    :attr:`visits` (their values at :attr:`tick`) until a wake visit or
    the next plan needs them.
    """

    __slots__ = (
        "tick",
        "slots",
        "members",
        "orders",
        "visits",
        "waking",
        "waking_orders",
        "phases",
        "log_columns",
        "stale",
    )

    def __init__(
        self,
        tick: int,
        slots: int,
        members: list[_WatchedAccount],
        waking: list[_WatchedAccount],
        access_store: AccessStore,
        log_store: ScrapeLogStore,
    ) -> None:
        self.tick = tick
        self.slots = slots
        self.members = members
        self.orders = [watched.order for watched in members]
        self.visits = [watched.visits for watched in members]
        self.waking = waking
        self.waking_orders = {watched.order for watched in waking}
        #: Set by a wake visit that changed an account's role; the next
        #: tick re-plans.
        self.stale = False
        self.phases: list[list] = []
        self.log_columns: tuple = ()
        if not members:
            return
        for phase in range(slots):
            rows = [
                watched.self_rows[
                    (watched.rotation + watched.visits + phase) % slots
                ][1]
                for watched in members
            ]
            self.phases.append(access_store.raw_columns(rows))
        # A quiet visit's log row: OK, one new event (the self row).
        addresses, _, outcomes, counts = log_store.raw_columns(
            [(*watched.log_row, 1) for watched in members]
        )
        self.log_columns = (addresses, outcomes, counts)


def _access_fields(
    address: str,
    cookie: str,
    ip_address: IPAddress,
    location: GeoLocation | None,
    fingerprint: DeviceFingerprint,
) -> tuple:
    """One access row's columns, timestamp excluded, in
    :meth:`AccessStore.append_fields` order."""
    return (
        address,
        cookie,
        ip_address.dotted,
        location.city if location else None,
        location.country if location else None,
        location.latitude if location else None,
        location.longitude if location else None,
        fingerprint.kind.value,
        fingerprint.os_family,
        fingerprint.browser,
        fingerprint.user_agent,
    )


class MonitorInfrastructure:
    """Owns both collectors and the scraping schedule.

    Args:
        sim: simulation engine for the periodic scrape.
        service: the webmail provider.
        geo: used to allocate the monitor's own IP addresses.
        monitor_city: where the infrastructure is hosted; its accesses are
            excluded from analysis by city, as in the paper.
        scrape_period: seconds between scrapes of each account.
    """

    def __init__(
        self,
        sim: Simulator,
        service: WebmailService,
        geo: GeoDatabase,
        monitor_city: City,
        *,
        scrape_period: float = hours(6),
    ) -> None:
        self._sim = sim
        self._service = service
        self._geo = geo
        self.monitor_city = monitor_city
        self._scrape_period = scrape_period
        self._watched: dict[str, _WatchedAccount] = {}
        self._monitor_ips: list[IPAddress] = [
            geo.allocate_in_city(monitor_city) for _ in range(3)
        ]
        # LoginContext is frozen and the scraper's identity is fixed, so
        # one context per infrastructure IP serves every scrape visit.
        self._login_contexts: list[LoginContext] = [
            LoginContext(
                device_id="monitor-browser",
                ip_address=ip,
                user_agent=_SCRAPER_USER_AGENT,
            )
            for ip in self._monitor_ips
        ]
        # One interning table across all four telemetry streams.
        self.telemetry_strings = StringTable()
        self.access_store = AccessStore(strings=self.telemetry_strings)
        self.notification_store = NotificationStore(
            strings=self.telemetry_strings
        )
        self.scrape_log_store = ScrapeLogStore(
            strings=self.telemetry_strings
        )
        self.failure_log = ScrapeFailureLog(strings=self.telemetry_strings)
        # Defender-side actions (checks/notifies/resets); like the
        # failure log it is tiny and stays resident.
        self.defense_store = DefenseActionStore(
            strings=self.telemetry_strings
        )
        self._process: PeriodicProcess | None = None
        # Wake-on-change state.  ``_dirty`` holds addresses whose next
        # visit must be a full one; the provider's change hooks add to
        # it directly (bound ``set.add`` pickles, and pickling keeps it
        # the same set), so it is only ever mutated in place.
        self._dirty: set[str] = set()
        self._plan: _QuietPlan | None = None
        self._ticks = 0
        service.activity.add_record_hook(self._dirty.add)
        service.sessions.add_generation_hook(self._dirty.add)

    # ------------------------------------------------------------------
    # notification store
    # ------------------------------------------------------------------
    def notification_sink(self, record: NotificationRecord) -> None:
        """The sink handed to every honey script."""
        self.notification_store.append_fields(
            *notification_to_fields(record)
        )

    @property
    def notification_counts(self) -> dict[str, int]:
        """Per-kind notification counts off the raw kind-id column.

        One integer-column scan on demand — nothing rides the ingest
        hot path for this.
        """
        counts = Counter(self.notification_store.kind_ids)
        lookup = self.telemetry_strings.lookup
        return {lookup(ident): count for ident, count in counts.items()}

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    @property
    def monitor_ips(self) -> tuple[IPAddress, ...]:
        return tuple(self._monitor_ips)

    def register_monitor_ip(self, address: IPAddress) -> None:
        """Register an additional infrastructure IP (e.g. the sandbox).

        The rotation gains a slot no account has a stored row for, so
        every account wakes until it has visited from the new IP.
        """
        self._monitor_ips.append(address)
        self._login_contexts.append(
            LoginContext(
                device_id="monitor-browser",
                ip_address=address,
                user_agent=_SCRAPER_USER_AGENT,
            )
        )
        self._replan_next_tick()

    def watch(self, address: str, password: str) -> None:
        """Start scraping an account with its leaked credentials.

        Raises:
            NoSuchAccountError: the service has no such account.
        """
        if not self._service.has_account(address):
            raise NoSuchAccountError(address)
        if address not in self._watched:
            self._service.account(address).add_change_hook(
                partial(self._dirty.add, address)
            )
        self._watched[address] = _WatchedAccount(
            address, password, stable_hash64(address)
        )
        self._replan_next_tick()

    def update_password(self, address: str, new_password: str) -> None:
        """Re-sync the scraper after a defender-forced password reset.

        The monitoring team runs the defenses, so the scraper learns
        the new credential immediately and any lockout caused by the
        reset racing a scrape tick clears on the next visit.
        """
        watched = self._watched.get(address)
        if watched is None:
            return
        watched.password = new_password
        watched.locked_out = False
        self._dirty.add(address)

    def start(self) -> None:
        """Begin the periodic scrape of all watched accounts."""
        if self._process is not None:
            return
        self._process = PeriodicProcess(
            self._sim,
            self._scrape_period,
            self._scrape_all,
            start_delay=self._scrape_period,
            label="monitor:scrape",
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # disk spill
    # ------------------------------------------------------------------
    def configure_spill(
        self, directory: str | Path, *, chunk_rows: int | None = None
    ) -> None:
        """Make the access, notification and scrape-log stores spill
        chunked columns under ``directory`` before any row lands.

        Must run before provisioning — a store only becomes spillable
        while empty.  The lockout log stays resident (a handful of rows
        per run).
        """
        directory = Path(directory)
        for name, store in (
            ("accesses", self.access_store),
            ("notifications", self.notification_store),
            ("scrape_log", self.scrape_log_store),
        ):
            store.configure_spill(directory / name, chunk_rows=chunk_rows)

    def _next_slot(self, watched: _WatchedAccount) -> int:
        """The index into the login contexts (one per infrastructure
        IP) of one account's next scrape visit.

        Rotation is keyed on the account (stable address hash plus that
        account's own visit count), never on a shared cursor: which IP
        scrapes an account must not depend on how many *other* accounts
        are being watched, or a sharded monitor would present different
        IPs than the serial one.  All infrastructure IPs are cleaned
        from the analysis either way; this only pins the raw rows.
        """
        slot = (watched.rotation + watched.visits) % len(
            self._login_contexts
        )
        watched.visits += 1
        return slot

    def _scrape_all(self) -> None:
        """One scrape tick: every active account, in watch order.

        Accounts that are dirty or not yet armed get a full visit
        (:meth:`_scrape_one`); the quiet ones between them get their
        rows as slices of the plan's templates.
        """
        now = self._sim.now
        tick = self._ticks
        self._ticks = tick + 1
        plan = self._plan
        if plan is None or plan.stale:
            plan = self._replan(tick)
        wake = self._wake_list(plan) if self._dirty else plan.waking
        orders = plan.orders
        quiet = 0  # first plan member not yet scraped this tick
        for watched in wake:
            index = bisect_left(orders, watched.order)
            self._extend_quiet(plan, quiet, index, tick, now)
            if index < len(orders) and orders[index] == watched.order:
                watched.visits = plan.visits[index] + tick - plan.tick
                quiet = index + 1
                role = _QUIET
            else:
                quiet = index
                role = (
                    _WAKING if watched.order in plan.waking_orders else _IDLE
                )
            self._scrape_one(watched, now)
            if _status(watched, plan.slots) != role:
                plan.stale = True
        self._extend_quiet(plan, quiet, len(orders), tick, now)

    def _replan_next_tick(self) -> None:
        if self._plan is not None:
            self._plan.stale = True

    def _replan(self, tick: int) -> _QuietPlan:
        old = self._plan
        if old is not None:
            # Bring the old members' visit counts up to this tick (a
            # member that went idle was last counted by its wake visit).
            for watched, visits in zip(old.members, old.visits):
                if not (watched.locked_out or watched.blocked):
                    watched.visits = visits + tick - old.tick
        slots = len(self._login_contexts)
        members: list[_WatchedAccount] = []
        waking: list[_WatchedAccount] = []
        for order, watched in enumerate(self._watched.values()):
            watched.order = order
            role = _status(watched, slots)
            if role == _QUIET:
                members.append(watched)
            elif role == _WAKING:
                waking.append(watched)
        self._plan = _QuietPlan(
            tick,
            slots,
            members,
            waking,
            self.access_store,
            self.scrape_log_store,
        )
        return self._plan

    def _wake_list(self, plan: _QuietPlan) -> list[_WatchedAccount]:
        """The plan's waking accounts plus the active dirty ones, in
        watch order; empties the dirty set."""
        woken = {watched.order: watched for watched in plan.waking}
        for address in self._dirty:
            watched = self._watched.get(address)
            if watched is not None and not (
                watched.locked_out or watched.blocked
            ):
                woken[watched.order] = watched
        self._dirty.clear()
        return [woken[order] for order in sorted(woken)]

    def _extend_quiet(
        self, plan: _QuietPlan, start: int, stop: int, tick: int, now: float
    ) -> None:
        """Append the rows of plan members ``start:stop``'s quiet
        visits at ``now``: one ``extend`` per store."""
        if start >= stop:
            return
        stamps = array("d", [now]) * (stop - start)
        phase = plan.phases[(tick - plan.tick) % plan.slots]
        addresses, outcomes, counts = plan.log_columns
        if stop - start == len(plan.orders):
            access = [*phase, stamps]
            log = [addresses, stamps, outcomes, counts]
        else:
            access = [column[start:stop] for column in phase]
            access.append(stamps)
            log = [
                addresses[start:stop],
                stamps,
                outcomes[start:stop],
                counts[start:stop],
            ]
        self.access_store.extend(access)
        self.scrape_log_store.extend(log)

    def _log_scrape(
        self, address: str, now: float, outcome: ScrapeOutcome, count: int
    ) -> int:
        return self.scrape_log_store.append_fields(
            address, now, outcome.value, count
        )

    def _scrape_one(self, watched: _WatchedAccount, now: float) -> None:
        address = watched.address
        slot = self._next_slot(watched)
        context = self._login_contexts[slot]
        service = self._service
        try:
            service.authenticate(address, watched.password, context, now)
        except AuthenticationError:
            # Hijacker changed the password; we lose the activity page but
            # script notifications keep arriving.
            watched.locked_out = True
            self.failure_log.append((address, now))
            self._log_scrape(address, now, ScrapeOutcome.LOCKED_OUT, 0)
            return
        except AccountBlockedError:
            watched.blocked = True
            self._log_scrape(address, now, ScrapeOutcome.BLOCKED, 0)
            return
        events, watched.cursor = service.activity.read_from(
            address, watched.cursor
        )
        if events:
            ingest = self._ingest_event
            for event in events:
                ingest(event)
        # The scraper's own login, in the place the page read gave it:
        # after everything other clients recorded.
        cookie = service.sessions.cookie_for(context.device_id, address).value
        if cookie != watched.cookie:
            # A cookie-generation bump minted a new cookie: every
            # stored self row is stale.
            watched.cookie = cookie
            watched.self_rows = {}
        stored = watched.self_rows.get(slot)
        fields = (
            stored[0]
            if stored is not None
            else self._self_row(address, cookie, context)
        )
        index = self.access_store.append_fields(*fields, now)
        log_index = self._log_scrape(
            address, now, ScrapeOutcome.OK, len(events) + 1
        )
        if stored is None:
            # Arming: keep the row as stored, minus its timestamp.
            # Reading back what was appended interns nothing new.
            watched.self_rows[slot] = (
                fields,
                self.access_store.raw_row(index)[:-1],
            )
            watched.log_row = self.scrape_log_store.raw_row(log_index)[:3]

    def _self_row(
        self, address: str, cookie: str, context: LoginContext
    ) -> tuple:
        """The access-row fields, timestamp excluded, that a login from
        ``context`` puts on the activity page (as the provider records
        it: geolocated IP, fingerprinted user agent)."""
        return _access_fields(
            address,
            cookie,
            context.ip_address,
            self._geo.locate(context.ip_address),
            fingerprint_from_user_agent(context.user_agent),
        )

    def _ingest_event(self, event: AccessEvent) -> int:
        """Offline parsing of one dumped activity-page row, straight
        into the columnar store (no intermediate row object).

        Field extraction leans on the shared caches: ``dotted`` renders
        each IP once per address object, the fingerprint is a memoised
        frozen record, and the location is the per-prefix shared
        instance — so a scrape tick costs interning probes, not string
        building.
        """
        return self.access_store.append_fields(
            *_access_fields(
                event.account_address,
                event.cookie.value,
                event.ip_address,
                event.location,
                event.fingerprint,
            ),
            event.timestamp,
        )

    # ------------------------------------------------------------------
    # convenience views
    # ------------------------------------------------------------------
    @property
    def monitor_ip_strings(self) -> set[str]:
        return {str(ip) for ip in self._monitor_ips}

    def locked_out_accounts(self) -> list[str]:
        return [w.address for w in self._watched.values() if w.locked_out]
