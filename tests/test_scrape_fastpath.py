"""The monitor's scrape tick: wake on change, quiet accounts extended.

A full scrape visit checks the credential (``WebmailService.authenticate``),
reads what other clients left on the activity page and appends the
scraper's own row itself; it opens no session and writes nothing to
the page.  A tick makes one only for accounts the provider's change
hooks marked dirty or that are not yet armed; every quiet account's
rows are column extends from templates.  All of this must be invisible
in every row.  This module pins that two ways:

* a property test against :class:`ReferenceMonitor`, whose tick is a
  loop of full client visits to every active account (log in, which
  records the scraper's row on the page, read the page from the
  cursor, ingest every row, log out), over generated worlds with
  attacker logins (some exactly on a scrape tick, before or after
  it), hijacker password changes, bare password changes with no page
  append, bare cookie rotations, scraper re-syncs after a lockout,
  defender resets and blocks of armed accounts,
  future-stamped sandbox rows, accounts watched mid-run and monitor
  IPs registered mid-run or late, with resident and spilled (small
  chunks) telemetry.  Its budget is the loaded Hypothesis profile (``ci``
  unless ``--hypothesis-profile`` names another, see
  ``tests/conftest.py``);
* unit tests of the visit itself and of the loud failure on an unknown
  account.

The committed row-level golden (``tests/golden/run_rows.json``, checked
by ``tests/test_scan_runtime.py``) covers whole scenarios, including the
scrape log and the lockout log.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.monitor import MonitorInfrastructure, ScrapeOutcome
from repro.core.sharding import stable_hash64
from repro.errors import (
    AccountBlockedError,
    AuthenticationError,
    NoSuchAccountError,
    WebmailError,
)
from repro.netsim.cities import city_by_name
from repro.netsim.geo import GeoDatabase
from repro.netsim.ipaddr import IPAddress
from repro.sim.clock import hours
from repro.sim.engine import Simulator
from repro.sim.rng import derive_rng
from repro.telemetry.spill import spill_manifest
from repro.webmail.account import Credentials
from repro.webmail.service import LoginContext, WebmailService

PERIOD = hours(6)
MAX_TICKS = 20
PASSWORD = "leakedpass99"
ADDRESSES = tuple(f"{name}@gmail.example" for name in "abcdef")
CITIES = ("Paris", "Lagos", "Reading")
USER_AGENTS = (
    "",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/51.0 Safari/537.36",
    "Mozilla/5.0 (Linux; Android 6.0; Nexus 5) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/50.0 Mobile Safari/537.36",
)
#: An address outside every city prefix: the page shows no location.
UNLOCATED_IP = IPAddress.from_octets(10, 9, 8, 7)
#: Spilled-variant chunk size: small enough that quiet runs straddle
#: chunk boundaries.
CHUNK_ROWS = 7



# ----------------------------------------------------------------------
# the reference implementation: every tick, a full client login to
# every active account
# ----------------------------------------------------------------------
class ReferenceMonitor(MonitorInfrastructure):
    """Scrapes the way a browser does: each tick, for every active
    account in watch order, log in (the page records the scraper's own
    access), read the page from the cursor, ingest every row, log out."""

    def _scrape_all(self):
        now = self._sim.now
        for watched in self._watched.values():
            if not (watched.locked_out or watched.blocked):
                self._login_and_read(watched, now)

    def _login_and_read(self, watched, now):
        contexts = self._login_contexts
        index = (stable_hash64(watched.address) + watched.visits) % len(
            contexts
        )
        watched.visits += 1
        try:
            session = self._service.login(
                watched.address, watched.password, contexts[index], now
            )
        except AuthenticationError:
            watched.locked_out = True
            self.failure_log.append((watched.address, now))
            self._log_scrape(
                watched.address, now, ScrapeOutcome.LOCKED_OUT, 0
            )
            return
        except AccountBlockedError:
            watched.blocked = True
            self._log_scrape(watched.address, now, ScrapeOutcome.BLOCKED, 0)
            return
        events, watched.cursor = self._service.activity.read_from(
            watched.address, watched.cursor
        )
        for event in events:
            self._ingest_event(event)
        self._service.logout(session)
        self._log_scrape(watched.address, now, ScrapeOutcome.OK, len(events))


# ----------------------------------------------------------------------
# generated worlds
# ----------------------------------------------------------------------
#: (kind, account index, tick, offset, priority, device, city, agent)
#: ``offset`` None puts the action exactly on tick ``tick``; priority
#: -1 runs it before that tick's scrape, +1 after.  ``password``
#: changes the password with no page append; ``rotate`` bumps the
#: cookie generation alone; ``resync`` hands the scraper the account's
#: current password; ``reset`` is the defender's (password, sessions,
#: cookie generation, scraper re-sync); ``watch`` starts watching the
#: next account not watched from the start, if there is one.
actions = st.tuples(
    st.sampled_from(
        (
            "login",
            "login",
            "hijack",
            "password",
            "rotate",
            "resync",
            "reset",
            "reset",
            "block",
            "monitor_ip",
            "watch",
        )
    ),
    st.integers(0, len(ADDRESSES) - 1),
    st.integers(0, MAX_TICKS - 1),
    st.one_of(st.none(), st.floats(0.0, PERIOD, exclude_max=True)),
    st.sampled_from((-1, 0, 1)),
    st.integers(0, 2),
    st.integers(0, len(CITIES)),
    st.integers(0, len(USER_AGENTS) - 1),
)

#: (account index, future time, device) sandbox logins recorded at
#: world build, stamped ahead of the simulated clock.
sandbox_logins = st.tuples(
    st.integers(0, len(ADDRESSES) - 1),
    st.floats(0.0, MAX_TICKS * PERIOD),
    st.integers(0, 1),
)

worlds = st.fixed_dictionaries(
    {
        "accounts": st.integers(1, len(ADDRESSES)),
        "ticks": st.integers(1, MAX_TICKS),
        "actions": st.lists(actions, max_size=16),
        "sandbox": st.lists(sandbox_logins, max_size=3),
        "telemetry": st.sampled_from(("resident", "spilled")),
    }
)


def run_world(world: dict, monitor_cls) -> dict:
    """Build ``world`` with ``monitor_cls`` as the scraper, run it and
    return everything the scraper and the provider observed."""
    with tempfile.TemporaryDirectory() as scratch:
        return _run_world(world, monitor_cls, Path(scratch))


def _run_world(world: dict, monitor_cls, scratch: Path) -> dict:
    geo = GeoDatabase(derive_rng(77, "fastpath-geo"))
    service = WebmailService(geo, derive_rng(77, "fastpath-service"))
    sim = Simulator()
    addresses = ADDRESSES[: world["accounts"]]
    unwatched = list(ADDRESSES[world["accounts"]:])
    for address in ADDRESSES:
        service.create_account(Credentials(address, PASSWORD), address)
    listener_calls: list[tuple] = []
    service.auth_failure_listener = (
        lambda address, context, now: listener_calls.append(
            (address, context.device_id, context.ip_address.dotted, now)
        )
    )
    monitor = monitor_cls(
        sim, service, geo, city_by_name("Reading"), scrape_period=PERIOD
    )
    telemetry = world.get("telemetry", "resident")
    if telemetry == "spilled":
        monitor.configure_spill(scratch, chunk_rows=CHUNK_ROWS)
    for address in addresses:
        monitor.watch(address, PASSWORD)

    sandbox_ip = geo.allocate_in_city(city_by_name("Reading"))
    for account, when, device in world["sandbox"]:
        context = LoginContext(f"sandbox-{device}", sandbox_ip, "sandbox")
        try:
            session = service.login(
                addresses[account % len(addresses)], PASSWORD, context, when
            )
        except WebmailError:
            continue
        service.logout(session)

    def act(kind, address, device, city, agent, serial):
        now = sim.now
        account = service.account(address)
        if kind == "block":
            account.block("spam", now)
            return
        if kind == "watch":
            if unwatched:
                monitor.watch(unwatched.pop(0), PASSWORD)
            return
        if kind == "monitor_ip":
            monitor.register_monitor_ip(
                geo.allocate_in_city(city_by_name("Reading"))
            )
            return
        if kind == "password":
            account.change_password(f"changed-{serial}", now)
            return
        if kind == "rotate":
            service.sessions.bump_cookie_generation(address)
            return
        if kind == "resync":
            monitor.update_password(address, account.credentials.password)
            return
        if kind == "reset":
            new_password = f"reset-{serial}"
            account.change_password(new_password, now)
            service.sessions.revoke_account_sessions(address)
            service.sessions.bump_cookie_generation(address)
            monitor.update_password(address, new_password)
            return
        ip = (
            UNLOCATED_IP
            if city == len(CITIES)
            else geo.allocate_in_city(city_by_name(CITIES[city]))
        )
        context = LoginContext(f"atk-{device}", ip, USER_AGENTS[agent])
        try:
            session = service.login(address, PASSWORD, context, now)
        except WebmailError:
            return
        if kind == "hijack":
            service.change_password(session, f"hijacked-{serial}", now)

    for serial, (kind, account, tick, offset, priority, device, city,
                 agent) in enumerate(world["actions"]):
        when = tick * PERIOD + (offset or 0.0)
        sim.schedule_at(
            when,
            lambda kind=kind, address=addresses[account % len(addresses)],
            device=device, city=city, agent=agent, serial=serial: act(
                kind, address, device, city, agent, serial
            ),
            priority=priority if offset is None else 0,
        )
    monitor.start()
    sim.run_until(world["ticks"] * PERIOD)
    monitor.stop()

    strings = monitor.telemetry_strings
    seen = {
        "accesses": monitor.access_store.to_json_dict(),
        "scrape_log": monitor.scrape_log_store.to_json_dict(),
        "failure_log": monitor.failure_log.to_json_dict(),
        "strings": [strings.lookup(i) for i in range(len(strings))],
        "listener_calls": listener_calls,
        "cookies": [
            (key, [cookie.value for cookie in cookies])
            for key, cookies in service.sessions.all_minted_cookies().items()
        ],
        "monitor_ips": [ip.dotted for ip in monitor.monitor_ips],
    }
    if telemetry == "spilled":
        seen["chunks"] = [
            spill_manifest(store)["chunk_counts"]
            for store in (monitor.access_store, monitor.scrape_log_store)
        ]
    return seen


class TestAgainstReference:
    @given(worlds)
    def test_rows_identical_to_full_login_scraper(self, world):
        assert run_world(world, MonitorInfrastructure) == run_world(
            world, ReferenceMonitor
        )

    @pytest.mark.parametrize(
        "world, reached",
        [
            # attacker on a tick, before and after the scrape
            (
                {"accounts": 1, "ticks": 3, "sandbox": [], "actions": [
                    ("login", 0, 1, None, -1, 0, 0, 1),
                    ("login", 0, 2, None, 1, 1, 1, 2),
                ]},
                lambda seen: seen["scrape_log"]["columns"]["new_events"]
                == [2, 1, 2],
            ),
            # hijack (not blocked: the abuse draw for b passes), lockout,
            # then a reset clears it and the hijacker's row, unread while
            # locked out, drains at the next tick; both attacker logins
            # after the hijack fail
            (
                {"accounts": 2, "ticks": 8, "sandbox": [], "actions": [
                    ("hijack", 1, 1, 3600.0, 0, 0, 0, 1),
                    ("login", 1, 3, 60.0, 0, 1, 3, 0),
                    ("reset", 1, 4, 10.0, 0, 0, 0, 0),
                    ("login", 1, 6, None, 1, 2, 1, 1),
                ]},
                lambda seen: seen["failure_log"]["length"] == 1
                and len(seen["listener_calls"]) == 3
                and 2 in seen["scrape_log"]["columns"]["new_events"],
            ),
            # a lockout, then the scraper is handed the hijacker's
            # password: only that re-sync wakes the account again
            (
                {"accounts": 2, "ticks": 8, "sandbox": [], "actions": [
                    ("hijack", 1, 1, 3600.0, 0, 0, 0, 1),
                    ("resync", 1, 4, 10.0, 0, 0, 0, 0),
                ]},
                lambda seen: seen["failure_log"]["length"] == 1
                # a: every tick; b: before the lockout and from the
                # tick after the re-sync
                and seen["scrape_log"]["columns"]["outcome"].count("ok")
                == 8 + 1 + 4,
            ),
            # sandbox rows stamped after the first ticks, a monitor IP
            # registered mid-run and a block
            (
                {"accounts": 3, "ticks": 8, "actions": [
                    ("monitor_ip", 0, 2, 5.0, 0, 0, 0, 0),
                    ("block", 1, 4, None, -1, 0, 0, 0),
                ], "sandbox": [(0, 5 * PERIOD + 1.0, 0), (2, 0.0, 1)]},
                lambda seen: len(seen["monitor_ips"]) == 4
                and "blocked" in seen["scrape_log"]["columns"]["outcome"],
            ),
            # long quiet stretches on armed accounts broken by a bare
            # password change (no page append: the account hook alone
            # wakes it), a defender reset (new cookie, re-arming) and a
            # late monitor IP, spilled in small chunks
            (
                {"accounts": 6, "ticks": 20, "sandbox": [],
                 "telemetry": "spilled", "actions": [
                    ("password", 2, 9, 100.0, 0, 0, 0, 0),
                    ("reset", 4, 11, None, -1, 0, 0, 0),
                    ("login", 0, 12, 50.0, 0, 1, 0, 1),
                    ("login", 5, 12, 60.0, 0, 2, 1, 2),
                    ("monitor_ip", 0, 17, 1.0, 0, 0, 0, 0),
                ]},
                lambda seen: seen["failure_log"]["length"] == 1
                # six scraper cookies, a fresh one after the reset and
                # the two attackers'
                and len(set(seen["accesses"]["columns"]["cookie_id"])) == 9
                and len(seen["chunks"][0]) > 10,
            ),
            # a block and a reset of armed accounts in one tick
            (
                {"accounts": 4, "ticks": 12, "sandbox": [], "actions": [
                    ("block", 1, 7, None, -1, 0, 0, 0),
                    ("reset", 3, 7, None, -1, 0, 0, 0),
                ]},
                lambda seen: "blocked"
                in seen["scrape_log"]["columns"]["outcome"],
            ),
        ],
        ids=[
            "on-tick",
            "lockout-reset",
            "lockout-resync",
            "sandbox-ip-block",
            "quiet-stretches-spilled",
            "block-reset-sink",
        ],
    )
    def test_named_worlds(self, world, reached):
        fast = run_world(world, MonitorInfrastructure)
        assert fast == run_world(world, ReferenceMonitor)
        assert reached(fast)


# ----------------------------------------------------------------------
# the visit itself
# ----------------------------------------------------------------------
@pytest.fixture()
def one_account(geo):
    sim = Simulator()
    service = WebmailService(geo, derive_rng(77, "test-service"))
    service.create_account(Credentials(ADDRESSES[0], PASSWORD), "A")
    monitor = MonitorInfrastructure(
        sim, service, geo, city_by_name("Reading"), scrape_period=PERIOD
    )
    monitor.watch(ADDRESSES[0], PASSWORD)
    monitor.start()
    return sim, service, monitor


class TestScrapeVisit:
    def test_opens_no_session_and_writes_nothing_to_the_page(self, one_account):
        sim, service, monitor = one_account
        sim.run_until(5 * PERIOD)
        assert len(monitor.scrape_log_store) == 5
        assert len(monitor.access_store) == 5
        assert service.sessions.sessions_for(ADDRESSES[0]) == []
        assert service.activity.event_count(ADDRESSES[0]) == 0

    def test_self_row_counts_as_a_new_event(self, one_account, geo):
        sim, service, monitor = one_account

        def attacker():
            context = LoginContext(
                "atk", geo.allocate_in_city(city_by_name("Paris")), ""
            )
            service.login(ADDRESSES[0], PASSWORD, context, sim.now)

        sim.schedule_at(hours(1), attacker)
        sim.run_until(2 * PERIOD)
        assert monitor.scrape_log_store.values("new_events") == [2, 1]
        store = monitor.access_store
        assert store.values("city") == ["Paris", "Reading", "Reading"]
        assert store.values("ip_address")[1] in monitor.monitor_ip_strings

    def test_cookie_generation_bump_changes_the_self_row(self, one_account):
        sim, service, monitor = one_account
        sim.run_until(PERIOD)
        sim.schedule_at(
            PERIOD + 1.0,
            lambda: service.sessions.bump_cookie_generation(ADDRESSES[0]),
        )
        sim.run_until(2 * PERIOD)
        before, after = monitor.access_store.values("cookie_id")
        assert before != after
        assert after == service.sessions.cookie_for(
            "monitor-browser", ADDRESSES[0]
        ).value

    def test_login_checks_through_authenticate(self, service, geo):
        service.create_account(Credentials(ADDRESSES[0], PASSWORD), "A")
        calls = []
        original = service.authenticate

        def spy(*args):
            calls.append(args[0])
            return original(*args)

        service.authenticate = spy
        context = LoginContext(
            "dev", geo.allocate_in_city(city_by_name("Paris")), ""
        )
        service.login(ADDRESSES[0], PASSWORD, context, 1.0)
        with pytest.raises(AuthenticationError):
            service.login(ADDRESSES[0], "wrong", context, 2.0)
        assert calls == [ADDRESSES[0], ADDRESSES[0]]

    def test_authenticate_opens_nothing(self, service, geo):
        account = service.create_account(
            Credentials(ADDRESSES[0], PASSWORD), "A"
        )
        context = LoginContext(
            "dev", geo.allocate_in_city(city_by_name("Paris")), ""
        )
        assert service.authenticate(
            ADDRESSES[0], PASSWORD, context, 1.0
        ) is account
        assert service.sessions.sessions_for(ADDRESSES[0]) == []
        assert service.activity.event_count(ADDRESSES[0]) == 0


class TestUnknownAccount:
    def test_watch_raises(self, one_account):
        _, _, monitor = one_account
        with pytest.raises(NoSuchAccountError):
            monitor.watch("nobody@gmail.example", PASSWORD)
        assert "nobody@gmail.example" not in monitor._watched
