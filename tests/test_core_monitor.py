"""Tests for repro.core.monitor (scraper + notification store)."""

import pytest

from repro.core.monitor import MonitorInfrastructure, ScrapeOutcome
from repro.netsim.cities import city_by_name
from repro.sim.clock import hours
from repro.sim.engine import Simulator
from repro.webmail.account import Credentials
from repro.webmail.service import LoginContext, WebmailService


PASSWORD = "leakedpass99"


@pytest.fixture()
def world(geo):
    sim = Simulator()
    service = WebmailService(geo, __import__("random").Random(3))
    service.create_account(
        Credentials("target@gmail.example", PASSWORD), "Target"
    )
    monitor = MonitorInfrastructure(
        sim, service, geo, city_by_name("Reading"), scrape_period=hours(6)
    )
    monitor.watch("target@gmail.example", PASSWORD)
    monitor.start()
    return sim, service, monitor


def attacker_login(service, geo, now, device="atk-dev", password=PASSWORD):
    context = LoginContext(
        device_id=device,
        ip_address=geo.allocate_in_city(city_by_name("Paris")),
        user_agent="",
    )
    return service.login("target@gmail.example", password, context, now)


class TestScraping:
    def test_scraper_collects_attacker_accesses(self, world, geo):
        sim, service, monitor = world
        sim.schedule_at(
            hours(1), lambda: attacker_login(service, geo, sim.now)
        )
        sim.run_until(hours(13))
        store = monitor.access_store
        attacker_cities = [
            city
            for ip, city in zip(store.values("ip_address"), store.values("city"))
            if ip not in monitor.monitor_ip_strings
        ]
        assert attacker_cities == ["Paris"]

    def test_scraper_own_accesses_visible_then_excludable(self, world):
        sim, service, monitor = world
        sim.run_until(hours(13))
        own_rows = [
            ip
            for ip in monitor.access_store.values("ip_address")
            if ip in monitor.monitor_ip_strings
        ]
        assert own_rows, "the scraper's own logins appear on the page"

    def test_incremental_scraping_no_duplicates(self, world, geo):
        sim, service, monitor = world
        sim.schedule_at(
            hours(1), lambda: attacker_login(service, geo, sim.now)
        )
        sim.run_until(hours(25))
        cities = monitor.access_store.values("city")
        assert cities.count("Paris") == 1

    def test_lockout_on_password_change(self, world, geo):
        sim, service, monitor = world

        def hijack():
            session = attacker_login(service, geo, sim.now)
            service.change_password(session, "newpass77", sim.now)

        sim.schedule_at(hours(1), hijack)
        sim.run_until(hours(30))
        assert monitor.locked_out_accounts() == ["target@gmail.example"]
        assert monitor.failure_log
        address, when = monitor.failure_log.row(0)
        assert address == "target@gmail.example"
        assert when >= hours(6)
        outcomes = monitor.scrape_log_store.values("outcome")
        assert ScrapeOutcome.LOCKED_OUT.value in outcomes

    def test_no_scraping_after_lockout(self, world, geo):
        sim, service, monitor = world

        def hijack():
            session = attacker_login(service, geo, sim.now)
            service.change_password(session, "newpass77", sim.now)

        sim.schedule_at(hours(1), hijack)
        sim.run_until(hours(48))
        outcomes = monitor.scrape_log_store.values("outcome")
        # not retried every period
        assert outcomes.count(ScrapeOutcome.LOCKED_OUT.value) == 1

    def test_blocked_account_outcome(self, world):
        sim, service, monitor = world
        service.account("target@gmail.example").block("spam", hours(2))
        sim.run_until(hours(13))
        outcomes = set(monitor.scrape_log_store.values("outcome"))
        assert outcomes == {ScrapeOutcome.BLOCKED.value}

    def test_stop_halts_scraping(self, world):
        sim, service, monitor = world
        sim.run_until(hours(7))
        scrapes_before = len(monitor.scrape_log_store)
        monitor.stop()
        sim.run_until(hours(48))
        assert len(monitor.scrape_log_store) == scrapes_before


class TestNotificationStore:
    def test_sink_appends(self, world):
        _, _, monitor = world
        from repro.core.notifications import heartbeat

        monitor.notification_sink(heartbeat("target@gmail.example", 1.0))
        assert len(monitor.notification_store) == 1

    def test_register_extra_monitor_ip(self, world, geo):
        _, _, monitor = world
        extra = geo.allocate_in_city(city_by_name("Reading"))
        monitor.register_monitor_ip(extra)
        assert str(extra) in monitor.monitor_ip_strings
