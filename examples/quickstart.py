#!/usr/bin/env python3
"""Quickstart: provision honey accounts, leak them, watch an attacker.

Builds a miniature world by hand (no experiment orchestration) so every
moving part of the public API is visible: the webmail provider, an
instrumented honey account, the monitoring script, and a single simulated
attacker whose actions surface in the notification stream and on the
activity page.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.groups import paper_leak_plan
from repro.core.honeyaccount import HoneyAccountFactory
from repro.core.monitor import MonitorInfrastructure
from repro.core.sinkhole import SINKHOLE_ADDRESS, SinkholeMailServer
from repro.netsim.cities import city_by_name
from repro.netsim.geo import GeoDatabase
from repro.sim.clock import days, hours
from repro.sim.engine import Simulator
from repro.sim.rng import derive_rng
from repro.webmail.appsscript import AppsScriptRuntime
from repro.webmail.service import LoginContext, WebmailService


def main() -> None:
    seed = 7
    sim = Simulator()
    geo = GeoDatabase(derive_rng(seed, "geo"))
    service = WebmailService(geo, derive_rng(seed, "service"))
    sinkhole = SinkholeMailServer()
    service.router.register_sink(SINKHOLE_ADDRESS, sinkhole)
    monitor = MonitorInfrastructure(
        sim, service, geo, city_by_name("Reading"), scrape_period=hours(6)
    )
    runtime = AppsScriptRuntime(sim)

    # 1. Provision one instrumented honey account.
    factory = HoneyAccountFactory(
        service,
        runtime,
        monitor.notification_sink,
        derive_rng(seed, "provision"),
        emails_per_account=(40, 60),
    )
    group = paper_leak_plan().group("paste_popular_noloc")
    honey = factory.provision(group)
    monitor.watch(honey.address, honey.leaked_credentials.password)
    monitor.start()
    print(f"honey account: {honey.address}")
    print(f"seeded emails: {honey.seeded_email_count}")

    # 2. A 'gold digger' finds the credentials and pokes around.
    def attacker_visit() -> None:
        context = LoginContext(
            device_id="attacker-laptop",
            ip_address=geo.allocate_in_city(city_by_name("Bucharest")),
            user_agent=(
                "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 "
                "(KHTML, like Gecko) Chrome/43.0.2357 Safari/537.36"
            ),
        )
        session = service.login(
            honey.address,
            honey.leaked_credentials.password,
            context,
            sim.now,
        )
        for term in ("payment", "account", "statement", "invoice"):
            results = service.search(session, term, sim.now)
            if results:
                service.read_message(
                    session, results[0].message_id, sim.now
                )
                service.star_message(
                    session, results[0].message_id, sim.now
                )
                break
        # Trying to send mail is futile: the honey account routes all
        # outbound mail to the researchers' sinkhole.
        service.send_email(
            session, "test", "does this work?",
            ("accomplice@elsewhere.example",), sim.now,
        )

    sim.schedule_at(days(2), attacker_visit, label="attacker")

    # 3. Run three days of simulated time and inspect what we caught.
    sim.run_until(days(3))

    print("\nscript notifications received:")
    # Both stores hand rows back as plain tuples in schema order.
    for kind, _, timestamp, _, subject, _ in (
        monitor.notification_store.iter_rows()
    ):
        if kind in ("read", "starred"):
            print(f"  t={timestamp / 3600:7.1f}h {kind:<8} {subject[:48]}")

    print("\nscraped accesses (after removing monitor rows):")
    for (_, cookie, ip, city, *_, browser, _, _) in (
        monitor.access_store.iter_rows()
    ):
        if ip in monitor.monitor_ip_strings:
            continue
        print(f"  cookie={cookie[:14]}... city={city} browser={browser}")

    print(f"\nmail sinkholed (never delivered): {len(sinkhole.dumped)}")


if __name__ == "__main__":
    main()
