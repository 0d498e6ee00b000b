"""Tests for repro.attackers.actions and agent."""

import random

import pytest

from repro.attackers import actions
from repro.attackers.agent import AttackerAgent
from repro.attackers.personas import (
    CuriousPolicy,
    GoldDiggerPolicy,
    HijackerPolicy,
    SpammerPolicy,
)
from repro.attackers.sophistication import (
    AttackerProfile,
    SophisticationLevel,
    TaxonomyClass,
)
from repro.core.groups import OutletKind
from repro.netsim.anonymity import AnonymityNetwork, OriginKind
from repro.netsim.cities import city_by_name
from repro.netsim.useragents import UserAgentFactory
from repro.sim.clock import days, hours
from repro.sim.engine import Simulator
from repro.webmail.account import Credentials
from repro.webmail.mailbox import Folder
from repro.webmail.message import EmailMessage
from repro.webmail.service import LoginContext, WebmailService

PASSWORD = "leaked-pass1"


@pytest.fixture()
def world(geo):
    sim = Simulator()
    service = WebmailService(geo, random.Random(3))
    service.create_account(
        Credentials("prey@gmail.example", PASSWORD), "Prey"
    )
    account = service.account("prey@gmail.example")
    for i in range(6):
        topic = "payment account statement" if i % 2 else "meeting agenda"
        account.mailbox.add(
            Folder.INBOX,
            EmailMessage(
                sender_name="C",
                sender_address="c@corp.example",
                recipient_addresses=(account.address,),
                subject=f"note {i}",
                body=topic,
                received_at=-float(i + 1),
            ),
        )
    anonymity = AnonymityNetwork(
        geo, random.Random(4), tor_exit_count=5, proxy_count=5
    )
    return sim, service, anonymity


def login_session(service, geo, now=0.0):
    context = LoginContext(
        device_id="test-dev",
        ip_address=geo.allocate_in_city(city_by_name("Paris")),
        user_agent="",
    )
    return service.login("prey@gmail.example", PASSWORD, context, now)


class TestActions:
    def test_gold_dig_reads_and_searches(self, world, geo, rng):
        sim, service, _ = world
        session = login_session(service, geo)
        queries, reads = actions.act_gold_dig(service, session, rng, 10.0)
        assert queries, "at least one search issued"
        assert all(q in actions.SENSITIVE_SEARCH_TERMS for q in queries)
        assert service.search_log, "searches hit the provider log"

    def test_spam_stops_when_blocked(self, world, geo):
        sim, service, _ = world
        service.abuse.policy = type(service.abuse.policy)(
            burst_threshold=5, spam_block_probability=1.0
        )
        session = login_session(service, geo)
        sent = actions.act_send_spam(
            service, session, random.Random(1), 10.0,
            email_count=50, burst_seconds=60.0,
        )
        assert sent < 50
        assert service.account("prey@gmail.example").is_blocked

    def test_hijack_changes_password(self, world, geo, rng):
        sim, service, _ = world
        session = login_session(service, geo)
        new_password = actions.act_hijack(service, session, rng, 10.0)
        account = service.account("prey@gmail.example")
        assert account.verify_password(new_password)
        assert not account.verify_password(PASSWORD)

    def test_read_recent(self, world, geo, rng):
        sim, service, _ = world
        session = login_session(service, geo)
        read = actions.act_read_recent(service, session, rng, 10.0)
        assert read >= 1


#: The paper's dispatch order: gold-digging runs every visit, hijack and
#: spam trigger on the first one.
CLASS_POLICIES = (
    (TaxonomyClass.GOLD_DIGGER, GoldDiggerPolicy),
    (TaxonomyClass.HIJACKER, HijackerPolicy),
    (TaxonomyClass.SPAMMER, SpammerPolicy),
)


def policies_for(classes):
    """The policy chain for a bare taxonomy-class set."""
    policies = [
        factory() for taxonomy_class, factory in CLASS_POLICIES
        if taxonomy_class in classes
    ]
    return policies or [CuriousPolicy()]


def make_agent(world, geo, classes, origin=OriginKind.DIRECT, seed=9,
               hide_ua=False, visits=1):
    sim, service, anonymity = world
    profile = AttackerProfile(
        attacker_id=f"atk-{seed}",
        outlet=OutletKind.PASTE,
        classes=classes,
        level=SophisticationLevel.MEDIUM,
        origin=origin,
        origin_city="Paris" if origin is OriginKind.DIRECT else None,
        hide_user_agent=hide_ua,
        location_malleable=False,
        android_device=False,
        infected_host=False,
        visits=visits,
        visit_span_days=5.0 if visits > 1 else 0.0,
    )
    return AttackerAgent(
        profile,
        "prey@gmail.example",
        PASSWORD,
        sim=sim,
        service=service,
        geo=geo,
        anonymity=anonymity,
        ua_factory=UserAgentFactory(random.Random(seed)),
        rng=random.Random(seed),
        policies=policies_for(classes),
    )


class TestAgent:
    def test_curious_leaves_only_access_trace(self, world, geo):
        sim, service, _ = world
        agent = make_agent(
            world, geo, frozenset({TaxonomyClass.CURIOUS})
        )
        agent.schedule(hours(1), [])
        sim.run_until(days(1))
        assert agent.outcome.logins_succeeded >= 1
        assert agent.outcome.emails_read == 0
        events = service.activity.events_for("prey@gmail.example")
        assert len(events) >= 1

    def test_gold_digger_reads(self, world, geo):
        sim, service, _ = world
        agent = make_agent(
            world, geo, frozenset({TaxonomyClass.GOLD_DIGGER})
        )
        agent.schedule(hours(1), [])
        sim.run_until(days(1))
        assert agent.outcome.searches

    def test_hijacker_can_return_after_change(self, world, geo):
        sim, service, _ = world
        agent = make_agent(
            world, geo, frozenset({TaxonomyClass.HIJACKER}), visits=2
        )
        agent.schedule(hours(1), [days(2)])
        sim.run_until(days(5))
        assert agent.outcome.hijacked
        assert agent.outcome.logins_succeeded == agent.outcome.logins_attempted

    def test_other_attacker_locked_out_after_hijack(self, world, geo):
        sim, service, _ = world
        hijacker = make_agent(
            world, geo, frozenset({TaxonomyClass.HIJACKER}), seed=1
        )
        late_visitor = make_agent(
            world, geo, frozenset({TaxonomyClass.CURIOUS}), seed=2
        )
        hijacker.schedule(hours(1), [])
        late_visitor.schedule(days(2), [])
        sim.run_until(days(3))
        assert hijacker.outcome.hijacked
        assert late_visitor.outcome.logins_succeeded == 0

    def test_same_device_reuses_cookie(self, world, geo):
        sim, service, _ = world
        agent = make_agent(
            world, geo, frozenset({TaxonomyClass.CURIOUS}), visits=3
        )
        agent.schedule(hours(1), [days(1), days(1)])
        sim.run_until(days(4))
        events = service.activity.events_for("prey@gmail.example")
        cookies = {str(e.cookie) for e in events}
        assert len(cookies) == 1

    def test_hidden_user_agent_recorded_empty(self, world, geo):
        sim, service, _ = world
        agent = make_agent(
            world, geo, frozenset({TaxonomyClass.CURIOUS}), hide_ua=True
        )
        agent.schedule(hours(1), [])
        sim.run_until(days(1))
        event = service.activity.events_for("prey@gmail.example")[-1]
        assert event.fingerprint.user_agent == ""

    def test_tor_origin_has_no_location(self, world, geo):
        sim, service, _ = world
        agent = make_agent(
            world, geo, frozenset({TaxonomyClass.CURIOUS}),
            origin=OriginKind.TOR,
        )
        agent.schedule(hours(1), [])
        sim.run_until(days(1))
        event = service.activity.events_for("prey@gmail.example")[-1]
        assert event.location is None

    def test_spammer_sends(self, world, geo):
        sim, service, _ = world
        agent = make_agent(
            world,
            geo,
            frozenset({TaxonomyClass.SPAMMER, TaxonomyClass.GOLD_DIGGER}),
        )
        agent.schedule(hours(1), [])
        sim.run_until(days(2))
        assert agent.outcome.emails_sent > 0
