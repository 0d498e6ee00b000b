"""Tests for repro.core.honeyaccount and sinkhole."""

import pytest

from repro.core.groups import paper_leak_plan
from repro.core.honeyaccount import HoneyAccountFactory
from repro.core.sinkhole import SINKHOLE_ADDRESS, SinkholeMailServer
from repro.sim.engine import Simulator
from repro.sim.rng import derive_rng
from repro.webmail.appsscript import AppsScriptRuntime
from repro.webmail.mailbox import Folder


@pytest.fixture()
def factory(service):
    sim = Simulator()
    runtime = AppsScriptRuntime(sim)
    notifications = []
    factory = HoneyAccountFactory(
        service,
        runtime,
        notifications.append,
        derive_rng(5, "factory"),
        emails_per_account=(30, 40),
    )
    factory.notifications = notifications
    factory.runtime = runtime
    return factory


class TestProvisioning:
    def test_account_created_and_seeded(self, factory, service):
        group = paper_leak_plan().group("paste_popular_noloc")
        honey = factory.provision(group)
        account = service.account(honey.address)
        assert 30 <= account.mailbox.count(Folder.INBOX) <= 40
        assert honey.seeded_email_count == account.mailbox.count(Folder.INBOX)

    def test_seeded_mail_is_unread_history(self, factory):
        group = paper_leak_plan().group("paste_popular_noloc")
        honey = factory.provision(group)
        for message in honey.account.mailbox.messages(Folder.INBOX):
            assert not message.flags.read
            assert message.received_at < 0  # predates the epoch

    def test_sinkhole_override_set(self, factory):
        group = paper_leak_plan().group("forum_noloc")
        honey = factory.provision(group)
        assert honey.account.send_from_override == SINKHOLE_ADDRESS

    def test_suspicious_login_filter_disabled(self, factory):
        group = paper_leak_plan().group("malware")
        honey = factory.provision(group)
        assert honey.account.suspicious_login_filter is False

    def test_script_installed_with_clean_cursor(self, factory):
        group = paper_leak_plan().group("paste_uk")
        honey = factory.provision(group)
        assert honey.script_installation_id > 0
        # The first scan must not replay the seeding as fresh changes.
        honey.script.run(now=0.0)
        kinds = {n.kind.value for n in factory.notifications}
        assert "read" not in kinds and "draft" not in kinds

    def test_location_groups_get_home_cities(self, factory):
        uk = factory.provision(paper_leak_plan().group("paste_uk"))
        us = factory.provision(paper_leak_plan().group("paste_us"))
        noloc = factory.provision(
            paper_leak_plan().group("paste_popular_noloc")
        )
        assert uk.identity.home_city.country == "GB"
        assert us.identity.home_city.country == "US"
        assert noloc.identity.home_city is None

    def test_leaked_credentials_match_account(self, factory, service):
        honey = factory.provision(paper_leak_plan().group("malware"))
        credentials = honey.leaked_credentials
        assert service.account(credentials.address).verify_password(
            credentials.password
        )

    def test_invalid_email_range(self, service):
        with pytest.raises(ValueError):
            HoneyAccountFactory(
                service,
                AppsScriptRuntime(Simulator()),
                lambda n: None,
                derive_rng(5, "x"),
                emails_per_account=(10, 5),
            )


class TestSinkhole:
    def test_dumps_but_never_forwards(self):
        sinkhole = SinkholeMailServer()

        class FakeSent:
            account_address = "a@x.example"

        sent = FakeSent()
        sinkhole.receive(sent)
        assert sinkhole.dumped == (sent,)
        assert sinkhole.dumped_for("a@x.example") == (sent,)
        assert sinkhole.dumped_for("b@x.example") == ()
        assert sinkhole.delivered_to_outside_world == 0
