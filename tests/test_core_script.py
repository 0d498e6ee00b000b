"""Tests for repro.core.script (the honey monitoring script)."""

import math

import pytest

from repro.core.notifications import NotificationKind
from repro.core.script import HoneyMonitorScript
from repro.errors import ConfigurationError
from repro.sim.clock import days, hours
from repro.webmail.account import Credentials, WebmailAccount
from repro.webmail.mailbox import Folder
from repro.webmail.message import EmailMessage


@pytest.fixture()
def account():
    return WebmailAccount(
        credentials=Credentials("honey@gmail.example", "pw123456"),
        display_name="Honey Pot",
    )


@pytest.fixture()
def sink():
    records = []
    return records


def make_script(account, sink, **kwargs):
    return HoneyMonitorScript(account, sink.append, **kwargs)


def add_inbox(account, subject="hello", body="world"):
    return account.mailbox.add(
        Folder.INBOX,
        EmailMessage(
            sender_name="B",
            sender_address="b@x.example",
            recipient_addresses=(account.address,),
            subject=subject,
            body=body,
            received_at=0.0,
        ),
    )


class TestChangeReporting:
    def test_read_reported_with_content(self, account, sink):
        message = add_inbox(account, "secret", "payment details")
        script = make_script(account, sink)
        script.run(now=0.0)  # heartbeat only; 'received' not reported
        account.mailbox.mark_read(message.message_id)
        script.run(now=600.0)
        reads = [n for n in sink if n.kind is NotificationKind.READ]
        assert len(reads) == 1
        assert reads[0].body_copy == "secret\npayment details"
        assert reads[0].timestamp == 600.0

    def test_starred_reported_without_content(self, account, sink):
        message = add_inbox(account)
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.star(message.message_id)
        script.run(600.0)
        starred = [n for n in sink if n.kind is NotificationKind.STARRED]
        assert len(starred) == 1
        assert starred[0].body_copy == ""

    def test_draft_ships_copy(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.add(
            Folder.DRAFTS,
            EmailMessage(
                sender_name="H", sender_address=account.address,
                recipient_addresses=("v@x.example",),
                subject="ransom", body="pay in bitcoin",
                received_at=100.0,
            ),
        )
        script.run(600.0)
        drafts = [n for n in sink if n.kind is NotificationKind.DRAFT]
        assert len(drafts) == 1
        assert "bitcoin" in drafts[0].body_copy

    def test_sent_reported(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.add(
            Folder.SENT,
            EmailMessage(
                sender_name="H", sender_address=account.address,
                recipient_addresses=("v@x.example",),
                subject="spam", body="offer",
                received_at=100.0,
            ),
        )
        script.run(600.0)
        assert any(n.kind is NotificationKind.SENT for n in sink)

    def test_received_not_reported(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        add_inbox(account)
        script.run(600.0)
        kinds = {n.kind for n in sink}
        assert kinds <= {NotificationKind.HEARTBEAT}

    def test_each_change_reported_once(self, account, sink):
        message = add_inbox(account)
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.mark_read(message.message_id)
        script.run(600.0)
        script.run(1200.0)
        reads = [n for n in sink if n.kind is NotificationKind.READ]
        assert len(reads) == 1


class TestHeartbeat:
    def test_daily_heartbeat(self, account, sink):
        script = make_script(account, sink, heartbeat_period=days(1))
        for tick in range(0, 49):  # 10-minute scans for 2 days
            script.run(tick * hours(1))
        beats = [n for n in sink if n.kind is NotificationKind.HEARTBEAT]
        assert len(beats) == 3  # t=0, t=24h, t=48h

    def test_heartbeat_stops_when_blocked(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        account.block("spam", 1.0)
        script.run(days(1))
        beats = [n for n in sink if n.kind is NotificationKind.HEARTBEAT]
        assert len(beats) == 1  # only the pre-block beat


class TestBlockedAccount:
    def test_no_reports_after_block(self, account, sink):
        message = add_inbox(account)
        script = make_script(account, sink)
        script.run(0.0)
        account.block("tos", 1.0)
        account.mailbox.mark_read(message.message_id)
        script.run(600.0)
        assert not any(n.kind is NotificationKind.READ for n in sink)

    def test_scan_counter(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        script.run(600.0)
        assert script.scan_count == 2


def test_heartbeat_period_must_be_finite(account, sink):
    # The runtime wakes an idle script at its next heartbeat; a period
    # that never elapses would leave it nothing to wake at.
    with pytest.raises(ConfigurationError):
        make_script(account, sink, heartbeat_period=math.inf)
