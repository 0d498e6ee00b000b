"""Tests for repro.core.records, notifications, and the malware channel."""

import random


from _datasets import access_row, fill_dataset
from repro.core.groups import LocationHint, paper_leak_plan
from repro.core.notifications import (
    NotificationKind,
    NotificationRecord,
    heartbeat,
)
from repro.core.records import AccountProvenance, ObservedDataset
from repro.corpus.identity import IdentityFactory
from repro.leaks.formats import leak_content_for
from repro.leaks.malware import MalwareLeakChannel
from repro.leaks.outlet import LeakLedger
from repro.malwaresim.cnc import CncServer
from repro.malwaresim.samples import MalwareSample
from repro.malwaresim.sandbox import SandboxRun
from repro.malwaresim.vm import VirtualMachine
from repro.webmail.account import Credentials


class TestNotifications:
    def test_heartbeat_builder(self):
        record = heartbeat("a@x.example", 42.0)
        assert record.kind is NotificationKind.HEARTBEAT
        assert record.account_address == "a@x.example"
        assert record.timestamp == 42.0
        assert not record.has_content

    def test_has_content(self):
        record = NotificationRecord(
            kind=NotificationKind.READ,
            account_address="a@x.example",
            timestamp=1.0,
            body_copy="hello",
        )
        assert record.has_content


class TestObservedDataset:
    def test_per_account_views(self):
        dataset = fill_dataset(
            ObservedDataset(),
            accesses=[
                access_row(account_address="a@x.example"),
                access_row(account_address="b@x.example"),
            ],
            notifications=[heartbeat("a@x.example", 1.0)],
        )
        assert dataset.access_store.values("account_address") == [
            "a@x.example",
            "b@x.example",
        ]
        assert dataset.notification_store.values("account_address") == [
            "a@x.example"
        ]

    def test_account_addresses(self):
        dataset = ObservedDataset()
        plan = paper_leak_plan()
        dataset.provenance["a@x.example"] = AccountProvenance(
            address="a@x.example",
            group=plan.group("malware"),
            leak_time=1.0,
        )
        assert dataset.account_addresses == ("a@x.example",)


class TestMalwareLeakChannel:
    def make_run(self, exfiltrated=True):
        cnc = CncServer(
            hostname="cnc.badnet.example",
            family="zeus",
            is_alive=True,
            botmaster_id="bm-1",
        )
        sample = MalwareSample("z1", "zeus", cnc)
        credential = Credentials("victim@gmail.example", "p123456")
        vm = VirtualMachine("vm-1", created_at=0.0)
        exfiltration = (
            cnc.receive_exfiltration(credential, 10.0, 20.0)
            if exfiltrated
            else None
        )
        return SandboxRun(
            vm=vm,
            sample=sample,
            credential=credential,
            login_succeeded=True,
            exfiltration=exfiltration,
            started_at=0.0,
            finished_at=900.0,
        )

    def _content_and_group(self):
        plan = paper_leak_plan()
        group = plan.group("malware")
        identity = IdentityFactory(random.Random(1)).create()
        content = leak_content_for(
            identity,
            Credentials("victim@gmail.example", "p123456"),
            LocationHint.NONE,
        )
        return content, group

    def test_exfiltrated_run_recorded(self):
        ledger = LeakLedger()
        channel = MalwareLeakChannel(ledger)
        content, group = self._content_and_group()
        event = channel.process_sandbox_run(
            self.make_run(exfiltrated=True), content, group
        )
        assert event is not None
        assert event.leak_time == 20.0  # the moment the C&C received it
        assert event.venue == "malware:zeus"
        assert ledger.first_leak_time("victim@gmail.example") == 20.0
        assert len(channel.botmasters()) == 1

    def test_failed_run_not_recorded(self):
        ledger = LeakLedger()
        channel = MalwareLeakChannel(ledger)
        content, group = self._content_and_group()
        event = channel.process_sandbox_run(
            self.make_run(exfiltrated=False), content, group
        )
        assert event is None
        assert ledger.events == ()
