"""Tests for the repro.telemetry columnar event-log spine."""

import json
import pickle

import pytest

from _datasets import access_row, fill_dataset
from repro.core.monitor import MonitorInfrastructure
from repro.core.notifications import (
    NotificationKind,
    NotificationRecord,
    heartbeat,
)
from repro.core.records import ObservedDataset
from repro.netsim.cities import city_by_name
from repro.sim.clock import hours
from repro.sim.engine import Simulator
from repro.telemetry import (
    AccessStore,
    EventLog,
    Field,
    NotificationStore,
    StringTable,
    write_jsonl,
)
from repro.telemetry.spill import spill_manifest
from repro.webmail.account import Credentials
from repro.webmail.activity import ActivityPage
from repro.webmail.service import LoginContext, WebmailService


def make_access(account="a@x.example", cookie="ck-1", timestamp=0.0,
                city="Paris"):
    return access_row(
        account_address=account,
        cookie_id=cookie,
        city=city,
        country="FR" if city else None,
        latitude=48.86 if city else None,
        longitude=2.35 if city else None,
        timestamp=timestamp,
    )


class TestStringTable:
    def test_intern_is_idempotent(self):
        table = StringTable()
        first = table.intern("hello")
        assert table.intern("hello") == first
        assert table.lookup(first) == "hello"

    def test_none_reserved(self):
        table = StringTable()
        assert table.intern(None) == 0
        assert table.lookup(0) is None

    def test_id_of_never_grows(self):
        table = StringTable()
        assert table.id_of("absent") is None
        assert len(table) == 1

    def test_round_trips(self):
        table = StringTable()
        for value in ("a", "b", "c"):
            table.intern(value)
        rebuilt = StringTable.from_list(table.to_list())
        assert rebuilt.to_list() == table.to_list()
        assert rebuilt.id_of("b") == table.id_of("b")
        pickled = pickle.loads(pickle.dumps(table))
        assert pickled.to_list() == table.to_list()
        assert pickled.intern("d") == len(table.to_list())


class TestEventLog:
    SCHEMA = (
        Field("name", "intern"),
        Field("value", "f64"),
        Field("count", "i64"),
        Field("maybe", "opt_f64"),
        Field("payload", "obj"),
    )

    def make_log(self):
        log = EventLog(self.SCHEMA)
        log.append(("alpha", 1.5, 3, None, "p1"))
        log.append(("beta", 2.5, 4, 7.25, "p2"))
        return log

    def test_row_round_trip(self):
        log = self.make_log()
        assert log.row(0) == ("alpha", 1.5, 3, None, "p1")
        assert log.row(1) == ("beta", 2.5, 4, 7.25, "p2")
        assert log[-1] == log.row(1)
        assert list(log) == [log.row(0), log.row(1)]

    def test_row_length_checked(self):
        log = EventLog(self.SCHEMA)
        with pytest.raises(ValueError):
            log.append(("too", "short"))

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            EventLog(())

    def test_columns_and_values(self):
        log = self.make_log()
        assert log.values("name") == ["alpha", "beta"]
        assert log.values("maybe") == [None, 7.25]
        assert list(log.column("count").data) == [3, 4]

    def test_cursor_reads_only_new(self):
        # A reader keeps its own position and reads by index: rows
        # appended after a read are exactly the rows past that position.
        log = self.make_log()
        first = list(log.iter_rows())
        position = len(log)
        assert len(first) == 2
        log.append(("gamma", 0.0, 0, None, None))
        fresh = [log.row(i) for i in range(position, len(log))]
        assert fresh == [("gamma", 0.0, 0, None, None)]
        assert list(log.iter_rows()) == first + fresh

    def test_json_round_trip(self):
        log = self.make_log()
        payload = json.loads(json.dumps(log.to_json_dict()))
        rebuilt = EventLog.from_json_dict(payload)
        assert list(rebuilt) == list(log)
        assert rebuilt.schema == log.schema

    def test_pickle_round_trip_and_appendable(self):
        log = self.make_log()
        rebuilt = pickle.loads(pickle.dumps(log))
        assert list(rebuilt) == list(log)
        rebuilt.append(("gamma", 3.5, 5, 1.0, None))
        assert len(rebuilt) == 3

    @pytest.mark.parametrize("chunk_rows", [None, 4])
    def test_extend_matches_appending_row_by_row(self, tmp_path, chunk_rows):
        rows = [
            (f"n{i % 3}", i / 2, i, None if i % 2 else i * 1.5, f"p{i}")
            for i in range(11)
        ]
        single = EventLog(self.SCHEMA)
        bulk = EventLog(self.SCHEMA, strings=single.strings)
        if chunk_rows is not None:
            single.configure_spill(tmp_path / "single", chunk_rows=chunk_rows)
            bulk.configure_spill(tmp_path / "bulk", chunk_rows=chunk_rows)
        for row in rows:
            single.append(row)
        bulk.append(rows[0])
        raw = [single.raw_row(i) for i in range(1, len(rows))]
        assert bulk.extend(bulk.raw_columns(raw)) == 1
        assert list(bulk) == list(single) == rows
        if chunk_rows is not None:
            assert (
                spill_manifest(bulk)["chunk_counts"]
                == spill_manifest(single)["chunk_counts"]
                == [4, 4, 3]
            )

    def test_extend_checks_column_shape(self):
        log = self.make_log()
        columns = log.raw_columns([log.raw_row(0)])
        with pytest.raises(ValueError):
            log.extend(columns[:-1])
        columns[0] = columns[0] * 2
        with pytest.raises(ValueError):
            log.extend(columns)
        assert len(log) == 2


class TestJsonlSink:
    def test_write_jsonl_one_shot(self, tmp_path):
        store = NotificationStore()
        store.append_fields("read", "a@x", 1.0, "m1", "s", "body")
        store.append_fields("sent", "b@x", 2.5, "m2", "t", None)
        path = write_jsonl(store, tmp_path / "n.jsonl")
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            dict(zip(store.field_names(), row)) for row in store
        ]
        # Keys are sorted, so the export bytes do not depend on the
        # schema's field order.
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True)


class TestTypedStores:
    def test_access_store_row_round_trips(self):
        store = AccessStore()
        access = make_access()
        store.append_fields(*access)
        assert store.row(0) == access
        assert list(store.iter_rows()) == [access]

    def test_shared_string_table(self):
        strings = StringTable()
        access = AccessStore(strings=strings)
        notes = NotificationStore(strings=strings)
        access.append_fields(*[
            "a@x", "ck", "ip", None, None, None, None,
            "desktop", "os", "browser", "ua", 1.0,
        ])
        notes.append_fields("read", "a@x", 2.0, "m", "s", "b")
        assert strings.id_of("a@x") is not None
        assert access.account_ids[0] == notes.account_ids[0]

    def test_store_rows_index_and_slice(self):
        store = AccessStore()
        rows = [
            make_access(cookie=f"ck-{i}", timestamp=float(i))
            for i in range(3)
        ]
        for row in rows:
            store.append_fields(*row)
        assert len(store) == 3
        assert store.row(0) == rows[0]
        assert store.row(-1) == store[-1] == rows[2]
        assert store[1:] == rows[1:]
        with pytest.raises(IndexError):
            store.row(3)


class TestObservedDatasetColumnar:
    def test_assign_and_read_back(self):
        rows = [make_access(cookie="ck-1"), make_access(cookie="ck-2")]
        dataset = fill_dataset(
            ObservedDataset(),
            accesses=rows,
            notifications=[heartbeat("a@x.example", 1.0)],
            failures=[("a@x.example", 5.0)],
        )
        assert list(dataset.access_store.iter_rows()) == rows
        assert dataset.notification_store.row(0)[0] == (
            NotificationKind.HEARTBEAT.value
        )
        assert dataset.failure_log.row(0) == ("a@x.example", 5.0)

    def test_pickle_round_trip(self):
        dataset = fill_dataset(
            ObservedDataset(),
            accesses=[make_access()],
            notifications=[heartbeat("a@x.example", 1.0)],
        )
        dataset.monitor_ips = {"10.9.9.9"}
        dataset.monitor_city = "Reading"
        rebuilt = pickle.loads(pickle.dumps(dataset))
        assert list(rebuilt.access_store.iter_rows()) == list(
            dataset.access_store.iter_rows()
        )
        assert list(rebuilt.notification_store.iter_rows()) == list(
            dataset.notification_store.iter_rows()
        )
        assert rebuilt.monitor_ips == {"10.9.9.9"}

    def test_json_round_trip(self):
        from repro.core.groups import paper_leak_plan
        from repro.core.records import AccountProvenance

        dataset = fill_dataset(
            ObservedDataset(),
            accesses=[make_access(), make_access(city=None)],
            notifications=[
                NotificationRecord(
                    kind=NotificationKind.READ,
                    account_address="a@x.example",
                    timestamp=2.0,
                    message_id="m-1",
                    subject="hi",
                    body_copy="text",
                )
            ],
            failures=[("a@x.example", 3.0)],
        )
        dataset.provenance["a@x.example"] = AccountProvenance(
            address="a@x.example",
            group=paper_leak_plan().group("malware"),
            leak_time=1.0,
        )
        dataset.monitor_ips = {"10.0.0.9"}
        dataset.monitor_city = "Reading"
        dataset.all_email_texts = {"a@x.example": ["seed text"]}
        dataset.blocked_accounts = [("a@x.example", 9.0)]
        payload = json.loads(json.dumps(dataset.to_json_dict()))
        rebuilt = ObservedDataset.from_json_dict(payload)
        assert list(rebuilt.access_store.iter_rows()) == list(
            dataset.access_store.iter_rows()
        )
        assert list(rebuilt.notification_store.iter_rows()) == list(
            dataset.notification_store.iter_rows()
        )
        assert list(rebuilt.failure_log.iter_rows()) == [
            ("a@x.example", 3.0)
        ]
        assert rebuilt.provenance.keys() == dataset.provenance.keys()
        assert rebuilt.provenance["a@x.example"].group.name == "malware"
        assert rebuilt.blocked_accounts == [("a@x.example", 9.0)]


class TestActivityPageCursors:
    def make_event(self, timestamp):
        from repro.netsim.fingerprint import DeviceFingerprint, DeviceKind
        from repro.webmail.activity import AccessEvent
        from repro.webmail.sessions import Cookie

        return AccessEvent(
            account_address="a@x.example",
            cookie=Cookie(f"c-{timestamp}"),
            ip_address="10.0.0.1",
            location=None,
            fingerprint=DeviceFingerprint(
                kind=DeviceKind.DESKTOP,
                os_family="Linux",
                browser="firefox",
                user_agent="UA",
            ),
            timestamp=timestamp,
        )

    def test_read_from_advances(self):
        page = ActivityPage()
        for t in (1.0, 2.0):
            page.record(self.make_event(t))
        events, cursor = page.read_from("a@x.example", 0)
        assert [e.timestamp for e in events] == [1.0, 2.0]
        events, cursor = page.read_from("a@x.example", cursor)
        assert events == ()
        page.record(self.make_event(3.0))
        events, cursor = page.read_from("a@x.example", cursor)
        assert [e.timestamp for e in events] == [3.0]
        assert cursor == 3

    def test_read_from_unknown_account(self):
        page = ActivityPage()
        assert page.read_from("nobody@x", 0) == ((), 0)


class TestMonitorTelemetry:
    PASSWORD = "leakedpass99"

    def make_world(self, geo):
        sim = Simulator()
        service = WebmailService(geo, __import__("random").Random(3))
        service.create_account(
            Credentials("target@gmail.example", self.PASSWORD), "Target"
        )
        monitor = MonitorInfrastructure(
            sim, service, geo, city_by_name("Reading"),
            scrape_period=hours(6),
        )
        monitor.watch("target@gmail.example", self.PASSWORD)
        monitor.start()
        return sim, service, monitor

    def test_notification_counts(self, geo):
        _, _, monitor = self.make_world(geo)
        monitor.notification_sink(heartbeat("target@gmail.example", 1.0))
        monitor.notification_sink(heartbeat("target@gmail.example", 2.0))
        assert monitor.notification_counts == {"heartbeat": 2}

    def test_spill_telemetry_streams_jsonl(self, geo, tmp_path):
        sim, service, monitor = self.make_world(geo)

        def attacker_login():
            context = LoginContext(
                device_id="atk-dev",
                ip_address=geo.allocate_in_city(city_by_name("Paris")),
                user_agent="",
            )
            service.login(
                "target@gmail.example", self.PASSWORD, context, sim.now
            )

        sim.schedule_at(hours(1), attacker_login)
        sim.run_until(hours(13))
        monitor.stop()
        paths = [
            write_jsonl(store, tmp_path / f"{name}.jsonl")
            for name, store in (
                ("accesses", monitor.access_store),
                ("notifications", monitor.notification_store),
            )
        ]
        lines = paths[0].read_text().strip().splitlines()
        assert len(lines) == len(monitor.access_store)
        cities = [json.loads(line)["city"] for line in lines]
        assert "Paris" in cities
        # Exporting leaves the stores appendable (they live on inside
        # the run's dataset after the zero-copy handoff).
        monitor.notification_sink(heartbeat("target@gmail.example", 99.0))

    def test_scrape_uses_cursor_not_rescans(self, geo):
        sim, service, monitor = self.make_world(geo)
        sim.run_until(hours(19))
        watched = monitor._watched["target@gmail.example"]
        assert watched.cursor == service.activity.event_count(
            "target@gmail.example"
        )
        # No duplicate ingestion across scrapes: with no other client
        # on the page, each visit adds exactly its own login row.
        assert len(monitor.access_store) == len(monitor.scrape_log_store)
        assert len(monitor.access_store) > 1

    def test_stores_share_one_string_table(self, geo):
        _, _, monitor = self.make_world(geo)
        assert monitor.access_store.strings is monitor.telemetry_strings
        assert (
            monitor.notification_store.strings is monitor.telemetry_strings
        )
        assert monitor.scrape_log_store.strings is monitor.telemetry_strings
        assert monitor.failure_log.strings is monitor.telemetry_strings
