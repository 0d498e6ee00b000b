"""The asyncio ingestion API: routes, validation, drain, SIGTERM.

In-thread tests drive a live server over ``http.client``; the
graceful-shutdown test runs ``python -m repro serve`` as a real
subprocess, kills it with SIGTERM mid-ingest, and checks that the
drained WAL + shutdown checkpoint restore to the exact classifier
state an uninterrupted ingest produces.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service import (
    OnlineClassifier,
    ReproService,
    ServiceState,
    WriteAheadLog,
    ingest_all,
    restore_service_state,
    run_service,
)
from test_service_classifier import (
    MISTYPED,
    access_event,
    lockout_event,
    meta_event,
    notification_event,
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


class LiveServer:
    """A ReproService running on a background thread."""

    def __init__(self, tmp_path, *, wal=True, checkpoint=True):
        wal_path = tmp_path / "events.wal" if wal else None
        self.checkpoint_path = (
            tmp_path / "service.ckpt" if checkpoint else None
        )
        self.state = ServiceState(
            OnlineClassifier(),
            wal=WriteAheadLog(wal_path) if wal_path else None,
        )
        self.service = ReproService(
            self.state, checkpoint_path=self.checkpoint_path
        )
        self.url = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=run_service,
            args=(self.service,),
            kwargs={"announce": self._announce},
        )

    def _announce(self, line):
        self.url = line.split("serving on ", 1)[1]
        self._ready.set()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server did not start"
        return self

    def __exit__(self, *exc_info):
        if self._thread.is_alive():
            self.request("POST", "/shutdown")
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()

    def request(self, method, path, body=None):
        host, port = self.url.split("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(
            host, int(port), timeout=10
        )
        try:
            connection.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()


@pytest.fixture()
def server(tmp_path):
    with LiveServer(tmp_path) as live:
        yield live


def test_healthz_and_unknown_routes(server):
    assert server.request("GET", "/healthz") == (200, {"status": "ok"})
    status, body = server.request("GET", "/nope")
    assert status == 404
    assert "no route" in body["error"]
    status, _ = server.request("DELETE", "/events")
    assert status == 405


def test_events_accepts_single_objects_and_arrays(server):
    status, body = server.request("POST", "/events", access_event())
    assert (status, body["accepted"]) == (200, 1)
    status, body = server.request(
        "POST",
        "/events",
        [notification_event("read"), lockout_event()],
    )
    assert (status, body["accepted"]) == (200, 2)
    assert body["total_events"] == 3


def test_invalid_events_report_the_accepted_prefix(server):
    status, body = server.request(
        "POST",
        "/events",
        [access_event(), {"type": "bogus"}, access_event()],
    )
    assert status == 400
    assert body["accepted"] == 1
    assert "bogus" in body["error"]
    # The valid prefix was journaled and counted.
    assert server.state.classifier.events_ingested == 1


@pytest.mark.parametrize(
    "timestamp",
    [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["NaN", "Infinity", "-Infinity", "too-large-int"],
)
def test_non_finite_timestamps_are_a_400(server, timestamp):
    # json.dumps writes NaN/Infinity bare, and json.loads reads them
    # back as floats: the body is what a careless client would send.
    server.request("POST", "/events", access_event())
    position = server.state.wal.position
    status, body = server.request(
        "POST", "/events", access_event(cookie="c2", timestamp=timestamp)
    )
    assert status == 400
    assert body["accepted"] == 0
    assert "timestamp must be finite" in body["error"]
    assert server.state.wal.position == position
    status, stats = server.request("GET", "/stats")
    assert status == 200
    assert stats["access_time"]["count"] == 1


@pytest.mark.parametrize("field", sorted(MISTYPED))
def test_mistyped_events_are_a_400_that_keeps_the_connection(tmp_path, field):
    with LiveServer(tmp_path) as live:
        live.request("POST", "/events", [meta_event(), access_event()])
        position = live.state.wal.position
        host, port = live.url.split("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            body = [access_event(cookie="c2"), MISTYPED[field]]
            connection.request("POST", "/events", body=json.dumps(body))
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["accepted"] == 1
            assert field in payload["error"]
            # The same keep-alive connection still serves requests.
            connection.request("GET", "/stats")
            response = connection.getresponse()
            stats = json.loads(response.read())
            assert response.status == 200
        finally:
            connection.close()
        assert stats["events"]["total"] == 3
        assert stats["wal_position"] == position + 1
    for checkpoint in (tmp_path / "service.ckpt", None):
        restored = restore_service_state(tmp_path / "events.wal", checkpoint)
        assert json.loads(json.dumps(restored.stats())) == stats
        restored.close()


def test_malformed_json_is_a_400(server):
    host, port = server.url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request("POST", "/events", body=b"{nope")
        response = connection.getresponse()
        assert response.status == 400
        assert b"bad JSON" in response.read()
    finally:
        connection.close()


def _raw_post(server, body, content_length):
    """POST ``body`` under a hand-set Content-Length header."""
    host, port = server.url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.putrequest("POST", "/events")
        connection.putheader("Content-Length", content_length)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_non_numeric_content_length_is_a_400(server):
    status, body = _raw_post(server, b"[]", "two")
    assert (status, body["accepted"]) == (400, 0)
    assert "Content-Length" in body["error"]
    assert server.request("GET", "/healthz")[0] == 200


def test_negative_content_length_is_a_400(server):
    status, body = _raw_post(server, b"", "-5")
    assert (status, body["accepted"]) == (400, 0)
    assert "Content-Length" in body["error"]
    assert server.request("GET", "/healthz")[0] == 200


def test_non_utf8_body_is_a_400(server):
    status, body = _raw_post(server, b'["\xff"]', "5")
    assert (status, body["accepted"]) == (400, 0)
    assert "UTF-8" in body["error"]
    assert server.state.classifier.events_ingested == 0
    assert server.state.wal.position == 0


@pytest.mark.parametrize("where", ["request line", "header"])
def test_overlong_lines_are_a_431(server, where):
    # 70,000 bytes outruns the 64 KiB asyncio StreamReader line limit.
    padding = "a" * 70_000
    host, port = server.url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        if where == "request line":
            connection.putrequest("GET", f"/healthz?{padding}")
        else:
            connection.putrequest("GET", "/healthz")
            connection.putheader("X-Padding", padding)
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 431
        assert "too long" in json.loads(response.read())["error"]
    finally:
        connection.close()
    assert server.request("GET", "/healthz")[0] == 200


def test_stats_reflects_ingested_events(server):
    server.request(
        "POST",
        "/events",
        [
            meta_event(monitor_ips=["1.1.1.1"]),
            access_event(timestamp=86400.0),
            access_event(cookie="c2", timestamp=172800.0, city=None,
                         country=None),
            notification_event("read", timestamp=86500.0),
            notification_event("heartbeat", timestamp=90000.0),
            lockout_event(timestamp=180000.0),
        ],
    )
    status, stats = server.request("GET", "/stats")
    assert status == 200
    assert stats["events"]["total"] == 6
    assert stats["events"]["by_type"] == {
        "meta": 1, "access": 2, "notification": 2, "lockout": 1,
    }
    assert stats["accesses"]["rows"] == 2
    assert stats["accesses"]["unique"] == 2
    assert stats["accesses"]["by_country"] == [
        ["NG", 1], ["unlocated", 1],
    ]
    assert stats["notifications"]["actions"] == 1
    assert stats["lockouts"] == 1
    assert stats["labels"]["gold_digger"] == 1
    assert stats["labels"]["hijacker"] == 1
    # One WAL line per POST, however many events it carried.
    assert stats["wal_position"] == 1
    assert stats["access_time"]["first_day"] == pytest.approx(1.0)
    assert stats["access_time"]["last_day"] == pytest.approx(2.0)


def test_keep_alive_serves_multiple_requests_per_connection(server):
    host, port = server.url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        for _ in range(3):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
    finally:
        connection.close()


def test_oversized_bodies_are_rejected(server):
    host, port = server.url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.putrequest("POST", "/events")
        connection.putheader("Content-Length", str(64 * 1024 * 1024))
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 413
    finally:
        connection.close()


def test_shutdown_writes_the_checkpoint(tmp_path):
    with LiveServer(tmp_path) as live:
        live.request("POST", "/events", access_event())
        checkpoint_path = live.checkpoint_path
    assert checkpoint_path.exists()
    restored = restore_service_state(
        tmp_path / "events.wal", checkpoint_path
    )
    assert restored.classifier.events_ingested == 1
    restored.close()


# ----------------------------------------------------------------------
# SIGTERM graceful shutdown (real subprocess)
# ----------------------------------------------------------------------


def _post(url, payload):
    host, port = url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request("POST", "/events", body=json.dumps(payload))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_sigterm_drains_flushes_and_resumes_identically(tmp_path):
    wal_path = tmp_path / "events.wal"
    checkpoint_path = tmp_path / "service.ckpt"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--wal", str(wal_path),
            "--checkpoint", str(checkpoint_path),
        ],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline()
        assert "serving on " in line, line
        url = line.split("serving on ", 1)[1].strip()

        events = [meta_event()] + [
            access_event(
                account=f"user{i % 7}@example.com",
                cookie=f"c{i % 3}",
                timestamp=1000.0 * (i + 1),
            )
            for i in range(200)
        ] + [
            notification_event("read", account="user1@example.com",
                               timestamp=2500.0),
            lockout_event(account="user2@example.com",
                          timestamp=150_000.0),
        ]
        status, body = _post(url, events[:50])
        assert (status, body["accepted"]) == (200, 50)

        # Put the second batch fully on the wire, THEN deliver the
        # SIGTERM; the in-flight request must drain to a 200 before
        # the process exits.
        host, port = url.split("//", 1)[1].split(":")
        connection = http.client.HTTPConnection(
            host, int(port), timeout=30
        )
        try:
            connection.request(
                "POST", "/events", body=json.dumps(events[50:])
            )
            process.send_signal(signal.SIGTERM)
            response = connection.getresponse()
            body = json.loads(response.read())
            assert (response.status, body["accepted"]) == (
                200, len(events) - 50,
            )
        finally:
            connection.close()
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    assert checkpoint_path.exists()
    restored = restore_service_state(wal_path, checkpoint_path)
    reference = OnlineClassifier()
    ingest_all(reference, events)
    assert restored.classifier.fingerprint() == reference.fingerprint()
    # Two acknowledged requests, two WAL lines.
    assert restored.wal.position == 2
    restored.close()


def test_serve_restart_replays_the_wal_tail(tmp_path):
    events = [meta_event()] + [
        access_event(cookie=f"c{i}", timestamp=1000.0 * (i + 1))
        for i in range(10)
    ]
    with LiveServer(tmp_path) as live:
        live.request("POST", "/events", events[:6])
    # Restart against the same WAL + checkpoint; the tail past the
    # checkpoint (nothing here — shutdown checkpointed everything)
    # plus new events continue the same state.
    restored = restore_service_state(
        tmp_path / "events.wal", tmp_path / "service.ckpt"
    )
    service = ReproService(restored)
    for record in events[6:]:
        restored.apply([record])
    reference = OnlineClassifier()
    ingest_all(reference, events)
    assert restored.classifier.fingerprint() == reference.fingerprint()
    assert service.state is restored
    restored.close()
