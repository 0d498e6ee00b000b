"""WAL durability, JSONL sink reopen, and service checkpoint restore."""

import json

import pytest

from repro.errors import DegradedError, ServiceError, ValidationError
from repro.faults import FaultPlan, FaultRule
from repro.service import (
    OnlineClassifier,
    ServiceState,
    WriteAheadLog,
    replay_wal,
    restore_service_state,
    write_service_checkpoint,
)
from repro.service.checkpoint import (
    SERVICE_CHECKPOINT_VERSION,
    load_service_checkpoint,
)
from repro.telemetry.sinks import JsonlSink, _truncate_partial_tail
from test_service_classifier import MISTYPED, access_event, notification_event


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------


def test_wal_appends_and_replays_in_order(tmp_path):
    path = tmp_path / "events.wal"
    wal = WriteAheadLog(path)
    records = [access_event(timestamp=float(i)) for i in range(5)]
    positions = [wal.append([r]) for r in records]
    assert positions == [1, 2, 3, 4, 5]
    wal.close()
    assert list(replay_wal(path)) == records
    assert list(replay_wal(path, start=3)) == records[3:]


def test_wal_resume_continues_the_journal(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append([access_event(timestamp=1.0)])
    resumed = WriteAheadLog(path, resume=True)
    assert resumed.position == 1
    resumed.append([access_event(timestamp=2.0)])
    resumed.close()
    assert len(list(replay_wal(path))) == 2


def test_wal_replay_ignores_a_torn_tail(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append([access_event(timestamp=1.0)])
        wal.append([access_event(timestamp=2.0)])
    with path.open("a") as handle:
        handle.write('{"type": "access", "trunc')
    assert len(list(replay_wal(path))) == 2


def test_wal_resume_truncates_the_torn_tail(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append([access_event(timestamp=1.0)])
    with path.open("a") as handle:
        handle.write('{"partial')
    resumed = WriteAheadLog(path, resume=True)
    assert resumed.position == 1
    resumed.append([access_event(timestamp=2.0)])
    resumed.close()
    replayed = list(replay_wal(path))
    assert [r["timestamp"] for r in replayed] == [1.0, 2.0]


def test_wal_replay_survives_a_tail_torn_mid_multibyte_utf8(tmp_path):
    # A crash can cut the final line anywhere — including between the
    # bytes of one UTF-8 code point.  Replay must skip the tail, not
    # die decoding it (the old text-mode reader raised
    # UnicodeDecodeError before it could see the missing newline).
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append([access_event(timestamp=1.0)])
    torn = '{"type": "access", "city": "café"}'.encode("utf-8")
    with path.open("ab") as handle:
        handle.write(torn[:-3])  # cut inside the é's two bytes
    replayed = list(replay_wal(path))
    assert [r["timestamp"] for r in replayed] == [1.0]
    resumed = WriteAheadLog(path, resume=True)
    assert resumed.position == 1
    resumed.append([access_event(timestamp=2.0)])
    resumed.close()
    assert len(list(replay_wal(path))) == 2


def test_wal_replay_survives_a_tail_torn_mid_json_escape(tmp_path):
    path = tmp_path / "events.wal"
    with WriteAheadLog(path) as wal:
        wal.append([access_event(timestamp=1.0)])
    with path.open("a") as handle:
        handle.write('{"type": "access", "ua": "quote \\')
    assert len(list(replay_wal(path))) == 1
    resumed = WriteAheadLog(path, resume=True)
    assert resumed.position == 1
    resumed.close()
    assert not path.read_text().rstrip("\n").splitlines()[-1].endswith(
        "\\"
    )


# ----------------------------------------------------------------------
# one WAL line per request
# ----------------------------------------------------------------------


def _group(first=1000.0):
    return [
        access_event(cookie="g1", timestamp=first),
        notification_event("read", timestamp=first + 100.0),
        access_event(cookie="g2", timestamp=first + 200.0),
    ]


def _wal_state(path):
    return ServiceState(OnlineClassifier(), wal=WriteAheadLog(path))


def test_pretty_printed_body_is_one_line_that_replays_equal(tmp_path):
    path = tmp_path / "events.wal"
    records = _group()
    raw = json.dumps(records, indent=2).replace("\n", "\r\n").encode()
    state = _wal_state(path)
    assert state.apply(records, raw) == len(records)
    state.close()
    assert path.read_bytes() == raw.replace(b"\r", b" ").replace(
        b"\n", b" "
    ) + b"\n"
    assert list(replay_wal(path)) == records


def test_non_ascii_body_gets_the_canonical_line(tmp_path):
    path = tmp_path / "events.wal"
    records = [access_event(city="Montréal", timestamp=1000.0)]
    raw = json.dumps(records, ensure_ascii=False).encode("utf-8")
    state = _wal_state(path)
    state.apply(records, raw)
    state.close()
    assert path.read_bytes() == (
        json.dumps(records, sort_keys=True) + "\n"
    ).encode()
    assert list(replay_wal(path)) == records


@pytest.mark.parametrize("k", [0, 2])
def test_validation_error_journals_and_applies_exactly_the_prefix(
    tmp_path, k
):
    path = tmp_path / "events.wal"
    records = _group()
    body = records[:k] + [{"type": "bogus"}] + records[k:]
    state = _wal_state(path)
    with pytest.raises(ValidationError, match="bogus") as caught:
        state.apply(body, json.dumps(body).encode())
    assert caught.value.accepted == k
    assert state.classifier.events_ingested == k
    state.close()
    # An empty prefix writes no line at all.
    prefix = records[:k]
    assert path.read_bytes() == (
        (json.dumps(prefix, sort_keys=True) + "\n").encode() if k else b""
    )
    assert list(replay_wal(path)) == prefix


@pytest.mark.parametrize("field", sorted(MISTYPED))
@pytest.mark.parametrize("k", [0, 2])
def test_mistyped_event_never_reaches_the_wal(tmp_path, field, k):
    path = tmp_path / "events.wal"
    state = _wal_state(path)
    state.apply(_group(), None)
    position = state.wal.position
    records = _group(5000.0)
    body = records[:k] + [MISTYPED[field]] + records[k:]
    with pytest.raises(ValidationError, match=field) as caught:
        state.apply(body, json.dumps(body).encode())
    assert caught.value.accepted == k
    # Only the valid prefix is journaled, as one line of its own.
    assert state.wal.position == position + (1 if k else 0)
    fingerprint = state.classifier.fingerprint()
    stats = state.stats()
    state.close()
    assert list(replay_wal(path)) == _group() + records[:k]
    restored = restore_service_state(path, None)
    assert restored.classifier.fingerprint() == fingerprint
    assert restored.stats() == stats
    restored.close()


def test_degraded_group_leaves_the_wal_byte_for_byte_unchanged(tmp_path):
    path = tmp_path / "events.wal"
    state = _wal_state(path)
    first = _group()
    state.apply(first, json.dumps(first).encode())
    state.flush()
    before = path.read_bytes()
    second = _group(5000.0)
    plan = FaultPlan(
        rules=(FaultRule(site="wal.append", kind="io_error", times=100),)
    )
    with plan.scoped():
        with pytest.raises(DegradedError):
            state.apply(second, json.dumps(second).encode())
    assert state.degraded
    assert state.classifier.events_ingested == len(first)
    assert path.read_bytes() == before
    state.close()
    assert list(replay_wal(path)) == first


def test_old_one_event_lines_then_group_lines_replay_in_order(tmp_path):
    path = tmp_path / "events.wal"
    old = [
        access_event(cookie=f"old{i}", timestamp=10.0 * i) for i in range(3)
    ]
    path.write_bytes(
        b"".join(
            (json.dumps(record, sort_keys=True) + "\n").encode()
            for record in old
        )
    )
    group = _group()
    resumed = WriteAheadLog(path, resume=True)
    assert resumed.position == len(old)
    assert resumed.append(group, json.dumps(group).encode()) == len(old) + 1
    resumed.close()
    assert list(replay_wal(path)) == old + group
    assert list(replay_wal(path, start=len(old))) == group
    restored = restore_service_state(path, None)
    assert restored.classifier.events_ingested == len(old) + len(group)
    restored.close()


def test_checkpoint_between_groups_restores_the_live_state(tmp_path):
    wal_path = tmp_path / "events.wal"
    ckpt_path = tmp_path / "service.ckpt"
    state = _wal_state(wal_path)
    first, second = _group(), _group(9000.0)
    state.apply(first, json.dumps(first).encode())
    write_service_checkpoint(ckpt_path, state)
    state.apply(second, json.dumps(second).encode())
    fingerprint = state.classifier.fingerprint()
    stats = state.stats()
    state.close()

    assert load_service_checkpoint(ckpt_path)["wal_position"] == 1
    restored = restore_service_state(wal_path, ckpt_path)
    assert restored.classifier.fingerprint() == fingerprint
    assert restored.stats() == stats
    restored.close()


# ----------------------------------------------------------------------
# JsonlSink reopen-after-kill (regression)
# ----------------------------------------------------------------------


def test_jsonl_sink_reopen_after_kill_drops_only_the_torn_line(tmp_path):
    path = tmp_path / "stream.jsonl"
    sink = JsonlSink(path)
    sink.write_line(b'{"row": 1}\n')
    sink.write_line(b'{"row": 2}\n')
    sink.close()
    # A killed process leaves a partially flushed final line.
    with path.open("a") as handle:
        handle.write('{"row": 3, "unfin')
    reopened = JsonlSink(path, append=True)
    assert reopened.lines_written == 2
    reopened.write_line(b'{"row": 3}\n')
    reopened.close()
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [{"row": 1}, {"row": 2}, {"row": 3}]


def test_truncate_partial_tail_counts_complete_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"c":')
    assert _truncate_partial_tail(path) == 2
    assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'
    assert _truncate_partial_tail(path) == 2


# ----------------------------------------------------------------------
# service state restore
# ----------------------------------------------------------------------


def _sample_events():
    return [
        access_event(timestamp=1000.0),
        access_event(cookie="c2", timestamp=9000.0),
        notification_event("read", timestamp=1100.0),
    ]


def test_restore_without_checkpoint_replays_the_whole_wal(tmp_path):
    wal_path = tmp_path / "events.wal"
    state = ServiceState(OnlineClassifier(), wal=WriteAheadLog(wal_path))
    for record in _sample_events():
        state.apply([record])
    fingerprint = state.classifier.fingerprint()
    state.close()

    restored = restore_service_state(wal_path, None)
    assert restored.classifier.fingerprint() == fingerprint
    assert restored.wal.position == 3
    restored.close()


def test_restore_replays_only_the_tail_past_the_checkpoint(tmp_path):
    wal_path = tmp_path / "events.wal"
    ckpt_path = tmp_path / "service.ckpt"
    events = _sample_events()
    state = ServiceState(OnlineClassifier(), wal=WriteAheadLog(wal_path))
    state.apply([events[0]])
    write_service_checkpoint(ckpt_path, state)
    for record in events[1:]:
        state.apply([record])
    fingerprint = state.classifier.fingerprint()
    live = state.stats()
    state.close()
    assert live["access_time"]["count"] == 2
    assert live["notifications"]["by_kind"] == {"read": 1}

    restored = restore_service_state(wal_path, ckpt_path)
    assert restored.classifier.fingerprint() == fingerprint
    assert restored.stats() == live
    assert load_service_checkpoint(ckpt_path)["wal_position"] == 1
    restored.close()

    replayed = restore_service_state(wal_path, None)
    assert replayed.stats() == live
    replayed.close()


def test_restore_with_final_record_exactly_at_the_boundary(tmp_path):
    # Checkpoint position == WAL length: the tail replay is empty, and
    # the boundary must read as "nothing to do", not "truncated WAL".
    wal_path = tmp_path / "events.wal"
    ckpt_path = tmp_path / "service.ckpt"
    events = _sample_events()
    state = ServiceState(OnlineClassifier(), wal=WriteAheadLog(wal_path))
    for record in events:
        state.apply([record])
    write_service_checkpoint(ckpt_path, state)
    fingerprint = state.classifier.fingerprint()
    state.close()

    assert load_service_checkpoint(ckpt_path)["wal_position"] == len(
        events
    )
    restored = restore_service_state(wal_path, ckpt_path)
    assert restored.classifier.fingerprint() == fingerprint
    assert restored.wal.position == len(events)
    # And the reopened WAL continues from the boundary.
    restored.apply([access_event(cookie="after", timestamp=9500.0)])
    assert restored.wal.position == len(events) + 1
    restored.close()


def test_restore_refuses_a_wal_shorter_than_the_checkpoint(tmp_path):
    wal_path = tmp_path / "events.wal"
    ckpt_path = tmp_path / "service.ckpt"
    state = ServiceState(OnlineClassifier(), wal=WriteAheadLog(wal_path))
    for record in _sample_events():
        state.apply([record])
    write_service_checkpoint(ckpt_path, state)
    state.close()
    wal_path.write_text(wal_path.read_text().splitlines()[0] + "\n")
    with pytest.raises(ServiceError, match="shorter"):
        restore_service_state(wal_path, ckpt_path)


def test_corrupt_checkpoints_are_rejected(tmp_path):
    path = tmp_path / "service.ckpt"
    path.write_text("not json")
    with pytest.raises(ServiceError, match="corrupt"):
        load_service_checkpoint(path)
    path.write_text(json.dumps({"kind": "something_else"}))
    with pytest.raises(ServiceError, match="not a service checkpoint"):
        load_service_checkpoint(path)
    # A checkpoint of another layout (version 1 kept the dashboard
    # beside the classifier) is refused, not half-read.
    for version in (1, SERVICE_CHECKPOINT_VERSION + 1, None):
        path.write_text(
            json.dumps({"kind": "service_checkpoint", "version": version})
        )
        with pytest.raises(ServiceError, match="has version"):
            load_service_checkpoint(path)
