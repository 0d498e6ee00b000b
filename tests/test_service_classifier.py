"""The online classifier: wire schema, rolling state, parity, snapshots."""

import json

import pytest

from repro.analysis.accesses import extract_unique_accesses
from repro.analysis.taxonomy import TaxonomyLabel, classify_accesses, label_counts
from repro.errors import ValidationError
from repro.service import (
    OnlineClassifier,
    classification_fingerprint,
    events_from_dataset,
    ingest_all,
    meta_event,
    validate_event,
)
from repro.sim.clock import hours


def access_event(
    account="alice@example.com",
    cookie="c1",
    ip="10.0.0.1",
    city="Lagos",
    country="NG",
    timestamp=1000.0,
    **overrides,
):
    record = {
        "type": "access",
        "account_address": account,
        "cookie_id": cookie,
        "ip_address": ip,
        "city": city,
        "country": country,
        "latitude": 6.5 if city else None,
        "longitude": 3.4 if city else None,
        "device_kind": "desktop",
        "os_family": "linux",
        "browser": "firefox",
        "user_agent": "UA",
        "timestamp": timestamp,
    }
    record.update(overrides)
    return record


def notification_event(kind, account="alice@example.com", timestamp=1200.0):
    return {
        "type": "notification",
        "kind": kind,
        "account_address": account,
        "timestamp": timestamp,
        "message_id": "m1",
        "subject": "s",
        "body_copy": "",
    }


def lockout_event(account="alice@example.com", timestamp=2000.0):
    return {"type": "lockout", "address": account, "timestamp": timestamp}


#: Records that carry every field but mistype one, each named by the
#: field a rejection must name.  Before the wire schema was
#: type-checked, each of them reached the WAL and then made
#: ``OnlineClassifier.ingest`` raise, so the service could not restart.
MISTYPED = {
    "scan_period": {"type": "meta", "scan_period": "two hours"},
    "monitor_ips": {"type": "meta", "monitor_ips": 5},
    "country": access_event(country=["GB"]),
}


# ----------------------------------------------------------------------
# wire schema
# ----------------------------------------------------------------------


def test_validate_accepts_all_event_shapes():
    for record in (
        meta_event(monitor_ips=["1.2.3.4"], monitor_city="London"),
        access_event(),
        notification_event("read"),
        lockout_event(),
    ):
        assert validate_event(record) is record


def test_validate_rejects_non_objects_and_unknown_types():
    with pytest.raises(ValidationError):
        validate_event(["not", "an", "object"])
    with pytest.raises(ValidationError, match="unknown event type"):
        validate_event({"type": "telemetry"})


def test_validate_rejects_missing_fields_and_bad_timestamps():
    record = access_event()
    del record["cookie_id"]
    with pytest.raises(ValidationError, match="cookie_id"):
        validate_event(record)
    with pytest.raises(ValidationError, match="timestamp"):
        validate_event(access_event(timestamp="late"))
    with pytest.raises(ValidationError, match="timestamp"):
        validate_event(access_event(timestamp=True))


@pytest.mark.parametrize(
    "record, field",
    [
        *(
            pytest.param(record, field, id=f"found-{field}")
            for field, record in MISTYPED.items()
        ),
        pytest.param(access_event(city=7), "city", id="intern"),
        pytest.param(access_event(cookie_id=None), "cookie_id", id="key-null"),
        pytest.param(
            access_event(account_address=None), "account_address",
            id="key-null-account",
        ),
        pytest.param(
            {**notification_event("read"), "kind": None}, "kind",
            id="key-null-kind",
        ),
        pytest.param(access_event(latitude="6.5"), "latitude", id="opt_f64"),
        pytest.param(
            access_event(longitude=False), "longitude", id="opt_f64-bool"
        ),
        pytest.param(
            {**notification_event("read"), "subject": 3}, "subject",
            id="notification",
        ),
        pytest.param(lockout_event(account={"a": 1}), "address", id="lockout"),
        pytest.param(
            {"type": "meta", "monitor_ips": ["1.2.3.4", 5]}, "monitor_ips",
            id="meta-ip",
        ),
        pytest.param(
            {"type": "meta", "monitor_city": ["London"]}, "monitor_city",
            id="meta-city",
        ),
        pytest.param(
            {"type": "meta", "scan_period": 0}, "scan_period", id="meta-zero"
        ),
        pytest.param(
            {"type": "meta", "scan_period": float("inf")}, "scan_period",
            id="meta-inf",
        ),
        pytest.param(
            {"type": "meta", "scan_period": True}, "scan_period",
            id="meta-bool",
        ),
    ],
)
def test_validate_type_checks_every_field(record, field):
    with pytest.raises(ValidationError, match=field):
        validate_event(record)


def test_validate_accepts_nulls_ints_and_free_form_bodies():
    for record in (
        access_event(city=None, country=None, timestamp=1000),
        {**notification_event("read"), "body_copy": {"any": ["json"]}},
        {"type": "meta", "monitor_ips": None, "scan_period": None},
        {"type": "meta"},
        meta_event(monitor_ips=[], scan_period=7200),
    ):
        assert validate_event(record) is record


# ----------------------------------------------------------------------
# rolling classification
# ----------------------------------------------------------------------


def test_curious_is_the_default_label():
    classifier = OnlineClassifier()
    classifier.ingest(access_event())
    [item] = classifier.classified()
    assert item.labels == {TaxonomyLabel.CURIOUS}
    assert item.access.observation_count == 1


def test_actions_inside_the_span_label_the_access():
    classifier = OnlineClassifier(scan_period=hours(2))
    classifier.ingest(access_event(timestamp=1000.0))
    classifier.ingest(access_event(timestamp=5000.0))
    classifier.ingest(notification_event("read", timestamp=2000.0))
    classifier.ingest(notification_event("sent", timestamp=3000.0))
    classifier.ingest(notification_event("draft", timestamp=4000.0))
    [item] = classifier.classified()
    assert item.labels == {
        TaxonomyLabel.GOLD_DIGGER,
        TaxonomyLabel.SPAMMER,
    }
    assert (item.attributed_reads, item.attributed_sends,
            item.attributed_drafts) == (1, 1, 1)


def test_non_action_notifications_only_count():
    classifier = OnlineClassifier()
    classifier.ingest(access_event())
    classifier.ingest(notification_event("heartbeat", timestamp=1001.0))
    assert classifier.notifications_ingested == 1
    assert classifier.actions_ingested == 0
    [item] = classifier.classified()
    assert item.labels == {TaxonomyLabel.CURIOUS}


def test_lockout_labels_the_nearest_preceding_access_hijacker():
    classifier = OnlineClassifier()
    classifier.ingest(access_event(cookie="c1", timestamp=1000.0))
    classifier.ingest(access_event(cookie="c2", timestamp=9000.0))
    classifier.ingest(lockout_event(timestamp=9500.0))
    by_cookie = {
        item.access.cookie_id: item for item in classifier.classified()
    }
    assert TaxonomyLabel.HIJACKER in by_cookie["c2"].labels
    assert TaxonomyLabel.HIJACKER not in by_cookie["c1"].labels


def test_meta_event_cleans_monitor_rows_retroactively():
    classifier = OnlineClassifier()
    classifier.ingest(access_event(ip="9.9.9.9"))
    assert len(classifier.classified()) == 1
    # Rows that arrive after the meta event are dropped on ingest;
    # the pre-meta row stays (the WAL replays meta first in practice).
    classifier.ingest(meta_event(monitor_ips=["9.9.9.9"]))
    classifier.ingest(access_event(ip="9.9.9.9", timestamp=1500.0))
    assert classifier.cleaned_rows == 1
    [item] = classifier.classified()
    assert item.access.observation_count == 1


def test_monitor_city_rows_are_cleaned():
    classifier = OnlineClassifier(monitor_city="London")
    classifier.ingest(access_event(city="London", country="GB"))
    classifier.ingest(access_event(city="Lagos", timestamp=1100.0))
    assert classifier.cleaned_rows == 1
    [item] = classifier.classified()
    assert item.access.city == "Lagos"


def test_arrival_order_does_not_change_the_classification():
    events = [
        access_event(cookie="c1", timestamp=1000.0),
        access_event(cookie="c1", ip="10.0.0.2", timestamp=1800.0),
        access_event(cookie="c2", timestamp=50_000.0, city=None,
                     country=None),
        notification_event("read", timestamp=1500.0),
        notification_event("sent", timestamp=50_500.0),
        lockout_event(timestamp=51_000.0),
    ]
    forward = OnlineClassifier()
    ingest_all(forward, events)
    backward = OnlineClassifier()
    ingest_all(backward, reversed(events))
    assert forward.fingerprint() == backward.fingerprint()


# ----------------------------------------------------------------------
# parity with the batch pipeline (shared session run)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def parity(experiment_result):
    dataset = experiment_result.dataset
    scan_period = experiment_result.config.scan_period
    batch = classify_accesses(
        dataset,
        extract_unique_accesses(dataset),
        scan_period=scan_period,
    )
    online = OnlineClassifier()
    ingest_all(
        online, events_from_dataset(dataset, scan_period=scan_period)
    )
    return batch, online


def test_online_equals_batch_field_for_field(parity):
    batch, online = parity
    assert classification_fingerprint(batch) == online.fingerprint()
    items = online.classified()
    assert len(items) == len(batch)
    ordered = sorted(
        batch,
        key=lambda c: (
            c.access.t0,
            c.access.account_address,
            c.access.cookie_id,
        ),
    )
    for expected, actual in zip(ordered, items):
        assert expected.access == actual.access
        assert expected.labels == actual.labels


def test_online_label_totals_match_batch(parity):
    batch, online = parity
    assert online.label_totals() == label_counts(batch)


def test_unique_accesses_match_batch_extraction(parity, experiment_result):
    _, online = parity
    expected = sorted(
        extract_unique_accesses(experiment_result.dataset),
        key=lambda a: (a.t0, a.account_address, a.cookie_id),
    )
    assert online.unique_accesses() == expected


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------


def test_snapshot_round_trips_through_json(parity):
    _, online = parity
    payload = json.loads(json.dumps(online.to_dict()))
    restored = OnlineClassifier.from_dict(payload)
    assert restored.fingerprint() == online.fingerprint()
    assert restored.events_ingested == online.events_ingested
    assert restored.cleaned_rows == online.cleaned_rows


def test_snapshot_mid_stream_continues_identically():
    events = [
        access_event(cookie=f"c{i}", timestamp=1000.0 * (i + 1))
        for i in range(6)
    ] + [
        notification_event("read", timestamp=2500.0),
        lockout_event(timestamp=6500.0),
    ]
    reference = OnlineClassifier()
    ingest_all(reference, events)

    partial = OnlineClassifier()
    ingest_all(partial, events[:4])
    resumed = OnlineClassifier.from_dict(
        json.loads(json.dumps(partial.to_dict()))
    )
    ingest_all(resumed, events[4:])
    assert resumed.fingerprint() == reference.fingerprint()
