"""Tests for repro.analysis.accesses and taxonomy on synthetic datasets."""

from _datasets import access_row, fill_dataset
from repro.analysis.accesses import (
    extract_unique_accesses,
    observed_ip_strings,
)
from repro.analysis.taxonomy import (
    TaxonomyLabel,
    classify_accesses,
    label_counts,
)
from repro.core.notifications import NotificationKind, NotificationRecord
from repro.core.records import ObservedDataset
from repro.sim.clock import hours


def make_access(
    account="a@x.example",
    cookie="ck-1",
    ip="10.0.0.1",
    city="Paris",
    timestamp=0.0,
    user_agent="Mozilla/5.0",
):
    return access_row(
        account_address=account,
        cookie_id=cookie,
        ip_address=ip,
        city=city,
        country="FR" if city else None,
        latitude=48.86 if city else None,
        longitude=2.35 if city else None,
        user_agent=user_agent,
        timestamp=timestamp,
    )


def make_dataset(accesses, notifications=(), failures=()):
    dataset = fill_dataset(
        ObservedDataset(), accesses, notifications, failures
    )
    dataset.monitor_ips = {"10.99.0.1"}
    dataset.monitor_city = "Reading"
    return dataset


class TestCleaning:
    def test_monitor_ip_removed(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-1", ip="10.99.0.1"),
                make_access(cookie="ck-2", ip="10.0.0.2"),
            ]
        )
        cleaned = extract_unique_accesses(dataset)
        assert len(cleaned) == 1
        assert cleaned[0].ip_addresses == ("10.0.0.2",)

    def test_monitor_city_removed(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-1", city="Reading"),
                make_access(cookie="ck-2", city="Paris"),
            ]
        )
        cleaned = extract_unique_accesses(dataset)
        assert [a.city for a in cleaned] == ["Paris"]

    def test_unlocated_rows_kept(self):
        dataset = make_dataset([make_access(city=None)])
        (access,) = extract_unique_accesses(dataset)
        assert not access.has_location


class TestUniqueAccesses:
    def test_cookie_collapse(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-1", timestamp=0.0),
                make_access(cookie="ck-1", timestamp=100.0),
                make_access(cookie="ck-2", timestamp=50.0),
            ]
        )
        unique = extract_unique_accesses(dataset)
        assert len(unique) == 2
        by_cookie = {u.cookie_id: u for u in unique}
        assert by_cookie["ck-1"].duration == 100.0
        assert by_cookie["ck-1"].observation_count == 2
        assert by_cookie["ck-2"].duration == 0.0

    def test_same_cookie_different_accounts_distinct(self):
        dataset = make_dataset(
            [
                make_access(account="a@x.example", cookie="ck-1"),
                make_access(account="b@x.example", cookie="ck-1"),
            ]
        )
        assert len(extract_unique_accesses(dataset)) == 2

    def test_location_from_first_located_row(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-1", city=None, timestamp=0.0),
                make_access(cookie="ck-1", city="Paris", timestamp=10.0),
            ]
        )
        unique = extract_unique_accesses(dataset)[0]
        assert unique.city == "Paris"

    def test_empty_user_agent_flag(self):
        dataset = make_dataset([make_access(user_agent="")])
        assert extract_unique_accesses(dataset)[0].empty_user_agent

    def test_observed_ips(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-1", ip="10.0.0.1"),
                make_access(cookie="ck-2", ip="10.0.0.2"),
            ]
        )
        unique = extract_unique_accesses(dataset)
        assert observed_ip_strings(unique) == {"10.0.0.1", "10.0.0.2"}

    def test_sorted_output(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-2", timestamp=100.0),
                make_access(cookie="ck-1", timestamp=5.0),
            ]
        )
        unique = extract_unique_accesses(dataset)
        assert unique[0].cookie_id == "ck-1"


def notification(kind, account="a@x.example", timestamp=0.0, message="m-1"):
    return NotificationRecord(
        kind=kind,
        account_address=account,
        timestamp=timestamp,
        message_id=message,
        subject="s",
        body_copy="b" if kind is NotificationKind.READ else "",
    )


class TestTaxonomy:
    def test_curious_by_default(self):
        dataset = make_dataset([make_access()])
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset)
        )
        assert classified[0].labels == {TaxonomyLabel.CURIOUS}
        assert classified[0].primary_label is TaxonomyLabel.CURIOUS

    def test_read_makes_gold_digger(self):
        dataset = make_dataset(
            [make_access(timestamp=0.0)],
            [notification(NotificationKind.READ, timestamp=hours(1))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset), scan_period=hours(2)
        )
        assert TaxonomyLabel.GOLD_DIGGER in classified[0].labels
        assert classified[0].attributed_reads == 1

    def test_sent_makes_spammer(self):
        dataset = make_dataset(
            [make_access(timestamp=0.0)],
            [notification(NotificationKind.SENT, timestamp=hours(1))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset), scan_period=hours(2)
        )
        assert TaxonomyLabel.SPAMMER in classified[0].labels

    def test_lockout_makes_hijacker(self):
        dataset = make_dataset(
            [make_access(timestamp=0.0)],
            failures=[("a@x.example", hours(3))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset)
        )
        assert TaxonomyLabel.HIJACKER in classified[0].labels

    def test_lockout_attributed_to_nearest_before(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-early", timestamp=0.0),
                make_access(cookie="ck-late", timestamp=hours(10)),
            ],
            failures=[("a@x.example", hours(11))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset)
        )
        by_cookie = {c.access.cookie_id: c for c in classified}
        assert TaxonomyLabel.HIJACKER in by_cookie["ck-late"].labels
        assert TaxonomyLabel.HIJACKER not in by_cookie["ck-early"].labels

    def test_action_attributed_to_nearest_access(self):
        dataset = make_dataset(
            [
                make_access(cookie="ck-a", timestamp=0.0),
                make_access(cookie="ck-b", timestamp=hours(30)),
            ],
            [notification(NotificationKind.READ, timestamp=hours(30.5))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset), scan_period=hours(2)
        )
        by_cookie = {c.access.cookie_id: c for c in classified}
        assert TaxonomyLabel.GOLD_DIGGER in by_cookie["ck-b"].labels
        assert by_cookie["ck-a"].labels == {TaxonomyLabel.CURIOUS}

    def test_far_notifications_unattributed(self):
        # Activity long after the last observed access (post-lockout
        # behaviour) must not be attributed to anyone.
        dataset = make_dataset(
            [make_access(timestamp=0.0)],
            [notification(NotificationKind.READ, timestamp=hours(200))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset), scan_period=hours(2)
        )
        assert classified[0].labels == {TaxonomyLabel.CURIOUS}

    def test_primary_label_priority(self):
        dataset = make_dataset(
            [make_access(timestamp=0.0)],
            [
                notification(NotificationKind.READ, timestamp=hours(1)),
                notification(
                    NotificationKind.SENT, timestamp=hours(1), message="m-2"
                ),
            ],
            failures=[("a@x.example", hours(2))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset), scan_period=hours(2)
        )
        assert classified[0].primary_label is TaxonomyLabel.SPAMMER
        assert len(classified[0].labels) == 3

    def test_label_counts(self):
        dataset = make_dataset(
            [make_access(timestamp=0.0)],
            [notification(NotificationKind.READ, timestamp=hours(1))],
        )
        classified = classify_accesses(
            dataset, extract_unique_accesses(dataset), scan_period=hours(2)
        )
        counts = label_counts(classified)
        assert counts[TaxonomyLabel.GOLD_DIGGER] == 1
        assert counts[TaxonomyLabel.CURIOUS] == 0
