"""Tests for repro.analysis.keywords, geodist, durations helpers."""

import pytest

from _datasets import access_row, fill_dataset
from repro.analysis.accesses import extract_unique_accesses
from repro.analysis.durations import time_to_first_access
from repro.analysis.geodist import distance_vectors, median_circles
from repro.analysis.keywords import infer_searched_words
from repro.core.groups import paper_leak_plan
from repro.core.notifications import NotificationKind, NotificationRecord
from repro.core.records import AccountProvenance, ObservedDataset
from repro.sim.clock import days


def located_access(account, cookie, lat, lon, city="X", timestamp=0.0):
    return access_row(
        account_address=account,
        cookie_id=cookie,
        ip_address=f"10.0.{len(cookie)}.{abs(hash(cookie)) % 250}",
        city=city,
        country="ZZ",
        latitude=lat,
        longitude=lon,
        timestamp=timestamp,
    )


def make_dataset_with_groups():
    plan = paper_leak_plan()
    dataset = ObservedDataset()
    dataset.monitor_city = "Reading"
    for address, group_name, leak_time in (
        ("p1@x.example", "paste_uk", days(1)),
        ("p2@x.example", "paste_popular_noloc", days(1)),
        ("f1@x.example", "forum_uk", days(2)),
        ("m1@x.example", "malware", days(3)),
    ):
        dataset.provenance[address] = AccountProvenance(
            address=address,
            group=plan.group(group_name),
            leak_time=leak_time,
        )
    return dataset


class TestGeodist:
    def test_categories_and_medians(self):
        dataset = make_dataset_with_groups()
        # Two paste_uk accesses: one in London, one in Paris.
        fill_dataset(dataset, accesses=[
            located_access("p1@x.example", "ck-l", 51.51, -0.13),
            located_access("p1@x.example", "ck-p", 48.86, 2.35),
            located_access("p2@x.example", "ck-n", 40.71, -74.01),
            located_access("m1@x.example", "ck-m", 44.43, 26.10),
        ])
        unique = extract_unique_accesses(dataset)
        vectors = distance_vectors(dataset, unique, "uk")
        assert sorted(vectors) == ["paste_noloc", "paste_uk"]
        assert len(vectors["paste_uk"]) == 2
        assert min(vectors["paste_uk"]) < 10  # the London access
        # Malware accesses never enter the Figure 5 analysis.
        assert all("malware" not in key for key in vectors)

    def test_median_circles(self):
        dataset = make_dataset_with_groups()
        fill_dataset(dataset, accesses=[
            located_access("p1@x.example", f"ck-{i}", 48.86, 2.35)
            for i in range(3)
        ])
        unique = extract_unique_accesses(dataset)
        circles = median_circles(dataset, unique, "uk")
        assert len(circles) == 1
        circle = circles[0]
        assert circle.category == "paste_uk"
        assert circle.radius_km == pytest.approx(344, rel=0.05)
        assert circle.sample_size == 3

    def test_invalid_midpoint(self):
        dataset = make_dataset_with_groups()
        with pytest.raises(ValueError):
            distance_vectors(dataset, [], "moon")


class TestTimeToFirstAccess:
    def test_delays_keyed_by_outlet(self):
        dataset = make_dataset_with_groups()
        fill_dataset(dataset, accesses=[
            located_access(
                "p1@x.example", "ck-1", 51.5, -0.1, timestamp=days(4)
            ),
            located_access(
                "m1@x.example", "ck-2", 44.4, 26.1, timestamp=days(33)
            ),
        ])
        unique = extract_unique_accesses(dataset)
        delays = time_to_first_access(dataset, unique)
        assert delays["paste"] == [pytest.approx(3.0)]
        assert delays["malware"] == [pytest.approx(30.0)]


class TestKeywordInference:
    def make_read_notification(self, body, message="m-1"):
        return NotificationRecord(
            kind=NotificationKind.READ,
            account_address="p1@x.example",
            timestamp=days(5),
            message_id=message,
            subject="s",
            body_copy=body,
        )

    def test_infers_searched_words(self):
        dataset = make_dataset_with_groups()
        dataset.all_email_texts = {
            "p1@x.example": [
                "the company energy report would arrive",
                "please review the company energy transfer",
                "the payment account statement is attached",
            ]
        }
        fill_dataset(dataset, notifications=[
            self.make_read_notification(
                "the payment account statement is attached"
            )
        ])
        inference = infer_searched_words(dataset)
        # The four read-only terms tie; all must outrank corpus words.
        top_terms = [r.term for r in inference.top_searched(4)]
        assert "payment" in top_terms
        assert "energy" not in top_terms
        assert inference.read_message_count == 1

    def test_read_messages_deduplicated(self):
        dataset = make_dataset_with_groups()
        dataset.all_email_texts = {"p1@x.example": ["company energy"]}
        fill_dataset(dataset, notifications=[
            self.make_read_notification("payment payment", "m-1"),
            self.make_read_notification("payment payment", "m-1"),
        ])
        inference = infer_searched_words(dataset)
        assert inference.read_message_count == 1

    def test_honey_handles_excluded(self):
        dataset = make_dataset_with_groups()
        dataset.all_email_texts = {
            "p1@x.example": ["company energy report"]
        }
        # p1/x tokens are short; use a realistic handle-bearing read.
        dataset.provenance["wilbur.henderson@x.example"] = (
            dataset.provenance["p1@x.example"]
        )
        fill_dataset(dataset, notifications=[
            self.make_read_notification("wilbur henderson sent the payment")
        ])
        inference = infer_searched_words(dataset)
        assert "wilbur" not in inference.table
        assert "henderson" not in inference.table
        assert "payment" in inference.table
