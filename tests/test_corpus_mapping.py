"""Tests for repro.corpus.mapping."""

from datetime import datetime, timezone

import pytest

from repro.corpus.enron import CORPUS_COMPANY, CorpusGenerator
from repro.corpus.identity import COMPANY_NAME, IdentityFactory
from repro.corpus.mapping import CorpusMapper, MappingConfig
from repro.errors import ConfigurationError
from repro.sim.clock import from_datetime


@pytest.fixture()
def mapped_mailbox(rng):
    generator = CorpusGenerator(rng)
    emails = generator.generate_mailbox(40)
    identity = IdentityFactory(rng).create("uk")
    config = MappingConfig()
    mapper = CorpusMapper(identity, config, rng)
    return identity, config, mapper.map_mailbox(emails)


class TestMapping:
    def test_original_company_gone(self, mapped_mailbox):
        _, config, mapped = mapped_mailbox
        for email in mapped:
            assert CORPUS_COMPANY.lower() not in email.text.lower()

    def test_new_company_present_somewhere(self, mapped_mailbox):
        _, _, mapped = mapped_mailbox
        combined = " ".join(e.text for e in mapped)
        assert COMPANY_NAME in combined

    def test_recipient_is_the_persona(self, mapped_mailbox):
        identity, _, mapped = mapped_mailbox
        assert all(
            e.recipient_addresses == (identity.address,) for e in mapped
        )

    def test_dates_land_in_history_window(self, mapped_mailbox):
        _, config, mapped = mapped_mailbox
        populated = from_datetime(config.populate_time)
        for email in mapped:
            assert email.received_at <= populated
            age_days = (populated - email.received_at) / 86400
            assert age_days <= config.history_span_days + 1

    def test_sorted_by_time(self, mapped_mailbox):
        _, _, mapped = mapped_mailbox
        times = [e.received_at for e in mapped]
        assert times == sorted(times)

    def test_sender_mapping_is_stable(self, rng):
        generator = CorpusGenerator(rng)
        emails = generator.generate_mailbox(60)
        identity = IdentityFactory(rng).create()
        mapper = CorpusMapper(identity, MappingConfig(), rng)
        mapped = mapper.map_mailbox(emails)
        by_original = {}
        for original, rewritten in zip(emails, mapped):
            previous = by_original.setdefault(
                original.sender_name, rewritten.sender_address
            )
            assert previous == rewritten.sender_address

    def test_empty_mailbox(self, rng):
        identity = IdentityFactory(rng).create()
        mapper = CorpusMapper(identity, MappingConfig(), rng)
        assert mapper.map_mailbox([]) == []


class TestMappingConfig:
    def test_invalid_span(self):
        with pytest.raises(ConfigurationError):
            MappingConfig(history_span_days=0)

    def test_naive_populate_time_rejected(self):
        with pytest.raises(ConfigurationError):
            MappingConfig(populate_time=datetime(2015, 6, 20))

    def test_defaults_timezone_aware(self):
        assert MappingConfig().populate_time.tzinfo is timezone.utc
