"""Tests for repro.corpus.enron and repro.corpus.wordbank."""

import random

import pytest

from repro.corpus import wordbank
from repro.corpus.enron import CorpusGenerator
from repro.errors import ConfigurationError


class TestWordbank:
    def test_topic_weights_align(self):
        assert len(wordbank.topic_names()) == len(wordbank.topic_weights())

    def test_topic_weights_sum_to_one(self):
        assert sum(wordbank.topic_weights()) == pytest.approx(1.0)

    def test_topic_vocabulary_lookup(self):
        assert "payment" in wordbank.topic_vocabulary("finance")
        assert "family" in wordbank.topic_vocabulary("personal")

    def test_unknown_topic(self):
        with pytest.raises(KeyError):
            wordbank.topic_vocabulary("astrology")

    def test_bitcoin_terms_absent_from_topics(self):
        # The seeded corpus must not contain bitcoin vocabulary (it enters
        # only via the blackmailer case study, as in the paper).
        for topic in wordbank.topic_names():
            vocab = set(wordbank.topic_vocabulary(topic))
            assert not vocab & set(wordbank.BITCOIN_TERMS)

    def test_sensitive_words_meet_length_filter(self):
        for word in wordbank.SENSITIVE_FINANCIAL + wordbank.SENSITIVE_PERSONAL:
            assert len(word) >= 5


class TestCorpusGenerator:
    def test_deterministic(self):
        a = CorpusGenerator(random.Random(3)).generate_mailbox(20)
        b = CorpusGenerator(random.Random(3)).generate_mailbox(20)
        assert [e.text for e in a] == [e.text for e in b]

    def test_sorted_by_time(self, rng):
        emails = CorpusGenerator(rng).generate_mailbox(50)
        times = [e.sent_at for e in emails]
        assert times == sorted(times)

    def test_topic_distribution_roughly_weighted(self):
        generator = CorpusGenerator(random.Random(11))
        emails = generator.generate_mailbox(2000)
        stats = CorpusGenerator.stats(emails)
        trading_share = stats.topic_counts["trading"] / len(emails)
        finance_share = stats.topic_counts.get("finance", 0) / len(emails)
        assert 0.2 < trading_share < 0.4
        assert 0.03 < finance_share < 0.12

    def test_finance_emails_contain_sensitive_words(self, rng):
        generator = CorpusGenerator(rng)
        texts = [
            generator.generate_email_for_topic("finance").text.lower()
            for _ in range(40)
        ]
        combined = " ".join(texts)
        for word in ("payment", "account", "statement"):
            assert word in combined

    def test_core_words_pervasive(self, rng):
        emails = CorpusGenerator(rng).generate_mailbox(200)
        combined = " ".join(e.text.lower() for e in emails)
        for word in ("transfer", "company", "energy", "information"):
            assert combined.count(word) > 10

    def test_no_bitcoin_in_seed_corpus(self, rng):
        emails = CorpusGenerator(rng).generate_mailbox(300)
        combined = " ".join(e.text.lower() for e in emails)
        assert "bitcoin" not in combined

    def test_sender_differs_from_recipient(self, rng):
        generator = CorpusGenerator(rng)
        for _ in range(50):
            email = generator.generate_email()
            assert email.sender_name != email.recipient_name

    def test_invalid_count(self, rng):
        with pytest.raises(ConfigurationError):
            CorpusGenerator(rng).generate_mailbox(0)

    def test_invalid_topic(self, rng):
        with pytest.raises(ConfigurationError):
            CorpusGenerator(rng).generate_email_for_topic("astrology")
