"""Tests for repro.corpus.text (the paper's TF-IDF preprocessing)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.text import (
    DEFAULT_MIN_WORD_LENGTH,
    filter_terms,
    prepare_document,
    tokenize,
)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_strips_punctuation_and_digits(self):
        assert tokenize("bitcoin-wallet: 1Fake99") == [
            "bitcoin", "wallet", "fake",
        ]

    def test_empty(self):
        assert tokenize("") == []

    @settings(max_examples=100)
    @given(st.text(max_size=200))
    def test_tokens_always_alpha_lowercase(self, text):
        for token in tokenize(text):
            assert token.isalpha()
            assert token == token.lower()


class TestFilterTerms:
    def test_short_words_dropped(self):
        # the paper filters out words with less than 5 characters
        kept = list(filter_terms(["cash", "money", "gold", "payment"]))
        assert kept == ["money", "payment"]

    def test_header_words_dropped(self):
        kept = list(filter_terms(["delivered", "charset", "payment"]))
        assert kept == ["payment"]

    def test_signal_words_dropped(self):
        kept = list(filter_terms(["heartbeat", "notification", "wallet"]))
        assert kept == ["wallet"]

    def test_extra_exclusions(self):
        kept = list(
            filter_terms(
                ["william", "bitcoin"], extra_exclusions=["William"]
            )
        )
        assert kept == ["bitcoin"]

    def test_custom_min_length(self):
        kept = list(filter_terms(["cash", "gold"], min_length=4))
        assert kept == ["cash", "gold"]

    @settings(max_examples=100)
    @given(st.lists(st.text(alphabet="abcdefgh", max_size=10), max_size=50))
    def test_no_short_tokens_survive(self, tokens):
        for term in filter_terms(tokens):
            assert len(term) >= DEFAULT_MIN_WORD_LENGTH


class TestPrepareDocument:
    def test_combines_texts(self):
        document = prepare_document(
            ["please send payment", "the payment account"]
        )
        assert document == ["please", "payment", "payment", "account"]

    def test_handles_exclusion(self):
        document = prepare_document(
            ["mary.walker payment"], extra_exclusions=["walker", "mary"]
        )
        assert document == ["payment"]

    def test_empty_input(self):
        assert prepare_document([]) == []
