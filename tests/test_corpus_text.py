"""Tests for repro.corpus.text (the paper's TF-IDF preprocessing)."""

import re
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.text import (
    DEFAULT_MIN_WORD_LENGTH,
    HEADER_WORDS,
    SIGNAL_WORDS,
    STOPWORDS,
    prepare_document,
    term_counts,
)


def tokens(text: str) -> list[str]:
    """The terms of ``text`` with no length filter."""
    return prepare_document([text], min_length=1, extra_exclusions=())


def kept(terms: list[str], **kwargs) -> list[str]:
    """The terms that survive the paper's filters, in order."""
    return prepare_document([" ".join(terms)], **kwargs)


class TestTokenize:
    def test_lowercases(self):
        assert tokens("Hello WORLD") == ["hello", "world"]

    def test_strips_punctuation_and_digits(self):
        assert tokens("bitcoin-wallet: 1Fake99") == [
            "bitcoin", "wallet", "fake",
        ]

    def test_empty(self):
        assert tokens("") == []
        assert term_counts([""]) == Counter()

    @settings(max_examples=100)
    @given(st.text(max_size=200))
    def test_tokens_always_alpha_lowercase(self, text):
        for token in tokens(text):
            assert token.isascii() and token.isalpha()
            assert token == token.lower()


class TestFilterTerms:
    def test_short_words_dropped(self):
        # the paper filters out words with less than 5 characters
        assert kept(["cash", "money", "gold", "payment"]) == [
            "money", "payment",
        ]

    def test_header_words_dropped(self):
        assert kept(["delivered", "charset", "payment"]) == ["payment"]

    def test_signal_words_dropped(self):
        assert kept(["heartbeat", "notification", "wallet"]) == ["wallet"]

    def test_extra_exclusions(self):
        assert kept(
            ["william", "bitcoin"], extra_exclusions=["William"]
        ) == ["bitcoin"]

    def test_custom_min_length(self):
        assert kept(["cash", "gold"], min_length=4) == ["cash", "gold"]

    @settings(max_examples=100)
    @given(st.lists(st.text(alphabet="abcdefgh", max_size=10), max_size=50))
    def test_no_short_tokens_survive(self, terms):
        for term in kept(terms):
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


#: Characters whose lowercasing or encoding could fool a byte-level
#: tokenizer: the Kelvin sign (lowercases to ASCII ``k``), dotted
#: capital I (``i`` plus a combining dot), accented letters, a lone
#: surrogate, digits, punctuation and whitespace.
TRICKY = "\u212aK\u0130\u00e9\u00c9\u00df\ud800aZz09-_.,!\n\t "
texts = st.lists(
    st.text(
        alphabet=st.one_of(st.sampled_from(TRICKY), st.characters()),
        max_size=40,
    ),
    max_size=6,
)
exclusions = st.lists(
    st.text(alphabet="abcdeKZ\u212a", min_size=1, max_size=6), max_size=4
)


def regex_document(texts, *, min_length, extra_exclusions) -> list[str]:
    """The reference: maximal ``[a-z]+`` runs of the lowercased text."""
    excluded = HEADER_WORDS | SIGNAL_WORDS | STOPWORDS
    excluded |= {term.lower() for term in extra_exclusions}
    return [
        token
        for token in re.findall("[a-z]+", "\n".join(texts).lower())
        if len(token) >= min_length and token not in excluded
    ]


class TestTermCounts:
    def test_counts_each_kept_term(self):
        assert term_counts(
            ["Please send PAYMENT", "payment: account 42"]
        ) == Counter({"payment": 2, "please": 1, "account": 1})

    @settings(max_examples=200)
    @given(texts, st.integers(1, 6), exclusions)
    def test_counts_equal_the_prepared_document(
        self, texts, min_length, extra
    ):
        counts = term_counts(
            texts, min_length=min_length, extra_exclusions=extra
        )
        document = prepare_document(
            texts, min_length=min_length, extra_exclusions=extra
        )
        assert counts == Counter(document)
        assert document == regex_document(
            texts, min_length=min_length, extra_exclusions=extra
        )
