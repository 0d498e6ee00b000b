"""Tokenisation and term filtering for the TF-IDF analysis.

Section 4.6 of the paper preprocesses the corpus by "filtering out all
words that have less than 5 characters, and removing all known
header-related words ... honey email handles, and also removing signaling
information that our monitoring infrastructure introduced".  This module
implements that exact pipeline: :func:`term_counts` for the TF-IDF
documents, :func:`prepare_document` where term order matters.  Tokens
are the maximal runs of ASCII letters in the lowercased text.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

#: Minimum word length retained by the paper's preprocessing.
DEFAULT_MIN_WORD_LENGTH = 5

#: Email-header vocabulary stripped before TF-IDF (the paper names
#: "delivered" and "charset" as examples).
HEADER_WORDS: frozenset[str] = frozenset(
    {
        "delivered", "charset", "content", "subject", "received",
        "message", "mailto", "return", "sender", "recipient",
        "encoding", "priority", "boundary", "multipart", "quoted",
        "printable", "mimeversion", "references", "header", "headers",
        "xmailer", "inreplyto",
    }
)

#: Monitoring-infrastructure signalling tokens injected by the honey
#: scripts; stripped like the paper strips its own signalling.
SIGNAL_WORDS: frozenset[str] = frozenset(
    {
        "honeynotify", "heartbeat", "monitorid", "scriptmarker",
        "notification",
    }
)

#: Short English stopwords; mostly redundant with the length filter but
#: kept for terms of exactly five+ characters that carry no signal.
STOPWORDS: frozenset[str] = frozenset(
    {
        "there", "their", "these", "those", "where", "which", "while",
        "after", "before", "being", "because", "could", "should",
        "other", "between", "under", "through",
    }
)

#: ``bytes.translate`` table of the tokenizer: ASCII ``a``-``z`` kept,
#: every other byte a space.
_TOKEN_BYTES = bytes(
    byte if ord("a") <= byte <= ord("z") else ord(" ") for byte in range(256)
)


def _token_text(text: str) -> str:
    """``text`` lowercased, every character but ``a``-``z`` a space.

    Splitting the result yields exactly the maximal ``[a-z]+`` runs of
    ``text.lower()``: lowercasing comes first (the Kelvin sign becomes
    ``k``, ``İ`` becomes ``i`` plus a combining dot), and every
    character outside ASCII encodes to bytes >= 0x80 (lone surrogates
    too, under ``surrogatepass``), which all become separators.
    """
    encoded = text.lower().encode("utf-8", "surrogatepass")
    return encoded.translate(_TOKEN_BYTES).decode("ascii")


def _exclusions(extra_exclusions: Iterable[str]) -> frozenset[str]:
    """Header, signal and stop words plus ``extra_exclusions``."""
    return (HEADER_WORDS | SIGNAL_WORDS | STOPWORDS).union(
        term.lower() for term in extra_exclusions
    )


def term_counts(
    texts: Iterable[str],
    *,
    min_length: int = DEFAULT_MIN_WORD_LENGTH,
    extra_exclusions: Iterable[str] = (),
) -> Counter:
    """Term counts of a set of texts treated as one document.

    The TF-IDF analysis needs only how often each term occurs, so no
    term list is built: each text is tokenised and counted on its own,
    and the paper's filters — words under ``min_length`` characters,
    header vocabulary, monitoring-signal words, stopwords and
    ``extra_exclusions`` (the honey email handles) — run once over the
    distinct terms at the end.  Equal to
    ``Counter(prepare_document(texts, ...))``.
    """
    counts: Counter = Counter()
    for text in texts:
        counts.update(_token_text(text).split())
    exclusions = _exclusions(extra_exclusions)
    return Counter(
        {
            term: count
            for term, count in counts.items()
            if len(term) >= min_length and term not in exclusions
        }
    )


def prepare_document(
    texts: Iterable[str],
    *,
    min_length: int = DEFAULT_MIN_WORD_LENGTH,
    extra_exclusions: Iterable[str] = (),
) -> list[str]:
    """Tokenise and filter a set of texts into one ordered term list.

    The same tokenizer and filters as :func:`term_counts`, for callers
    that need the terms in text order (the content detector scores a
    text term by term).  The texts are joined with a newline — a
    non-token character, so the token stream is identical to
    tokenising each text separately.
    """
    exclusions = _exclusions(extra_exclusions)
    return [
        term
        for term in _token_text("\n".join(texts)).split()
        if len(term) >= min_length and term not in exclusions
    ]
