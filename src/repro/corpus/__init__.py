"""Synthetic corporate-email corpus and honey-identity generation.

The paper seeds its 100 honey accounts with the public Enron corpus after a
remapping pass (names swapped for honey personas, "Enron" replaced with a
fictitious company, dates refreshed).  The real corpus is unavailable
offline, so ``enron`` generates a statistically similar corporate corpus
for a fictitious energy company, and ``mapping`` applies the same
remapping pipeline the paper describes.
"""

from repro.corpus.enron import CorpusGenerator, GeneratedEmail
from repro.corpus.identity import HoneyIdentity, IdentityFactory
from repro.corpus.mapping import CorpusMapper, MappingConfig
from repro.corpus.names import random_identity_name
from repro.corpus.text import (
    DEFAULT_MIN_WORD_LENGTH,
    HEADER_WORDS,
    STOPWORDS,
    prepare_document,
    term_counts,
)

__all__ = [
    "CorpusGenerator",
    "CorpusMapper",
    "DEFAULT_MIN_WORD_LENGTH",
    "GeneratedEmail",
    "HEADER_WORDS",
    "HoneyIdentity",
    "IdentityFactory",
    "MappingConfig",
    "STOPWORDS",
    "prepare_document",
    "random_identity_name",
    "term_counts",
]
