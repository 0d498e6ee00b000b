"""TF-IDF over the two-document corpus of Section 4.6.

The paper's corpus has two documents: ``dA`` — all emails in the honey
accounts — and ``dR`` — all emails read by attackers.  Words important in
``dR`` but not in ``dA`` (large ``tfidf_R − tfidf_A``) are the words
attackers most likely searched for.

The tf term is the relative frequency of the term in the document, and
the idf term uses smoothed document frequencies (``1 + ln((1+N)/(1+df))``)
so vocabulary shared by both documents keeps a non-zero weight; vectors
are then L2-normalised per document, which keeps every weight in
``[0, 1]`` as the paper describes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import AnalysisError


@dataclass(frozen=True)
class TfidfRow:
    """One term's weights across the two documents."""

    term: str
    tfidf_r: float
    tfidf_a: float

    @property
    def difference(self) -> float:
        return self.tfidf_r - self.tfidf_a


@dataclass
class TfidfTable:
    """All term weights for the (read, all) document pair.

    Rankings break exact weight ties by term, so they never depend on
    the order the terms were inserted in.
    """

    rows: dict[str, TfidfRow]

    def top_by_difference(self, k: int = 10) -> list[TfidfRow]:
        """Table 2 left: terms attackers most likely searched for."""
        ordered = sorted(self.rows.values(), key=lambda r: (-r.difference, r.term))
        return ordered[:k]

    def top_by_corpus_weight(self, k: int = 10) -> list[TfidfRow]:
        """Table 2 right: the most important terms of the whole corpus."""
        ordered = sorted(self.rows.values(), key=lambda r: (-r.tfidf_a, r.term))
        return ordered[:k]

    def row(self, term: str) -> TfidfRow:
        try:
            return self.rows[term]
        except KeyError as exc:
            raise AnalysisError(f"term {term!r} not in the corpus") from exc

    def __contains__(self, term: str) -> bool:
        return term in self.rows

    def __len__(self) -> int:
        return len(self.rows)


def term_frequencies(counts: Mapping[str, int]) -> dict[str, float]:
    """Relative term frequencies of one document, given its term counts."""
    total = float(sum(counts.values()))
    if not total:
        return {}
    return {term: count / total for term, count in counts.items()}


def smooth_idf(term: str, documents: list[set[str]]) -> float:
    """Smoothed inverse document frequency over ``documents``."""
    n_docs = len(documents)
    df = sum(1 for vocabulary in documents if term in vocabulary)
    return 1.0 + math.log((1.0 + n_docs) / (1.0 + df))


def compute_tfidf_table(
    read_counts: Mapping[str, int], all_counts: Mapping[str, int]
) -> TfidfTable:
    """Compute the full TF-IDF table for the (dR, dA) corpus, given
    each document's term counts (:func:`repro.corpus.text.term_counts`).

    Raises:
        AnalysisError: when the "all emails" document is empty.
    """
    if not all_counts:
        raise AnalysisError("the all-emails document is empty")
    vocab_r = set(read_counts)
    vocab_a = set(all_counts)
    documents = [vocab_r, vocab_a]
    tf_r = term_frequencies(read_counts)
    tf_a = term_frequencies(all_counts)
    raw_r: dict[str, float] = {}
    raw_a: dict[str, float] = {}
    for term in vocab_r | vocab_a:
        idf = smooth_idf(term, documents)
        raw_r[term] = tf_r.get(term, 0.0) * idf
        raw_a[term] = tf_a.get(term, 0.0) * idf
    # fsum: the norms must not depend on the set's (hash-seeded)
    # iteration order, or neither may the weights and their ties.
    norm_r = math.sqrt(math.fsum(v * v for v in raw_r.values())) or 1.0
    norm_a = math.sqrt(math.fsum(v * v for v in raw_a.values())) or 1.0
    rows = {
        term: TfidfRow(
            term=term,
            tfidf_r=raw_r[term] / norm_r,
            tfidf_a=raw_a[term] / norm_a,
        )
        for term in raw_r
    }
    return TfidfTable(rows=rows)
