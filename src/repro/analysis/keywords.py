"""Searched-word inference (Section 4.6, Table 2).

Builds the two TF-IDF documents from observed artifacts only:

* ``dR`` — the text of messages attackers read, taken from the
  body copies the monitoring script shipped with READ notifications
  (deduplicated per message);
* ``dA`` — the text of every email seeded into the honey accounts, as
  captured at provisioning time.

Preprocessing follows the paper: drop words under five characters,
header vocabulary, monitoring-signal tokens, and the honey email handles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tfidf import TfidfRow, TfidfTable, compute_tfidf_table
from repro.core.notifications import NotificationKind
from repro.core.records import ObservedDataset
from repro.corpus.text import term_counts


@dataclass
class KeywordInference:
    """Outcome of the searched-words analysis."""

    table: TfidfTable
    read_message_count: int
    read_term_count: int
    all_term_count: int

    def top_searched(self, k: int = 10) -> list[TfidfRow]:
        return self.table.top_by_difference(k)

    def top_corpus(self, k: int = 10) -> list[TfidfRow]:
        return self.table.top_by_corpus_weight(k)


def _honey_handles(dataset: ObservedDataset) -> list[str]:
    """Email handle tokens excluded from the corpus, as in the paper."""
    handles: list[str] = []
    for address in dataset.provenance:
        local_part = address.split("@", 1)[0]
        handles.extend(part for part in local_part.split(".") if part)
    return handles


def _read_bodies(dataset: ObservedDataset) -> tuple[int, list[str]]:
    """(distinct read messages with content, their bodies in first-seen
    order) — the ``dR`` document's raw material.

    Scans the kind/account/message id columns directly (dedup keys are
    interned-id pairs, bijective with the string pairs).
    """
    import numpy as np

    from repro.telemetry.spill import iter_column_chunks

    store = dataset.notification_store
    read_id = store.strings.id_of(NotificationKind.READ.value)
    seen_keys: set[tuple[int, int]] = set()
    texts: list[str] = []
    if read_id is None:
        return 0, texts
    bodies = store.bodies
    account_ids = store.account_ids
    message_ids = store.message_ids
    # Chunked kind-id scan: READ rows are a sliver of the stream, so
    # only they pay the (possibly disk-backed) body/account/message
    # lookups.
    base = 0
    for kind_chunk in iter_column_chunks(store.kind_ids, np.int64):
        matches = np.nonzero(kind_chunk == read_id)[0]
        for index in (matches + base).tolist():
            if not bodies[index]:
                continue
            key = (account_ids[index], message_ids[index])
            if key in seen_keys:
                continue
            seen_keys.add(key)
            texts.append(bodies[index])
        base += len(kind_chunk)
    return len(seen_keys), texts


def infer_searched_words(dataset: ObservedDataset) -> KeywordInference:
    """Run the full Table 2 analysis over an observed dataset.

    Both documents are counted, never materialised as term lists; the
    seeded mail is tokenised one mailbox at a time.
    """
    read_message_count, read_texts = _read_bodies(dataset)
    exclusions = _honey_handles(dataset)
    read_counts = term_counts(read_texts, extra_exclusions=exclusions)
    all_counts = term_counts(
        ("\n".join(texts) for texts in dataset.all_email_texts.values()),
        extra_exclusions=exclusions,
    )
    table = compute_tfidf_table(read_counts, all_counts)
    return KeywordInference(
        table=table,
        read_message_count=read_message_count,
        read_term_count=sum(read_counts.values()),
        all_term_count=sum(all_counts.values()),
    )
