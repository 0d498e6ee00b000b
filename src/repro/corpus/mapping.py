"""Corpus remapping: make generated emails belong to a honey persona.

The paper maps distinct Enron recipients onto the fictional honey persona,
replaces first/last names, swaps "Enron" for a fictitious company name, and
refreshes all dates "to reflect the time in which the accounts were
populated".  :class:`CorpusMapper` applies the same pipeline to the
synthetic corpus.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from operator import attrgetter

from repro.errors import ConfigurationError
from repro.corpus.enron import GeneratedEmail
from repro.corpus.identity import COMPANY_NAME, HoneyIdentity


@dataclass(frozen=True)
class MappingConfig:
    """Parameters of the remapping pass.

    Attributes:
        company_name: fictitious company replacing the corpus company.
        populate_time: the wall-clock moment accounts are populated; the
            corpus timeline is shifted so its newest email lands shortly
            before this time.
        history_span_days: how far back the remapped mailbox history runs.
    """

    company_name: str = COMPANY_NAME
    populate_time: datetime = datetime(2015, 6, 20, tzinfo=timezone.utc)
    history_span_days: float = 540.0

    def __post_init__(self) -> None:
        if self.history_span_days <= 0:
            raise ConfigurationError("history_span_days must be positive")
        if self.populate_time.tzinfo is None:
            raise ConfigurationError("populate_time must be timezone-aware")


@dataclass(frozen=True)
class MappedEmail:
    """A corpus email rewritten to belong to a honey persona's mailbox."""

    sender_name: str
    sender_address: str
    recipient_name: str
    recipient_address: str
    subject: str
    body: str
    sent_at: datetime
    topic: str

    @property
    def text(self) -> str:
        return f"{self.subject}\n{self.body}"


_SENT_AT = attrgetter("sent_at")


class CorpusMapper:
    """Rewrites generated emails into a honey persona's mailbox.

    A stable cast of correspondent personas is minted per mailbox so the
    same corpus character always maps to the same fake correspondent, as in
    the paper's recipient mapping.
    """

    def __init__(
        self,
        identity: HoneyIdentity,
        config: MappingConfig,
        rng: random.Random,
    ) -> None:
        self._identity = identity
        self._config = config
        self._rng = rng
        self._name_map: dict[str, tuple[str, str]] = {}

    def _map_character(self, corpus_name: str) -> tuple[str, str]:
        """Map a corpus character to a stable (name, address) pair."""
        if corpus_name not in self._name_map:
            first = corpus_name.split()[0]
            alias_last = self._rng.choice(
                ("Hart", "Brooks", "Foster", "Hayes", "Reyes", "Warren",
                 "Dunn", "Pierce", "Sharp", "Boyd")
            )
            full = f"{first} {alias_last}"
            address = (
                f"{first.lower()}.{alias_last.lower()}@"
                f"{self._config.company_name.lower()}-corp.com"
            )
            self._name_map[corpus_name] = (full, address)
        return self._name_map[corpus_name]

    def map_mailbox(
        self, emails: list[GeneratedEmail], original_company: str
    ) -> list[MappedEmail]:
        """Rewrite a whole generated mailbox for this persona.

        Every corpus email becomes mail *received by* the persona: the
        corpus recipient is replaced by the honey identity, senders become
        stable fake correspondents (a new one draws its alias from the
        stream, in email order), mentions of ``original_company`` are
        rewritten, and the corpus timeline is mapped linearly onto the
        recent-history window.
        """
        if not emails:
            return []
        config = self._config
        # Keyed by this call's company: a mapper reused across corpora
        # must not keep rewriting the first company it saw.
        rewrite = partial(
            re.compile(re.escape(original_company), re.IGNORECASE).sub,
            config.company_name,
        )
        persona_name = self._identity.full_name
        persona_address = self._identity.address
        corpus_min = min(e.sent_at for e in emails)
        span = (max(e.sent_at for e in emails) - corpus_min).total_seconds()
        window = timedelta(days=config.history_span_days)
        start = config.populate_time - window
        mapped: list[MappedEmail] = []
        for email in emails:
            corpus_sender = email.sender_name
            sender_name, sender_address = self._map_character(corpus_sender)
            body = (
                rewrite(email.body)
                .replace(corpus_sender, sender_name)
                .replace(email.recipient_name, persona_name)
            )
            if span <= 0:
                fraction = 1.0
            else:
                fraction = (email.sent_at - corpus_min).total_seconds() / span
            mapped.append(
                MappedEmail(
                    sender_name=sender_name,
                    sender_address=sender_address,
                    recipient_name=persona_name,
                    recipient_address=persona_address,
                    subject=rewrite(email.subject),
                    body=body,
                    sent_at=start + fraction * window,
                    topic=email.topic,
                )
            )
        mapped.sort(key=_SENT_AT)
        return mapped
