"""Corpus remapping: make generated emails belong to a honey persona.

The paper maps distinct Enron recipients onto the fictional honey persona,
replaces first/last names, swaps "Enron" for a fictitious company name, and
refreshes all dates "to reflect the time in which the accounts were
populated".  :class:`CorpusMapper` applies the same pipeline to the
synthetic corpus in one rendering pass: each email's drawn content is
signed by the persona's correspondent and the fictitious company
(:data:`~repro.corpus.identity.COMPANY_NAME`), and its corpus send time
is mapped onto the recent-history window.  Nothing is rewritten after
rendering: the corpus company and the characters' names occur only in
the sign-off the corpus would have rendered (``CORPUS_COMPANY`` in
:mod:`repro.corpus.enron`), never in the drawn content.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from operator import attrgetter

from repro.errors import ConfigurationError
from repro.corpus.enron import GeneratedEmail
from repro.corpus.identity import COMPANY_DOMAIN, COMPANY_NAME, HoneyIdentity
from repro.sim.clock import EXPERIMENT_EPOCH
from repro.webmail.message import EmailMessage

#: Surnames the persona's correspondents are given; none is a corpus
#: character's surname.
ALIAS_LAST_NAMES: tuple[str, ...] = (
    "Hart", "Brooks", "Foster", "Hayes", "Reyes", "Warren", "Dunn",
    "Pierce", "Sharp", "Boyd",
)

_SIGNATURE = f"\n{COMPANY_NAME} Corporation"


@dataclass(frozen=True)
class MappingConfig:
    """Parameters of the remapping pass.

    Attributes:
        populate_time: the wall-clock moment accounts are populated; the
            corpus timeline is shifted so its newest email lands shortly
            before this time.
        history_span_days: how far back the remapped mailbox history runs.
    """

    populate_time: datetime = datetime(2015, 6, 20, tzinfo=timezone.utc)
    history_span_days: float = 540.0

    def __post_init__(self) -> None:
        if self.history_span_days <= 0:
            raise ConfigurationError("history_span_days must be positive")
        if self.populate_time.tzinfo is None:
            raise ConfigurationError("populate_time must be timezone-aware")


_RECEIVED_AT = attrgetter("received_at")


class CorpusMapper:
    """Renders generated emails into a honey persona's mailbox.

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
        """Mint the (name, address) a corpus character maps to."""
        first = corpus_name.split()[0]
        alias_last = self._rng.choice(ALIAS_LAST_NAMES)
        mapped = (
            f"{first} {alias_last}",
            f"{first.lower()}.{alias_last.lower()}@{COMPANY_DOMAIN}",
        )
        self._name_map[corpus_name] = mapped
        return mapped

    def map_mailbox(self, emails: list[GeneratedEmail]) -> list[EmailMessage]:
        """Render a whole generated mailbox as this persona's inbox.

        Every corpus email becomes unread mail *received by* the
        persona: senders become stable fake correspondents (a new one
        draws its alias from the stream, in email order) who sign the
        body for the fictitious company, and the corpus timeline is
        mapped linearly onto the recent-history window, as sim-time
        (negative: seeded history predates the epoch).  Messages come
        back in receive order.
        """
        if not emails:
            return []
        config = self._config
        name_map = self._name_map
        recipients = (self._identity.address,)
        corpus_min = min(e.sent_at for e in emails)
        span = (max(e.sent_at for e in emails) - corpus_min).total_seconds()
        window = timedelta(days=config.history_span_days)
        start = config.populate_time - window
        messages: list[EmailMessage] = []
        append = messages.append
        for email in emails:
            corpus_sender = email.sender_name
            mapped = name_map.get(corpus_sender)
            if mapped is None:
                mapped = self._map_character(corpus_sender)
            sender_name, sender_address = mapped
            if span <= 0:
                fraction = 1.0
            else:
                fraction = (email.sent_at - corpus_min).total_seconds() / span
            # Freshly created accounts: nobody has read this mail yet, so
            # every attacker open is an observable read event.
            append(EmailMessage(
                sender_name,
                sender_address,
                recipients,
                email.subject,
                email.content + "\n" + sender_name + _SIGNATURE,
                # Seeded history predates the epoch: negative sim-times.
                (start + fraction * window - EXPERIMENT_EPOCH).total_seconds(),
            ))
        messages.sort(key=_RECEIVED_AT)
        return messages
