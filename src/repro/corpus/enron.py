"""Synthetic corporate-email corpus generator.

Stands in for the public Enron dataset (Klimt & Yang, CEAS 2004), which is
not available offline.  The generator produces business emails for a
fictitious energy company with the statistical properties the paper's
analysis needs: a heavy core of business vocabulary shared by all topics,
and a thin tail of finance/personal-sensitive emails that search-driven
attackers ("gold diggers") can surface.

Emails are plain data (:class:`GeneratedEmail`); the mapping layer turns
them into mailbox-ready messages for each honey account.

The draw order is part of the contract.  Honey mailboxes are seeded
from the shared ``provisioning`` stream, which then mints the next
account's identity, password and mailbox, so for any ``random.Random``
state the generator must spend exactly the draws it always has, in the
same order, and render the same text: one draw out of place shifts
every later account.  :meth:`CorpusGenerator._generate` lists the order;
it inlines ``random.Random``'s own uniform-index loop rather than calling
``choice``, and renders only the pool sentences the sample keeps.
``tests/test_corpus_fastpath.py`` checks messages and final stream state
against a reference generator written with the library calls.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import accumulate
from operator import attrgetter

from repro.errors import ConfigurationError
from repro.corpus import wordbank
from repro.corpus.names import FIRST_NAMES, LAST_NAMES

#: Corpus "original" timeframe (pre-remapping), echoing Enron's 1999-2002.
_CORPUS_START = datetime(2000, 1, 3, 8, 0, tzinfo=timezone.utc)
_CORPUS_SPAN_DAYS = 700

_SUBJECT_TEMPLATES: tuple[str, ...] = (
    "RE: {topic_word} {core_word} for {counterparty}",
    "{core_word} {topic_word} update",
    "FW: {topic_word} {core_word}",
    "{counterparty} {topic_word} review",
    "Action needed: {topic_word} {core_word}",
    "{core_word} schedule for {counterparty}",
)

_OPENINGS: tuple[str, ...] = (
    "Please review the {core_word} {topic_word} attached to this email.",
    "Following our meeting about the {topic_word}, here is the {core_word}.",
    "I wanted to give you an update about the {counterparty} {topic_word}.",
    "The {topic_word} {core_word} from {counterparty} came in this morning.",
    "As discussed, the {core_word} for the {topic_word} would be ready soon.",
)

_BODY_TEMPLATES: tuple[str, ...] = (
    "The {topic_word} group would like more information about the "
    "{core_word} before the original deadline.",
    "Our company needs the {core_word} numbers for the {topic_word} "
    "transfer by Thursday.",
    "Energy prices moved again, so the {topic_word} {core_word} should be "
    "revised before we transfer the position.",
    "Please provide the original {core_word} so the {topic_word} team can "
    "complete the review.",
    "I attached the {core_word} about the {counterparty} {topic_word} for "
    "your information.",
    "The power desk asked about the {topic_word} {core_word}; please "
    "forward any information you have.",
    "Would you confirm the {core_word} details so we can update the "
    "{topic_word} schedule?",
    "This email includes the {topic_word} {core_word} that {counterparty} "
    "requested about the agreement.",
)

_CLOSINGS: tuple[str, ...] = (
    "Please let me know if you would like to discuss.",
    "Thanks for your help with the {topic_word}.",
    "I will forward more information about the {core_word} tomorrow.",
    "Please call my office about any question.",
)

_COUNTERPARTIES: tuple[str, ...] = (
    "Westgate", "Calpine", "Dynegy", "Sempra", "Entergy", "Duke",
    "Mirant", "Reliant", "Aquila", "TransAlta",
)


_N_BODY = len(_BODY_TEMPLATES)

#: Topic-specific pool sentences (after the body templates and notes).
_EXTRA_LINES = {
    "finance": "The payment account results are listed below the "
    "statement summary.",
    "personal": "Hope the family is doing great; see everyone at the "
    "birthday party.",
}


@dataclass(frozen=True)
class _Topic:
    """A topic's draw-time constants."""

    name: str
    vocab: tuple[str, ...]
    #: ``len(vocab)`` and its bit length (the rejection loop's ``k``).
    n: int
    k: int
    #: Population of the notes sample: the vocabulary, then the filler.
    note_terms: tuple[str, ...]
    #: Body templates + notes + the extra line, if any.
    pool_size: int
    extra_line: str | None


def _topic(name: str) -> _Topic:
    vocab = wordbank.topic_vocabulary(name)
    extra_line = _EXTRA_LINES.get(name)
    return _Topic(
        name=name,
        vocab=vocab,
        n=len(vocab),
        k=len(vocab).bit_length(),
        note_terms=vocab + wordbank.GENERAL_FILLER,
        pool_size=_N_BODY + 1 + (extra_line is not None),
        extra_line=extra_line,
    )


_TOPICS = {name: _topic(name) for name in wordbank.topic_names()}
_TOPIC_LIST = tuple(_TOPICS.values())
#: ``choices(topics, weights)`` internals: cumulative weights and total.
_CUM_WEIGHTS = list(accumulate(wordbank.topic_weights()))
_TOTAL_WEIGHT = _CUM_WEIGHTS[-1] + 0.0
_LAST_TOPIC = len(_TOPIC_LIST) - 1

#: The corpus's cast, and for each sender (by index) the characters it
#: writes to.
_CHARACTERS: tuple[str, ...] = tuple(
    f"{first} {last}" for first, last in zip(FIRST_NAMES[:30], LAST_NAMES[:30])
)
_RECIPIENTS: tuple[tuple[str, ...], ...] = tuple(
    tuple(c for c in _CHARACTERS if c != sender) for sender in _CHARACTERS
)

_SENT_AT = attrgetter("sent_at")


@dataclass(frozen=True)
class GeneratedEmail:
    """One synthetic corpus email, before honey-account remapping."""

    sender_name: str
    recipient_name: str
    subject: str
    body: str
    sent_at: datetime
    topic: str

    @property
    def text(self) -> str:
        """Subject + body, the text the TF-IDF analysis consumes."""
        return f"{self.subject}\n{self.body}"


@dataclass
class CorpusStats:
    """Aggregate statistics for a generated corpus (used in tests)."""

    email_count: int = 0
    topic_counts: dict[str, int] = field(default_factory=dict)


class CorpusGenerator:
    """Generates deterministic synthetic corporate email.

    Args:
        rng: the randomness stream; a fixed seed yields a fixed corpus.
        company: company name woven into email bodies (pre-remapping this
            is the stand-in for "Enron"; the mapper replaces it).
    """

    def __init__(self, rng: random.Random, company: str = "Enrova") -> None:
        self._rng = rng
        self.company = company

    def generate_email(self) -> GeneratedEmail:
        """Generate a single email with a weighted-random topic."""
        return self._generate(1)[0]

    def generate_email_for_topic(self, topic: str) -> GeneratedEmail:
        """Generate a single email with the given topic."""
        if topic not in _TOPICS:
            raise ConfigurationError(f"unknown topic {topic!r}")
        return self._generate(1, _TOPICS[topic])[0]

    def generate_mailbox(self, email_count: int) -> list[GeneratedEmail]:
        """Generate a mailbox-sized batch sorted by send time.

        Raises:
            ConfigurationError: if ``email_count`` is not positive.
        """
        if email_count <= 0:
            raise ConfigurationError("email_count must be positive")
        emails = self._generate(email_count)
        emails.sort(key=_SENT_AT)
        return emails

    def _generate(
        self, count: int, fixed: _Topic | None = None
    ) -> list[GeneratedEmail]:
        """``count`` emails in draw order, each on a weighted-random
        topic unless ``fixed`` is given.

        Per email the stream sees, in order: the topic (one
        ``random()``, as ``choices`` spends it), the sender, the
        recipient, the subject template and its three words, the opening
        template and its three words, three words for each of the eight
        body templates, ``sample`` of four note terms, the sentence count
        (``randrange(3, 7)``), ``sample`` of the pool indices, the
        closing template and its three words, and the send time (one
        ``random()``, as ``uniform`` spends it).  Every uniform index is
        :meth:`random.Random._randbelow`'s ``getrandbits`` rejection
        loop, inlined; only the sentences the pool sample keeps are
        rendered.
        """
        rng = self._rng
        bits = rng.getrandbits
        uniform = rng.random
        sample = rng.sample
        core, n_core = wordbank.CORE_BUSINESS, len(wordbank.CORE_BUSINESS)
        counterparties, n_counterparties = _COUNTERPARTIES, len(_COUNTERPARTIES)
        k_core = n_core.bit_length()
        k_counterparties = n_counterparties.bit_length()
        signature = f"{self.company} Corporation"

        def below(n: int) -> int:
            """``randrange(n)``, for the once-per-email draws."""
            k = n.bit_length()
            i = bits(k)
            while i >= n:
                i = bits(k)
            return i

        def words(vocab: tuple[str, ...], n: int, k: int) -> dict[str, str]:
            """One template's words, by placeholder."""
            i = bits(k)
            while i >= n:
                i = bits(k)
            j = bits(k_core)
            while j >= n_core:
                j = bits(k_core)
            m = bits(k_counterparties)
            while m >= n_counterparties:
                m = bits(k_counterparties)
            return {
                "topic_word": vocab[i],
                "core_word": core[j],
                "counterparty": counterparties[m],
            }

        emails: list[GeneratedEmail] = []
        for _ in range(count):
            if fixed is None:
                topic = _TOPIC_LIST[bisect(
                    _CUM_WEIGHTS, uniform() * _TOTAL_WEIGHT, 0, _LAST_TOPIC
                )]
            else:
                topic = fixed
            vocab, n, k = topic.vocab, topic.n, topic.k
            i = below(len(_CHARACTERS))
            sender = _CHARACTERS[i]
            recipients = _RECIPIENTS[i]
            recipient = recipients[below(len(recipients))]
            template = _SUBJECT_TEMPLATES[below(len(_SUBJECT_TEMPLATES))]
            subject = template.format(**words(vocab, n, k))
            template = _OPENINGS[below(len(_OPENINGS))]
            lines = [template.format(**words(vocab, n, k))]
            pool = [words(vocab, n, k) for _ in _BODY_TEMPLATES]
            notes = sample(topic.note_terms, 4)
            size = 3 + below(4)  # randrange(3, 7)
            # The pool (8 templates, the notes, the topic's extra line)
            # holds 9 or 10 sentences, more than the 3-6 picked.
            for index in sample(range(topic.pool_size), size):
                if index < _N_BODY:
                    lines.append(_BODY_TEMPLATES[index].format(**pool[index]))
                elif index == _N_BODY:
                    lines.append("Notes: " + ", ".join(sorted(notes)) + ".")
                else:
                    lines.append(topic.extra_line)
            template = _CLOSINGS[below(len(_CLOSINGS))]
            lines.append(template.format(**words(vocab, n, k)))
            lines.append(sender)
            lines.append(signature)
            # uniform(0, span) is 0 + span * random().
            offset_days = _CORPUS_SPAN_DAYS * uniform()
            emails.append(
                GeneratedEmail(
                    sender_name=sender,
                    recipient_name=recipient,
                    subject=subject,
                    body="\n".join(lines),
                    sent_at=_CORPUS_START + timedelta(days=offset_days),
                    topic=topic.name,
                )
            )
        return emails

    @staticmethod
    def stats(emails: list[GeneratedEmail]) -> CorpusStats:
        """Compute aggregate statistics over generated emails."""
        stats = CorpusStats(email_count=len(emails))
        for email in emails:
            stats.topic_counts[email.topic] = (
                stats.topic_counts.get(email.topic, 0) + 1
            )
        return stats
