"""Synthetic corporate-email corpus generator.

Stands in for the public Enron dataset (Klimt & Yang, CEAS 2004), which is
not available offline.  The generator produces business emails for a
fictitious energy company with the statistical properties the paper's
analysis needs: a heavy core of business vocabulary shared by all topics,
and a thin tail of finance/personal-sensitive emails that search-driven
attackers ("gold diggers") can surface.

Each email is drawn once and kept as a light record
(:class:`GeneratedEmail`): the drawn content, the corpus sender and
recipient, the subject, the send time and the topic.  The mapping layer
renders each record once, as the honey persona receives it; the corpus
sign-off is rendered only on demand (:attr:`GeneratedEmail.body`).

The draw order is part of the contract.  Honey mailboxes are seeded
from the shared ``provisioning`` stream, which then mints the next
account's identity, password and mailbox, so for any ``random.Random``
state the generator must spend exactly the draws it always has, in the
same order, and render the same text: one draw out of place shifts
every later account.  :meth:`CorpusGenerator._generate` lists the order;
it inlines ``random.Random``'s own uniform-index loop and ``sample``
rather than calling them, and renders only the pool sentences the
sample keeps.  ``tests/test_corpus_fastpath.py`` checks messages and
final stream state against a reference generator and mapper written
with the library calls.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

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
    #: Population of the notes sample: the vocabulary, then the filler;
    #: its size and bit length.
    note_terms: tuple[str, ...]
    n_notes: int
    k_notes: int
    #: Body templates + notes + the extra line, if any.
    pool_size: int
    extra_line: str | None


def _topic(name: str) -> _Topic:
    vocab = wordbank.topic_vocabulary(name)
    extra_line = _EXTRA_LINES.get(name)
    # Over 21 terms, so ``sample`` of 4 takes its set branch.
    note_terms = vocab + wordbank.GENERAL_FILLER
    return _Topic(
        name=name,
        vocab=vocab,
        n=len(vocab),
        k=len(vocab).bit_length(),
        note_terms=note_terms,
        n_notes=len(note_terms),
        k_notes=len(note_terms).bit_length(),
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

#: The corpus's stand-in for "Enron": it signs every corpus email, and
#: the mapper signs with the fictitious company instead.  Neither name,
#: nor a character's first name, occurs in any template or word bank
#: (``tests/test_corpus_fastpath.py`` checks), so rendering each email
#: once, already remapped, equals rendering it and then rewriting it.
CORPUS_COMPANY = "Enrova"
_SIGNATURE = f"{CORPUS_COMPANY} Corporation"


def _positional(template: str) -> str:
    """``template`` with its placeholders numbered, so that one drawn
    ``(topic_word, core_word, counterparty)`` triple fills it."""
    for index, name in enumerate(("topic_word", "core_word", "counterparty")):
        template = template.replace("{%s}" % name, "{%d}" % index)
    return template


_SUBJECT_FORMS = tuple(map(_positional, _SUBJECT_TEMPLATES))
_OPENING_FORMS = tuple(map(_positional, _OPENINGS))
_BODY_FORMS = tuple(map(_positional, _BODY_TEMPLATES))
_CLOSING_FORMS = tuple(map(_positional, _CLOSINGS))
#: ``getrandbits`` widths of the pool sample's shrinking ranges.
_BIT_LENGTHS = tuple(n.bit_length() for n in range(_N_BODY + 3))


class GeneratedEmail(NamedTuple):
    """One synthetic corpus email, before honey-account remapping.

    ``content`` is what the draws chose: the opening, the kept pool
    sentences and the closing, one per line.  The corpus sign-off (the
    sender and the corpus company) is rendered on demand by
    :attr:`body`; the mapper signs with the persona's correspondent and
    the fictitious company instead.
    """

    sender_name: str
    recipient_name: str
    subject: str
    content: str
    sent_at: datetime
    topic: str

    @property
    def body(self) -> str:
        return f"{self.content}\n{self.sender_name}\n{_SIGNATURE}"

    @property
    def text(self) -> str:
        """Subject + body, the text the TF-IDF analysis consumes."""
        return f"{self.subject}\n{self.body}"


_SENT_AT = attrgetter("sent_at")


@dataclass
class CorpusStats:
    """Aggregate statistics for a generated corpus (used in tests)."""

    email_count: int = 0
    topic_counts: dict[str, int] = field(default_factory=dict)


class CorpusGenerator:
    """Generates deterministic synthetic corporate email.

    Args:
        rng: the randomness stream; a fixed seed yields a fixed corpus.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def generate_email(self) -> GeneratedEmail:
        """Generate a single email with a weighted-random topic."""
        return self._generate(1)[0]

    def generate_email_for_topic(self, topic: str) -> GeneratedEmail:
        """Generate a single email with the given topic."""
        if topic not in _TOPICS:
            raise ConfigurationError(f"unknown topic {topic!r}")
        return self._generate(1, _TOPICS[topic])[0]

    def generate_mailbox(self, email_count: int) -> list[GeneratedEmail]:
        """Generate a mailbox-sized batch sorted (stably) by send time.

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
        loop, inlined, and so are both samples (the note population
        always takes ``sample``'s set branch, the pool its list branch).
        Only the sentences the pool sample keeps are rendered.
        """
        rng = self._rng
        bits = rng.getrandbits
        uniform = rng.random
        core, n_core = wordbank.CORE_BUSINESS, len(wordbank.CORE_BUSINESS)
        counterparties, n_counterparties = _COUNTERPARTIES, len(_COUNTERPARTIES)
        k_core = n_core.bit_length()
        k_counterparties = n_counterparties.bit_length()

        def below(n: int) -> int:
            """``randrange(n)``, for the once-per-email draws."""
            k = n.bit_length()
            i = bits(k)
            while i >= n:
                i = bits(k)
            return i

        def words(
            vocab: tuple[str, ...], n: int, k: int
        ) -> tuple[str, str, str]:
            """One template's ``(topic_word, core_word, counterparty)``."""
            i = bits(k)
            while i >= n:
                i = bits(k)
            j = bits(k_core)
            while j >= n_core:
                j = bits(k_core)
            m = bits(k_counterparties)
            while m >= n_counterparties:
                m = bits(k_counterparties)
            return vocab[i], core[j], counterparties[m]

        emails: list[GeneratedEmail] = []
        append = emails.append
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
            template = _SUBJECT_FORMS[below(len(_SUBJECT_FORMS))]
            subject = template.format(*words(vocab, n, k))
            template = _OPENING_FORMS[below(len(_OPENING_FORMS))]
            lines = [template.format(*words(vocab, n, k))]
            pool = [words(vocab, n, k) for _ in _BODY_FORMS]
            # sample(note_terms, 4), set branch: redraw a taken index.
            n_notes, k_notes = topic.n_notes, topic.k_notes
            notes: list[int] = []
            for _ in range(4):
                j = bits(k_notes)
                while j >= n_notes or j in notes:
                    j = bits(k_notes)
                notes.append(j)
            size = 3 + below(4)  # randrange(3, 7)
            # sample(range(pool size), size), list branch.  The pool (8
            # templates, the notes, the topic's extra line) holds 9 or
            # 10 sentences, more than the 3-6 picked.
            left = list(range(topic.pool_size))
            for m in range(topic.pool_size, topic.pool_size - size, -1):
                k_left = _BIT_LENGTHS[m]
                j = bits(k_left)
                while j >= m:
                    j = bits(k_left)
                index = left[j]
                left[j] = left[m - 1]
                if index < _N_BODY:
                    lines.append(_BODY_FORMS[index].format(*pool[index]))
                elif index == _N_BODY:
                    terms = topic.note_terms
                    lines.append(
                        "Notes: "
                        + ", ".join(sorted([terms[t] for t in notes]))
                        + "."
                    )
                else:
                    lines.append(topic.extra_line)
            template = _CLOSING_FORMS[below(len(_CLOSING_FORMS))]
            lines.append(template.format(*words(vocab, n, k)))
            # uniform(0, span) is 0 + span * random().
            offset_days = _CORPUS_SPAN_DAYS * uniform()
            append(GeneratedEmail(
                sender,
                recipient,
                subject,
                "\n".join(lines),
                _CORPUS_START + timedelta(days=offset_days),
                topic.name,
            ))
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
