"""Draw-exact corpus generation and remapping.

Honey mailboxes are seeded from the shared ``provisioning`` stream,
which goes on to mint the next account's identity, password and
mailbox: one draw out of place shifts every later account.  The corpus
generator and mapper therefore promise, for any ``random.Random``
state, byte-identical messages *and* the identical final stream state.

:class:`ReferenceCorpus` keeps the straightforward generator and mapper
(``rng.choice`` per word, every body template rendered, the corpus
company rewritten by a case-insensitive regex and the names by
``str.replace`` after rendering, frozen records per message) as the
oracle, with its own copies of the record types.  A derandomised
property test drives both from the same seeds with drawn mailbox sizes,
personas and mapping windows; unit tests cover the topic-specific pool
sentences, the whole seeding path and the invariant that lets the fast
path render each email once: no name the reference rewrites occurs in
what the draws choose.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.honeyaccount import HoneyAccountFactory
from repro.corpus import wordbank
from repro.corpus.enron import (
    _BODY_TEMPLATES,
    _CLOSINGS,
    _COUNTERPARTIES,
    _CORPUS_SPAN_DAYS,
    _CORPUS_START,
    _EXTRA_LINES,
    _OPENINGS,
    _SUBJECT_TEMPLATES,
    CORPUS_COMPANY,
    CorpusGenerator,
)
from repro.corpus.identity import COMPANY_NAME, HoneyIdentity, IdentityFactory
from repro.corpus.mapping import ALIAS_LAST_NAMES, CorpusMapper, MappingConfig
from repro.corpus.names import FIRST_NAMES, LAST_NAMES
from repro.errors import ConfigurationError
from repro.sim.clock import from_datetime
from repro.webmail.mailbox import Folder, Mailbox


class ReferenceCorpus:
    """The generator and mapper as first written, kept as the oracle."""

    @dataclass(frozen=True)
    class GeneratedEmail:
        sender_name: str
        recipient_name: str
        subject: str
        body: str
        sent_at: datetime
        topic: str

    @dataclass(frozen=True)
    class MappedEmail:
        sender_name: str
        sender_address: str
        recipient_name: str
        recipient_address: str
        subject: str
        body: str
        sent_at: datetime
        topic: str

    #: The fictitious company replacing the corpus company.
    company_name = "Lumenor"

    class Generator:
        def __init__(self, rng: random.Random) -> None:
            self._rng = rng
            self.company = "Enrova"
            self._topic_names = wordbank.topic_names()
            self._topic_weights = wordbank.topic_weights()
            self._characters = [
                f"{first} {last}"
                for first, last in zip(FIRST_NAMES[:30], LAST_NAMES[:30])
            ]

        def _fill(self, template: str, topic_vocab: tuple[str, ...]) -> str:
            return template.format(
                topic_word=self._rng.choice(topic_vocab),
                core_word=self._rng.choice(wordbank.CORE_BUSINESS),
                counterparty=self._rng.choice(_COUNTERPARTIES),
            )

        def _sentence_pool(
            self, topic: str, topic_vocab: tuple[str, ...]
        ) -> list[str]:
            sentences = [self._fill(t, topic_vocab) for t in _BODY_TEMPLATES]
            # Topic flavour: sprinkle extra topic/filler terms as short notes.
            extra_terms = self._rng.sample(
                list(topic_vocab) + list(wordbank.GENERAL_FILLER), k=4
            )
            sentences.append(
                "Notes: " + ", ".join(sorted(extra_terms)) + "."
            )
            if topic == "finance":
                sentences.append(
                    "The payment account results are listed below the "
                    "statement summary."
                )
            if topic == "personal":
                sentences.append(
                    "Hope the family is doing great; see everyone at the "
                    "birthday party."
                )
            return sentences

        def generate_email(self) -> ReferenceCorpus.GeneratedEmail:
            topic = self._rng.choices(
                self._topic_names, weights=self._topic_weights, k=1
            )[0]
            return self.generate_email_for_topic(topic)

        def generate_email_for_topic(
            self, topic: str
        ) -> ReferenceCorpus.GeneratedEmail:
            if topic not in self._topic_names:
                raise ConfigurationError(f"unknown topic {topic!r}")
            vocab = wordbank.topic_vocabulary(topic)
            sender = self._rng.choice(self._characters)
            recipient = self._rng.choice(
                [c for c in self._characters if c != sender]
            )
            subject = self._fill(self._rng.choice(_SUBJECT_TEMPLATES), vocab)
            opening = self._fill(self._rng.choice(_OPENINGS), vocab)
            pool = self._sentence_pool(topic, vocab)
            n_sentences = self._rng.randrange(3, 7)
            chosen = self._rng.sample(pool, k=min(n_sentences, len(pool)))
            closing = self._fill(self._rng.choice(_CLOSINGS), vocab)
            body_lines = [opening, *chosen, closing]
            body = "\n".join(body_lines)
            body += f"\n{sender}\n{self.company} Corporation"
            offset_days = self._rng.uniform(0, _CORPUS_SPAN_DAYS)
            sent_at = _CORPUS_START + timedelta(days=offset_days)
            return ReferenceCorpus.GeneratedEmail(
                sender_name=sender,
                recipient_name=recipient,
                subject=subject,
                body=body,
                sent_at=sent_at,
                topic=topic,
            )

        def generate_mailbox(
            self, email_count: int
        ) -> list[ReferenceCorpus.GeneratedEmail]:
            if email_count <= 0:
                raise ConfigurationError("email_count must be positive")
            emails = [self.generate_email() for _ in range(email_count)]
            emails.sort(key=lambda e: e.sent_at)
            return emails

    class Mapper:
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
            self._company_re: re.Pattern[str] | None = None

        def _map_character(self, corpus_name: str) -> tuple[str, str]:
            if corpus_name not in self._name_map:
                first = corpus_name.split()[0]
                alias_last = self._rng.choice(
                    ("Hart", "Brooks", "Foster", "Hayes", "Reyes", "Warren",
                     "Dunn", "Pierce", "Sharp", "Boyd")
                )
                full = f"{first} {alias_last}"
                address = (
                    f"{first.lower()}.{alias_last.lower()}@"
                    f"{ReferenceCorpus.company_name.lower()}-corp.com"
                )
                self._name_map[corpus_name] = (full, address)
            return self._name_map[corpus_name]

        def _rewrite_company(self, text: str, original_company: str) -> str:
            if self._company_re is None:
                self._company_re = re.compile(
                    re.escape(original_company), re.IGNORECASE
                )
            return self._company_re.sub(ReferenceCorpus.company_name, text)

        def _shift_time(
            self, sent_at: datetime, corpus_min: datetime, corpus_max: datetime
        ) -> datetime:
            span = (corpus_max - corpus_min).total_seconds()
            if span <= 0:
                fraction = 1.0
            else:
                fraction = (sent_at - corpus_min).total_seconds() / span
            window = timedelta(days=self._config.history_span_days)
            start = self._config.populate_time - window
            return start + fraction * window

        def map_mailbox(
            self,
            emails: list[ReferenceCorpus.GeneratedEmail],
            original_company: str,
        ) -> list[ReferenceCorpus.MappedEmail]:
            if not emails:
                return []
            corpus_min = min(e.sent_at for e in emails)
            corpus_max = max(e.sent_at for e in emails)
            mapped: list[ReferenceCorpus.MappedEmail] = []
            for email in emails:
                sender_name, sender_address = self._map_character(
                    email.sender_name
                )
                subject = self._rewrite_company(email.subject, original_company)
                body = self._rewrite_company(email.body, original_company)
                body = body.replace(email.sender_name, sender_name)
                body = body.replace(
                    email.recipient_name, self._identity.full_name
                )
                mapped.append(
                    ReferenceCorpus.MappedEmail(
                        sender_name=sender_name,
                        sender_address=sender_address,
                        recipient_name=self._identity.full_name,
                        recipient_address=self._identity.address,
                        subject=subject,
                        body=body,
                        sent_at=self._shift_time(
                            email.sent_at, corpus_min, corpus_max
                        ),
                        topic=email.topic,
                    )
                )
            mapped.sort(key=lambda e: e.sent_at)
            return mapped


def _generated(emails) -> list[tuple]:
    """Every rendered field of generated emails, in order (datetimes
    keep their tzinfo in the ``repr``)."""
    return [
        (
            e.sender_name, e.recipient_name, e.subject, e.body,
            repr(e.sent_at), e.topic,
        )
        for e in emails
    ]


def _mapped(messages) -> list[tuple]:
    """Every rendered field of seeded messages, in order."""
    return [
        (
            m.sender_name, m.sender_address, m.recipient_addresses,
            m.subject, m.body, repr(m.received_at), m.flags.read, m.labels,
        )
        for m in messages
    ]


def _reference_mapped(emails) -> list[tuple]:
    """:func:`_mapped` of the reference mapper's records."""
    return [
        (
            e.sender_name, e.sender_address, (e.recipient_address,),
            e.subject, e.body, repr(from_datetime(e.sent_at)), False, set(),
        )
        for e in emails
    ]


# ----------------------------------------------------------------------
# the property: same draws, same messages, same final stream state
# ----------------------------------------------------------------------
TOPICS = wordbank.topic_names()
populate_times = st.datetimes(
    min_value=datetime(2001, 1, 1), max_value=datetime(2030, 1, 1),
    timezones=st.sampled_from(
        (timezone.utc, timezone(timedelta(hours=-5)), timezone(timedelta(hours=9)))
    ),
)
configs = st.builds(
    MappingConfig,
    populate_time=populate_times,
    history_span_days=st.floats(
        min_value=0.001, max_value=4000.0, allow_nan=False
    ),
)


def _identity(seed: int, region: str | None) -> HoneyIdentity:
    return IdentityFactory(random.Random(seed)).create(region)


class TestDrawExact:
    # The example budget comes from the Hypothesis profile
    # (tests/conftest.py): 50 in tier-1, 500 nightly.
    @settings(derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        count=st.integers(1, 300),
        identity_seed=st.integers(0, 2**32),
        region=st.sampled_from((None, "uk", "us_midwest")),
        config=configs,
        singles=st.lists(st.sampled_from((None, *TOPICS)), max_size=4),
    )
    @example(
        seed=0, count=1, identity_seed=0, region=None,
        config=MappingConfig(), singles=[],
    )
    def test_matches_reference(
        self, seed, count, identity_seed, region, config, singles
    ):
        identity = _identity(identity_seed, region)
        fast_rng, reference_rng = random.Random(seed), random.Random(seed)
        fast = CorpusGenerator(fast_rng)
        reference = ReferenceCorpus.Generator(reference_rng)

        # Single emails first (random and fixed topics), then a mailbox
        # remapped for the persona: all one stream, like provisioning.
        for topic in singles:
            if topic is None:
                got, want = fast.generate_email(), reference.generate_email()
            else:
                got = fast.generate_email_for_topic(topic)
                want = reference.generate_email_for_topic(topic)
            assert _generated([got]) == _generated([want])
        emails = fast.generate_mailbox(count)
        reference_emails = reference.generate_mailbox(count)
        assert _generated(emails) == _generated(reference_emails)
        assert fast_rng.getstate() == reference_rng.getstate()

        mapped = CorpusMapper(identity, config, fast_rng).map_mailbox(emails)
        reference_mapped = ReferenceCorpus.Mapper(
            identity, config, reference_rng
        ).map_mailbox(reference_emails, reference.company)
        assert _mapped(mapped) == _reference_mapped(reference_mapped)
        assert fast_rng.getstate() == reference_rng.getstate()
        # The stream goes on identically (the next account's draws).
        assert fast_rng.random() == reference_rng.random()


class TestPoolSentences:
    @pytest.mark.parametrize(
        ("topic", "sentence"),
        [
            ("finance", "The payment account results are listed below"),
            ("personal", "Hope the family is doing great"),
        ],
    )
    def test_topic_sentence_matches_reference(self, topic, sentence):
        fast_rng, reference_rng = random.Random(5), random.Random(5)
        fast = CorpusGenerator(fast_rng)
        reference = ReferenceCorpus.Generator(reference_rng)
        emails = [fast.generate_email_for_topic(topic) for _ in range(60)]
        want = [reference.generate_email_for_topic(topic) for _ in range(60)]
        assert _generated(emails) == _generated(want)
        assert fast_rng.getstate() == reference_rng.getstate()
        # The topic's extra pool sentence (pool index 9) gets picked.
        assert any(sentence in email.body for email in emails)
        assert all(email.topic == topic for email in emails)

    def test_notes_sentence_is_rendered_when_picked(self):
        emails = CorpusGenerator(random.Random(8)).generate_mailbox(40)
        notes = [e for e in emails if "\nNotes: " in e.body]
        assert notes
        for email in notes:
            line = next(
                part for part in email.body.split("\n")
                if part.startswith("Notes: ")
            )
            terms = line[len("Notes: "):-1].split(", ")
            assert len(terms) == 4 and terms == sorted(terms)


class TestSeeding:
    def _reference_inbox(self, seed, identity, config, emails_per_account):
        """The seeding loop as first written, on the reference corpus."""
        rng = random.Random(seed)
        count = rng.randint(*emails_per_account)
        generator = ReferenceCorpus.Generator(rng)
        mapper = ReferenceCorpus.Mapper(identity, config, rng)
        mapped = mapper.map_mailbox(
            generator.generate_mailbox(count), generator.company
        )
        rows = [
            (
                email.sender_name, email.sender_address, (identity.address,),
                email.subject, email.body, from_datetime(email.sent_at),
            )
            for email in mapped
        ]
        return count, rows, rng.getstate()

    def _check_seeding(self, seed, emails_per_account):
        identity = _identity(seed, "uk")
        config = MappingConfig()
        rng = random.Random(seed)
        # Seeding touches only the stream and the account's mailbox.
        factory = HoneyAccountFactory(
            None, None, None, rng, emails_per_account=emails_per_account,
            mapping_config=config,
        )
        account = SimpleNamespace(mailbox=Mailbox(owner=identity.address))
        count = factory._seed_mailbox(account, identity)
        inbox = account.mailbox.messages(Folder.INBOX)
        want_count, want_rows, want_state = self._reference_inbox(
            seed, identity, config, emails_per_account
        )
        assert count == want_count == len(inbox)
        got_rows = [
            (
                m.sender_name, m.sender_address, m.recipient_addresses,
                m.subject, m.body, m.received_at,
            )
            for m in inbox
        ]
        assert got_rows == want_rows
        assert [m.message_id for m in inbox] == [
            f"msg-{identity.address}-{i:06d}" for i in range(1, count + 1)
        ]
        assert not any(m.flags.read for m in inbox)
        assert rng.getstate() == want_state

    @pytest.mark.parametrize("seed", [1, 2016, 90210])
    def test_seed_mailbox_matches_reference(self, seed):
        self._check_seeding(seed, (150, 250))

    @pytest.mark.parametrize(
        "emails_per_account", [(60, 100), (1, 1)], ids=["60-100", "1-1"]
    )
    @pytest.mark.parametrize("seed", [1, 2016])
    def test_small_mailbox_matches_reference(self, seed, emails_per_account):
        # (1, 1): one email, so the corpus time span is zero and the
        # mapper puts it at the end of the history window.
        self._check_seeding(seed, emails_per_account)

    def test_one_generate_and_one_map_per_account(self, monkeypatch):
        from repro.api.registry import scenarios
        from repro.core.experiment import Experiment

        generated, mapped = [], []
        generate = CorpusGenerator.generate_mailbox
        map_mailbox = CorpusMapper.map_mailbox

        def counting_generate(self, email_count):
            emails = generate(self, email_count)
            generated.append((email_count, len(emails)))
            return emails

        def counting_map(self, emails):
            mapped.append(len(emails))
            return map_mailbox(self, emails)

        monkeypatch.setattr(
            CorpusGenerator, "generate_mailbox", counting_generate
        )
        monkeypatch.setattr(CorpusMapper, "map_mailbox", counting_map)
        scenario = (
            scenarios.get("fast").to_builder()
            .with_emails_per_account(3, 6).build()
        )
        honey = Experiment.from_scenario(scenario).provision_accounts()
        seeded = [h.seeded_email_count for h in honey]
        assert len(honey) > 1
        assert generated == [(count, count) for count in seeded]
        assert mapped == seeded


class TestRenderOnce:
    """The fast path renders each email once, already remapped.  That
    equals the reference's render-then-rewrite only while no name the
    reference rewrites occurs in what the draws choose."""

    #: The first names of the corpus's 30 characters.
    FIRST = FIRST_NAMES[:30]

    @staticmethod
    def _pieces() -> list[str]:
        pieces = [
            *_SUBJECT_TEMPLATES, *_OPENINGS, *_BODY_TEMPLATES, *_CLOSINGS,
            *wordbank.CORE_BUSINESS, *wordbank.GENERAL_FILLER,
            *_COUNTERPARTIES, *_EXTRA_LINES.values(), "Notes: ",
        ]
        for topic in TOPICS:
            pieces.extend(wordbank.topic_vocabulary(topic))
        return pieces

    def test_no_rewritten_name_in_any_piece(self):
        companies = (CORPUS_COMPANY.lower(), COMPANY_NAME.lower())
        first_names = {f.lower() for f in self.FIRST}
        for piece in self._pieces():
            words = {w.lower() for w in re.findall(r"[A-Za-z]+", piece)}
            assert not words & first_names, piece
            # The reference's company regex has no word boundaries (so
            # any casing inside a word counts), and its name replaces
            # are case-sensitive substring matches.
            assert not any(c in piece.lower() for c in companies), piece
            assert not any(f in piece for f in self.FIRST), piece

    def test_names_are_distinct(self):
        assert len(set(self.FIRST)) == len(self.FIRST) == 30
        assert not set(ALIAS_LAST_NAMES) & set(LAST_NAMES[:30])
