"""Tests for repro.webmail.mailbox and message."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoSuchMessageError
from repro.webmail.mailbox import Folder, Mailbox
from repro.webmail.message import EmailMessage


def make_message(subject="hello", body="world"):
    return EmailMessage(
        sender_name="A",
        sender_address="a@x.example",
        recipient_addresses=("b@x.example",),
        subject=subject,
        body=body,
        received_at=0.0,
    )


class TestStorage:
    def test_add_and_get(self):
        mailbox = Mailbox()
        message = mailbox.add(Folder.INBOX, make_message())
        assert mailbox.get(message.message_id) is message
        assert mailbox.folder_of(message.message_id) is Folder.INBOX

    def test_unique_message_ids(self):
        # Ids are minted by the mailbox that first files a message, so
        # a freshly constructed message has none; filing 100 messages
        # yields 100 distinct per-mailbox ids.
        assert make_message().message_id == ""
        mailbox = Mailbox()
        ids = {
            mailbox.add(Folder.INBOX, make_message()).message_id
            for _ in range(100)
        }
        assert len(ids) == 100

    def test_ids_are_per_mailbox_and_owner_tagged(self):
        # Two mailboxes mint independent sequences: what one account
        # files never shifts another account's ids (shard stability).
        a = Mailbox(owner="a@x.example")
        b = Mailbox(owner="b@x.example")
        first_a = a.add(Folder.INBOX, make_message()).message_id
        for _ in range(5):
            a.add(Folder.INBOX, make_message())
        first_b = b.add(Folder.INBOX, make_message()).message_id
        assert first_a == "msg-a@x.example-000001"
        assert first_b == "msg-b@x.example-000001"

    def test_filed_message_keeps_its_id(self):
        # A message delivered to a second mailbox keeps the id the
        # first one minted.
        a = Mailbox(owner="a@x.example")
        b = Mailbox(owner="b@x.example")
        message = a.add(Folder.SENT, make_message())
        b.add(Folder.INBOX, message)
        assert message.message_id == "msg-a@x.example-000001"
        assert b.get(message.message_id) is message

    def test_unknown_id(self):
        with pytest.raises(NoSuchMessageError):
            Mailbox().get("msg-nope")

    def test_move_draft_to_sent(self):
        mailbox = Mailbox()
        draft = mailbox.add(Folder.DRAFTS, make_message())
        mailbox.move(draft.message_id, Folder.SENT)
        assert mailbox.folder_of(draft.message_id) is Folder.SENT
        assert mailbox.count(Folder.DRAFTS) == 0
        assert mailbox.count(Folder.SENT) == 1

    def test_remove(self):
        mailbox = Mailbox()
        message = mailbox.add(Folder.INBOX, make_message())
        mailbox.remove(message.message_id)
        with pytest.raises(NoSuchMessageError):
            mailbox.get(message.message_id)

    def test_counts(self):
        mailbox = Mailbox()
        mailbox.add(Folder.INBOX, make_message())
        mailbox.add(Folder.SENT, make_message())
        assert mailbox.count() == 2
        assert mailbox.count(Folder.INBOX) == 1


class TestFlags:
    def test_unread_count(self):
        mailbox = Mailbox()
        a = mailbox.add(Folder.INBOX, make_message())
        mailbox.add(Folder.INBOX, make_message())
        assert mailbox.unread_count() == 2
        mailbox.mark_read(a.message_id)
        assert mailbox.unread_count() == 1

    def test_star_unstar(self):
        mailbox = Mailbox()
        message = mailbox.add(Folder.INBOX, make_message())
        mailbox.star(message.message_id)
        assert mailbox.starred_messages() == (message,)
        mailbox.unstar(message.message_id)
        assert mailbox.starred_messages() == ()

    def test_labels(self):
        mailbox = Mailbox()
        message = mailbox.add(Folder.INBOX, make_message())
        mailbox.apply_label(message.message_id, "important")
        assert "important" in message.labels


class TestChangelog:
    def test_add_kinds(self):
        mailbox = Mailbox()
        mailbox.add(Folder.INBOX, make_message())
        mailbox.add(Folder.DRAFTS, make_message())
        mailbox.add(Folder.SENT, make_message())
        changes, _ = mailbox.changes_since(0)
        assert [c.kind for c in changes] == [
            "received", "draft_created", "sent",
        ]

    def test_read_logged_once(self):
        mailbox = Mailbox()
        message = mailbox.add(Folder.INBOX, make_message())
        _, cursor = mailbox.changes_since(0)
        mailbox.mark_read(message.message_id)
        mailbox.mark_read(message.message_id)  # re-opening changes nothing
        changes, _ = mailbox.changes_since(cursor)
        assert [c.kind for c in changes] == ["read"]

    def test_star_logged_once(self):
        mailbox = Mailbox()
        message = mailbox.add(Folder.INBOX, make_message())
        _, cursor = mailbox.changes_since(0)
        mailbox.star(message.message_id)
        mailbox.star(message.message_id)
        changes, _ = mailbox.changes_since(cursor)
        assert [c.kind for c in changes] == ["starred"]

    def test_move_to_sent_logged(self):
        mailbox = Mailbox()
        draft = mailbox.add(Folder.DRAFTS, make_message())
        _, cursor = mailbox.changes_since(0)
        mailbox.move(draft.message_id, Folder.SENT)
        changes, _ = mailbox.changes_since(cursor)
        assert [c.kind for c in changes] == ["sent"]

    def test_cursor_semantics(self):
        mailbox = Mailbox()
        mailbox.add(Folder.INBOX, make_message())
        changes, cursor = mailbox.changes_since(0)
        assert len(changes) == 1
        again, cursor2 = mailbox.changes_since(cursor)
        assert again == []
        assert cursor2 == cursor

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(["read", "star"]), max_size=30))
    def test_changelog_matches_snapshot_diff(self, operations):
        """Property: replaying the changelog reproduces the state diff."""
        mailbox = Mailbox()
        messages = [
            mailbox.add(Folder.INBOX, make_message()) for _ in range(3)
        ]
        before = mailbox.snapshot()
        _, cursor = mailbox.changes_since(0)
        for index, op in enumerate(operations):
            target = messages[index % 3]
            if op == "read":
                mailbox.mark_read(target.message_id)
            else:
                mailbox.star(target.message_id)
        after = mailbox.snapshot()
        changes, _ = mailbox.changes_since(cursor)
        changed_ids = {c.message_id for c in changes}
        for message_id in before:
            if before[message_id] != after[message_id]:
                assert message_id in changed_ids


class TestMessage:
    def test_matches_subject_and_body(self):
        message = make_message(subject="Invoice due", body="please pay")
        assert message.matches("invoice")
        assert message.matches("PAY")
        assert not message.matches("bitcoin")

    def test_text(self):
        message = make_message(subject="s", body="b")
        assert message.text == "s\nb"

    def test_snapshot_fields(self):
        message = make_message()
        snap = message.snapshot()
        assert snap["read"] is False
        assert snap["starred"] is False
        assert snap["message_id"] == message.message_id
