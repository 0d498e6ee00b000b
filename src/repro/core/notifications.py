"""Notification records emitted by the honey monitoring scripts.

The paper's Apps Scripts "send notifications to a dedicated webmail account
under our control whenever an email is read, sent or starred", ship copies
of new drafts, and emit a daily heartbeat attesting the account is alive.
Here each notification is a structured record appended to the monitor's
notification store; ``body_copy`` carries message content exactly where the
paper's scripts shipped it (drafts always; read mail content is what the
TF-IDF analysis consumed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class NotificationKind(enum.Enum):
    """What a monitoring-script notification reports."""

    READ = "read"
    SENT = "sent"
    STARRED = "starred"
    DRAFT = "draft"
    HEARTBEAT = "heartbeat"
    QUOTA_WARNING = "quota_warning"


@dataclass(frozen=True)
class NotificationRecord:
    """One notification received by the monitoring account.

    Attributes:
        kind: the event type.
        account_address: honey account that produced the event.
        timestamp: sim-time at which the *script* reported the event (the
            scan that discovered it, not the instant it happened — the
            10-minute cadence is visible in the data, as in the paper).
        message_id: subject message, when applicable.
        subject: subject line of the message, when applicable.
        body_copy: full text for drafts and read messages; empty otherwise.
    """

    kind: NotificationKind
    account_address: str
    timestamp: float
    message_id: str = ""
    subject: str = ""
    body_copy: str = ""

    @property
    def has_content(self) -> bool:
        return bool(self.body_copy)


def heartbeat(account_address: str, timestamp: float) -> NotificationRecord:
    """Build the daily keep-alive notification."""
    return NotificationRecord(
        kind=NotificationKind.HEARTBEAT,
        account_address=account_address,
        timestamp=timestamp,
    )


def notification_to_fields(record: NotificationRecord) -> tuple:
    """Flatten a record into the ``NOTIFICATION_FIELDS`` column order."""
    return (
        record.kind.value,
        record.account_address,
        record.timestamp,
        record.message_id,
        record.subject,
        record.body_copy,
    )
