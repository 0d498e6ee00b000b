"""Outbound mail routing, send-from overrides, and delivery accounting.

The honey accounts are configured so "all emails sent from the account
honeypots are delivered to [a] mailserver, which simply dumps the emails
to disk and does not forward them to the intended destination".
:class:`OutboundRouter` implements that: destinations are resolved per
account, and sinkholed mail is handed to the registered sink instead of
being delivered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.webmail.message import EmailMessage


class DeliveryOutcome(enum.Enum):
    """What happened to one outbound email."""

    DELIVERED = "delivered"
    SINKHOLED = "sinkholed"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class SentEmail:
    """Provider-side record of an outbound send attempt."""

    account_address: str
    message: EmailMessage
    recipients: tuple[str, ...]
    outcome: DeliveryOutcome
    timestamp: float


class MailSink(Protocol):
    """Anything that can swallow sinkholed mail (the sinkhole server)."""

    def receive(self, sent: SentEmail) -> None:  # pragma: no cover
        """Accept one sinkholed email."""
        ...


@dataclass
class OutboundRouter:
    """Routes outbound mail, honouring per-account sinkhole overrides."""

    _mail_sinks: dict[str, MailSink] = field(default_factory=dict)
    _ledger: list[SentEmail] = field(default_factory=list)
    _inbound_delivery: Callable[[str, EmailMessage], bool] | None = None

    def register_sink(self, sink_address: str, sink: MailSink) -> None:
        """Register the mail sink behind ``sink_address``."""
        self._mail_sinks[sink_address] = sink

    def set_inbound_delivery(
        self, deliver: Callable[[str, EmailMessage], bool]
    ) -> None:
        """Install the callback that delivers to local provider accounts."""
        self._inbound_delivery = deliver

    def send(
        self,
        account_address: str,
        message: EmailMessage,
        recipients: tuple[str, ...],
        *,
        send_from_override: str | None,
        timestamp: float,
    ) -> SentEmail:
        """Route one outbound email and record the outcome.

        When the account carries a send-from override pointing at a
        registered sink, the mail is sinkholed; otherwise it is delivered
        to any local recipients (remote ones are assumed delivered).
        """
        if send_from_override is not None and send_from_override in self._mail_sinks:
            outcome = DeliveryOutcome.SINKHOLED
            sent = SentEmail(
                account_address=account_address,
                message=message,
                recipients=recipients,
                outcome=outcome,
                timestamp=timestamp,
            )
            self._mail_sinks[send_from_override].receive(sent)
        else:
            if self._inbound_delivery is not None:
                for recipient in recipients:
                    self._inbound_delivery(recipient, message)
            sent = SentEmail(
                account_address=account_address,
                message=message,
                recipients=recipients,
                outcome=DeliveryOutcome.DELIVERED,
                timestamp=timestamp,
            )
        self._ledger.append(sent)
        return sent

    def record_blocked(
        self,
        account_address: str,
        message: EmailMessage,
        recipients: tuple[str, ...],
        timestamp: float,
    ) -> SentEmail:
        """Record a send attempt rejected by anti-abuse."""
        sent = SentEmail(
            account_address=account_address,
            message=message,
            recipients=recipients,
            outcome=DeliveryOutcome.BLOCKED,
            timestamp=timestamp,
        )
        self._ledger.append(sent)
        return sent

    @property
    def ledger(self) -> tuple[SentEmail, ...]:
        """Every send attempt seen by the router."""
        return tuple(self._ledger)

    def sent_by(self, account_address: str) -> tuple[SentEmail, ...]:
        """Send attempts from one account."""
        return tuple(
            s for s in self._ledger if s.account_address == account_address
        )
