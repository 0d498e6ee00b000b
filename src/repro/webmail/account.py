"""Webmail accounts: credentials, state, and settings."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.webmail.mailbox import Mailbox


@dataclass(frozen=True)
class Credentials:
    """A username/password pair as leaked on the outlets."""

    address: str
    password: str

    def __post_init__(self) -> None:
        if "@" not in self.address:
            raise ConfigurationError(
                f"address must be fully qualified: {self.address!r}"
            )
        if not self.password:
            raise ConfigurationError("password must be non-empty")

    def with_password(self, new_password: str) -> "Credentials":
        """Credentials with the same address and a new password."""
        return Credentials(self.address, new_password)


class AccountState(enum.Enum):
    """Provider-side lifecycle state of an account."""

    ACTIVE = "active"
    BLOCKED = "blocked"


@dataclass
class WebmailAccount:
    """One account at the simulated provider.

    Attributes:
        credentials: the current (possibly hijacker-changed) credentials.
        mailbox: the account's messages.
        send_from_override: when set, outbound mail is routed to this
            address's mail server instead of real recipients — the paper's
            sinkhole trick for honey accounts.
        suspicious_login_filter: Gmail's login risk analysis; the paper had
            Google disable it for honey accounts so attackers could get in.
    """

    credentials: Credentials
    display_name: str
    mailbox: Mailbox = field(default_factory=Mailbox)
    state: AccountState = AccountState.ACTIVE
    # (mailbox owner tag is bound to the address in __post_init__)
    send_from_override: str | None = None
    suspicious_login_filter: bool = True
    blocked_reason: str | None = None
    blocked_at: float | None = None
    password_changed_at: float | None = None
    password_change_count: int = 0
    #: Called after every password change and block (the scraper's
    #: wake marks).  They must pickle, since checkpoints pickle
    #: accounts.
    _change_hooks: list[Callable[[], None]] = field(
        default_factory=list, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # Message ids minted by this account's mailbox carry the
        # address, keeping them unique across accounts and independent
        # of every other account's activity.
        if self.mailbox.owner == "local":
            self.mailbox.owner = self.credentials.address

    @property
    def address(self) -> str:
        return self.credentials.address

    @property
    def is_blocked(self) -> bool:
        return self.state is AccountState.BLOCKED

    def verify_password(self, password: str) -> bool:
        """Constant-behaviour password check."""
        return self.credentials.password == password

    def change_password(self, new_password: str, at_time: float) -> None:
        """Rotate the password (the hijacker action)."""
        self.credentials = self.credentials.with_password(new_password)
        self.password_changed_at = at_time
        self.password_change_count += 1
        for hook in self._change_hooks:
            hook()

    def block(self, reason: str, at_time: float) -> None:
        """Suspend the account (anti-abuse enforcement)."""
        self.state = AccountState.BLOCKED
        self.blocked_reason = reason
        self.blocked_at = at_time
        for hook in self._change_hooks:
            hook()

    def add_change_hook(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` after every future password change and block."""
        self._change_hooks.append(hook)
