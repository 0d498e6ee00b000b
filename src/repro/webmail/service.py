"""The webmail service facade.

:class:`WebmailService` is the provider: it owns accounts, sessions, the
activity page, outbound routing, anti-abuse, and (via an attached runtime)
Apps Scripts.  Attackers and the monitoring infrastructure both interact
with accounts exclusively through this API, so everything the analysis
sees flows through the same choke points as in the real service.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    AccountBlockedError,
    AuthenticationError,
    NoSuchAccountError,
)
from repro.netsim.fingerprint import fingerprint_from_user_agent
from repro.netsim.geo import GeoDatabase
from repro.netsim.ipaddr import IPAddress
from repro.webmail.abuse import AbusePolicy, AntiAbuseEngine
from repro.webmail.account import Credentials, WebmailAccount
from repro.webmail.activity import AccessEvent, ActivityPage
from repro.webmail.mailbox import Folder
from repro.webmail.message import EmailMessage
from repro.webmail.search import SearchQuery, search_messages
from repro.webmail.sessions import Session, SessionManager
from repro.webmail.smtp import OutboundRouter, SentEmail


@dataclass(frozen=True)
class LoginContext:
    """Everything a connection presents at login."""

    device_id: str
    ip_address: IPAddress
    user_agent: str


class WebmailService:
    """The simulated provider ("Gmail" in the paper).

    Args:
        geo: geolocation database used to resolve login IPs.
        rng: provider-side randomness (cookie minting, abuse sampling).
        abuse_policy: enforcement thresholds.
    """

    def __init__(
        self,
        geo: GeoDatabase,
        rng: random.Random,
        *,
        abuse_policy: AbusePolicy | None = None,
    ) -> None:
        self._geo = geo
        self._accounts: dict[str, WebmailAccount] = {}
        self.sessions = SessionManager(rng=rng)
        self.activity = ActivityPage()
        self.router = OutboundRouter()
        self.abuse = AntiAbuseEngine(
            policy=abuse_policy or AbusePolicy(), rng=rng
        )
        self.search_log: list[SearchQuery] = []
        #: Optional hook fired on every bad-password login attempt with
        #: ``(address, context, now)`` — the defense layer counts
        #: post-reset attacker lockouts through it.  ``None`` (the
        #: default) adds nothing to the login path.
        self.auth_failure_listener = None
        self.router.set_inbound_delivery(self._deliver_local)

    # ------------------------------------------------------------------
    # account management
    # ------------------------------------------------------------------
    def create_account(
        self, credentials: Credentials, display_name: str
    ) -> WebmailAccount:
        """Register a new account.

        Raises:
            NoSuchAccountError: if the address already exists (reuse of the
                error type keeps the hierarchy small; message is explicit).
        """
        if credentials.address in self._accounts:
            raise NoSuchAccountError(
                f"address already registered: {credentials.address}"
            )
        account = WebmailAccount(
            credentials=credentials, display_name=display_name
        )
        self._accounts[credentials.address] = account
        return account

    def account(self, address: str) -> WebmailAccount:
        """Fetch an account by address.

        Raises:
            NoSuchAccountError: when the address is unknown.
        """
        try:
            return self._accounts[address]
        except KeyError as exc:
            raise NoSuchAccountError(address) from exc

    def has_account(self, address: str) -> bool:
        return address in self._accounts

    @property
    def account_addresses(self) -> tuple[str, ...]:
        return tuple(self._accounts)

    def _deliver_local(self, recipient: str, message: EmailMessage) -> bool:
        """Deliver a message to a local inbox if the recipient is ours."""
        account = self._accounts.get(recipient)
        if account is None:
            return False
        account.mailbox.add(Folder.INBOX, message)
        return True

    def deliver_inbound(self, recipient: str, message: EmailMessage) -> bool:
        """External-world mail arriving at a local account (e.g. forum
        registration confirmations sent *to* a honey address)."""
        return self._deliver_local(recipient, message)

    # ------------------------------------------------------------------
    # login / sessions
    # ------------------------------------------------------------------
    def authenticate(
        self,
        address: str,
        password: str,
        context: LoginContext,
        now: float,
    ) -> WebmailAccount:
        """Check a credential without opening a session.

        The one place login checks live: :meth:`login` calls it, and
        the monitoring scraper calls it alone (its visits need no
        session, see :mod:`repro.core.monitor`).  A bad password fires
        :attr:`auth_failure_listener` before raising.

        Raises:
            NoSuchAccountError: unknown address.
            AccountBlockedError: the account was suspended.
            AuthenticationError: wrong password.
        """
        account = self.account(address)
        if account.is_blocked:
            raise AccountBlockedError(address, account.blocked_reason or "")
        if not account.verify_password(password):
            if self.auth_failure_listener is not None:
                self.auth_failure_listener(address, context, now)
            raise AuthenticationError(f"bad password for {address}")
        return account

    def login(
        self,
        address: str,
        password: str,
        context: LoginContext,
        now: float,
    ) -> Session:
        """Authenticate and open a session, recording the access.

        Raises:
            NoSuchAccountError: unknown address.
            AccountBlockedError: the account was suspended.
            AuthenticationError: wrong password.
        """
        self.authenticate(address, password, context, now)
        session = self.sessions.open_session(
            context.device_id, address, now
        )
        self._record_access(session, context, now)
        return session

    def _record_access(
        self, session: Session, context: LoginContext, now: float
    ) -> None:
        event = AccessEvent(
            account_address=session.account_address,
            cookie=session.cookie,
            ip_address=context.ip_address,
            location=self._geo.locate(context.ip_address),
            fingerprint=fingerprint_from_user_agent(context.user_agent),
            timestamp=now,
        )
        self.activity.record(event)

    def touch(self, session: Session, now: float) -> None:
        """Mark continued activity on a session (extends its duration)."""
        session.touch(now)

    def logout(self, session: Session) -> None:
        self.sessions.revoke(session.session_id)

    # ------------------------------------------------------------------
    # mailbox operations (session-scoped)
    # ------------------------------------------------------------------
    def _account_for_session(self, session: Session) -> WebmailAccount:
        account = self.account(session.account_address)
        if account.is_blocked:
            raise AccountBlockedError(
                account.address, account.blocked_reason or ""
            )
        return account

    def read_message(
        self, session: Session, message_id: str, now: float
    ) -> EmailMessage:
        """Open a message (marks it read)."""
        account = self._account_for_session(session)
        session.touch(now)
        return account.mailbox.mark_read(message_id)

    def star_message(
        self, session: Session, message_id: str, now: float
    ) -> EmailMessage:
        account = self._account_for_session(session)
        session.touch(now)
        return account.mailbox.star(message_id)

    def search(
        self, session: Session, query: str, now: float
    ) -> list[EmailMessage]:
        """Run a mailbox search, logging the query (ground truth only)."""
        account = self._account_for_session(session)
        session.touch(now)
        results = search_messages(account.mailbox, query)
        self.search_log.append(
            SearchQuery(
                account_address=account.address,
                query=query,
                timestamp=now,
                result_count=len(results),
            )
        )
        return results

    def create_draft(
        self,
        session: Session,
        subject: str,
        body: str,
        recipients: tuple[str, ...],
        now: float,
    ) -> EmailMessage:
        """Save a draft (content lands in the Drafts folder)."""
        account = self._account_for_session(session)
        session.touch(now)
        draft = EmailMessage(
            sender_name=account.display_name,
            sender_address=account.address,
            recipient_addresses=recipients,
            subject=subject,
            body=body,
            received_at=now,
        )
        account.mailbox.add(Folder.DRAFTS, draft)
        return draft

    def send_email(
        self,
        session: Session,
        subject: str,
        body: str,
        recipients: tuple[str, ...],
        now: float,
        *,
        draft_id: str | None = None,
    ) -> SentEmail:
        """Send an email (or a previously saved draft).

        The send is routed through the outbound router (sinkhole-aware) and
        scored by anti-abuse, which may suspend the account.
        """
        account = self._account_for_session(session)
        session.touch(now)
        if draft_id is not None:
            message = account.mailbox.get(draft_id)
            account.mailbox.move(draft_id, Folder.SENT)
        else:
            message = EmailMessage(
                sender_name=account.display_name,
                sender_address=account.address,
                recipient_addresses=recipients,
                subject=subject,
                body=body,
                received_at=now,
            )
            account.mailbox.add(Folder.SENT, message)
        sent = self.router.send(
            account.address,
            message,
            recipients,
            send_from_override=account.send_from_override,
            timestamp=now,
        )
        blocked = self.abuse.observe_send(account, len(recipients), now)
        if blocked:
            self.sessions.revoke_account_sessions(account.address)
        return sent

    def change_password(
        self, session: Session, new_password: str, now: float
    ) -> None:
        """Change the account password (the hijacker move).

        Other devices' cookies stay valid for mailbox actions already in
        flight, but new logins require the new password — which locks out
        the monitoring scraper exactly as in the paper.
        """
        account = self._account_for_session(session)
        session.touch(now)
        account.change_password(new_password, now)
        blocked = self.abuse.observe_password_change(account, now)
        if blocked:
            self.sessions.revoke_account_sessions(account.address)
