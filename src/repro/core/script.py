"""The honey monitoring script (the paper's Google Apps Script).

One :class:`HoneyMonitorScript` is installed per honey account, hidden in a
spreadsheet, with a 10-minute time trigger.  Each run scans the mailbox for
changes since the previous run and reports read / sent / starred events and
copies of new drafts to the notification store; a daily heartbeat attests
the account is alive.  The script keeps running after a hijacker changes
the password — only deletion or provider suspension stops it — which is
why the paper kept receiving interaction data from hijacked accounts.

The script also owns the conditions under which a run can do anything
(:class:`~repro.webmail.appsscript.EventDrivenScript`): its mailbox
changed since the last run, its heartbeat is due, and it has not been
halted by a block.  The runtime executes it only then; every other run
would read an unchanged changelog and skip the heartbeat.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.notifications import NotificationKind, NotificationRecord
from repro.sim.clock import days
from repro.webmail.account import WebmailAccount

#: Type of the sink the script reports to (the notification store).
NotificationSink = Callable[[NotificationRecord], None]

#: Change kinds the script reports, mapped to notification kinds.
_REPORTED_CHANGES: dict[str, NotificationKind] = {
    "read": NotificationKind.READ,
    "sent": NotificationKind.SENT,
    "starred": NotificationKind.STARRED,
    "draft_created": NotificationKind.DRAFT,
}

#: Kinds whose notifications carry a full copy of the message text.
_CONTENT_KINDS = {NotificationKind.DRAFT, NotificationKind.READ}


class HoneyMonitorScript:
    """Account-bound script implementing the AppsScript protocol.

    Args:
        account: the honey account to watch.
        sink: callable receiving each :class:`NotificationRecord`.
        heartbeat_period: seconds between keep-alive notifications
            (the paper uses one per day).
        execution_cost: simulated "computer time" charged per run against
            the provider quota; the two quota-warning case-study accounts
            are provisioned with a higher cost.
    """

    def __init__(
        self,
        account: WebmailAccount,
        sink: NotificationSink,
        *,
        heartbeat_period: float = days(1),
        execution_cost: float = 0.005,
    ) -> None:
        self._account = account
        self._sink = sink
        self._cursor = 0
        self._heartbeat_period = heartbeat_period
        self._last_heartbeat = float("-inf")
        self.execution_cost = execution_cost
        self.scan_count = 0
        self.reported_count = 0

    @property
    def account_address(self) -> str:
        return self._account.address

    # ------------------------------------------------------------------
    # wake conditions (the EventDrivenScript protocol)
    # ------------------------------------------------------------------
    def watch(self, on_change: Callable[[], None]) -> None:
        """Call ``on_change()`` whenever the mailbox records a change."""
        self._account.mailbox.add_change_hook(on_change)

    def unwatch(self, on_change: Callable[[], None]) -> None:
        self._account.mailbox.remove_change_hook(on_change)

    @property
    def heartbeat_key(self) -> Hashable:
        """Scripts with equal keys are heartbeat-due at the same instants."""
        return (self._last_heartbeat, self._heartbeat_period)

    def heartbeat_due(self, now: float) -> bool:
        return now - self._last_heartbeat >= self._heartbeat_period

    @property
    def halted(self) -> bool:
        """True once the account is blocked; a block is permanent, so
        every later run is a no-op."""
        return self._account.is_blocked

    def run(self, now: float) -> None:
        """One trigger firing: scan for changes, then maybe heartbeat."""
        self.scan_count += 1
        if self._account.is_blocked:
            # Provider suspension halts script execution, as at Google.
            return
        changes, self._cursor = self._account.mailbox.changes_since(
            self._cursor
        )
        for change in changes:
            kind = _REPORTED_CHANGES.get(change.kind)
            if kind is None:
                continue  # "received" is not reported; accounts get no new mail
            try:
                message = self._account.mailbox.get(change.message_id)
            except Exception:
                continue  # message deleted between change and scan
            body_copy = (
                message.text if kind in _CONTENT_KINDS else ""
            )
            self._sink(
                NotificationRecord(
                    kind=kind,
                    account_address=self._account.address,
                    timestamp=now,
                    message_id=change.message_id,
                    subject=message.subject,
                    body_copy=body_copy,
                )
            )
            self.reported_count += 1
        if self.heartbeat_due(now):
            self._last_heartbeat = now
            self._sink(
                NotificationRecord(
                    kind=NotificationKind.HEARTBEAT,
                    account_address=self._account.address,
                    timestamp=now,
                )
            )
