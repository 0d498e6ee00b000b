"""Apps-Script-like scripting runtime with time triggers and quotas.

Google Apps Script lets account owners attach scripts with time-driven
triggers; the paper's monitor scans mailboxes every 10 minutes and sends a
daily heartbeat, hiding the script inside a spreadsheet.  Google also
enforces execution-time quotas — two honey accounts received "using too
much computer time" notifications, which attackers then read (a case study
in Section 4.7).

:class:`AppsScriptRuntime` reproduces those semantics: scripts are bound to
accounts, fire on periodic triggers, accrue simulated execution time
against a daily quota, and keep running even when the account password
changes (only deletion of the script, or account suspension by the
provider, stops them).

Scans are event-driven.  Same-cadence, same-phase triggers share one
:class:`~repro.sim.process.PeriodicBatch` tick, so the heap sees one
event per tick exactly as if every trigger fired, but a tick executes
only the installations that have work:

* a script whose mailbox changed since its last run (the mailbox's
  change hook marks the installation dirty);
* a script whose heartbeat is due, evaluated once per group of scripts
  sharing a heartbeat key rather than once per script;
* every script on an account whose quota can trip: those poll and
  charge on every tick, so quota trips and the notices they send land
  exactly where per-tick polling put them.

Any other run would read an unchanged changelog and skip the heartbeat,
so skipping it changes nothing but the run counters.  The runtime
relies on two invariants.  A block is permanent: once a run finds its
account blocked, the installation is parked and never woken again.  A
light account can never reach its quota: an account polls once the
summed worst-case daily cost of every script ever installed on it
(``execution_cost`` times the most ticks one quota window can hold)
reaches the limit, so an account that does not poll could not have
tripped.  When an account starts polling mid-run, the charges its
skipped ticks would have made are replayed from the tick log first.
Scripts that do not implement :class:`EventDrivenScript` poll always.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Protocol, runtime_checkable

from repro.errors import QuotaExceededError, ConfigurationError
from repro.sim.clock import days
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicBatch


class AppsScript(Protocol):
    """Interface for account-bound scripts."""

    #: Simulated execution cost (seconds of "computer time") per run.
    execution_cost: float

    def run(self, now: float) -> None:  # pragma: no cover - protocol
        """Execute one trigger firing at sim-time ``now``."""
        ...


@runtime_checkable
class EventDrivenScript(AppsScript, Protocol):
    """A script that declares when a run can have any effect.

    A run at ``now`` must be a no-op, apart from the script's own
    counters, when ``halted`` is true, or when ``heartbeat_due(now)`` is
    false and ``on_change`` has not been called since the script's
    previous run (a first run always has work).  ``halted`` must never
    revert, and scripts with equal ``heartbeat_key`` must agree on
    ``heartbeat_due`` at every instant.
    """

    def watch(self, on_change: Callable[[], None]) -> None: ...

    def unwatch(self, on_change: Callable[[], None]) -> None: ...

    @property
    def heartbeat_key(self) -> Hashable: ...

    def heartbeat_due(self, now: float) -> bool: ...

    @property
    def halted(self) -> bool: ...


@dataclass(slots=True)
class ScriptQuota:
    """Daily execution-time budget for one account's scripts."""

    daily_limit_seconds: float = 90.0
    used_seconds: float = 0.0
    window_start: float = 0.0

    def charge(self, cost: float, now: float) -> None:
        """Consume quota; resets at day boundaries.

        Raises:
            QuotaExceededError: when the daily budget is exhausted.
        """
        if now - self.window_start >= days(1):
            self.window_start = now - (now - self.window_start) % days(1)
            self.used_seconds = 0.0
        self.used_seconds += cost
        if self.used_seconds > self.daily_limit_seconds:
            raise QuotaExceededError(
                f"daily script quota exceeded: {self.used_seconds:.1f}s "
                f"> {self.daily_limit_seconds:.1f}s"
            )


class _Cadence:
    """The installations sharing one trigger batch, and which have work.

    ``dirty`` holds ids whose mailbox changed since their last run,
    ``beats`` groups the ids that have run by heartbeat key, and
    ``pollers`` lists, in install order, the ids that run every tick.
    """

    def __init__(self, batch: PeriodicBatch) -> None:
        self.batch = batch
        self.live = 0
        self.dirty: set[int] = set()
        self.beats: dict[Hashable, set[int]] = {}
        self.pollers: list[int] = []


@dataclass
class _Installation:
    """One script installed on one account.

    ``joined`` and ``left`` bound, as tick-log indices, the ticks whose
    quota charges a catch-up replays for it.
    """

    account_address: str
    script: AppsScript
    cadence: _Cadence
    hidden_in: str
    joined: int
    left: int | None = None
    deleted: bool = False
    polling: bool = False
    parked: bool = False
    on_change: Callable[[], None] | None = None
    beat_key: Hashable | None = None


class AppsScriptRuntime:
    """Executes installed scripts on their time triggers.

    Args:
        sim: the simulation engine providing triggers.
        quota_notifier: callback invoked as ``(account_address, now)``
            whenever a script run trips the daily quota; the honey
            framework wires this to the provider's notification email
            ("using too much computer time").

    ``runs_executed`` counts script runs that executed (not ticks times
    installations) and ``quota_trips`` counts runs the quota refused.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        quota_notifier: Callable[[str, float], None] | None = None,
        daily_quota_seconds: float = 90.0,
    ) -> None:
        self._sim = sim
        self._installations: dict[int, _Installation] = {}
        self._quotas: dict[str, ScriptQuota] = {}
        self._quota_notifier = quota_notifier
        self._daily_quota_seconds = daily_quota_seconds
        self._next_id = 1
        self._cadences: list[_Cadence] = []
        #: account -> summed worst-case cost per quota window.
        self._quota_bounds: dict[str, float] = {}
        self._polling_accounts: set[str] = set()
        #: ``(time, cadence)`` of every tick, in firing order.
        self._tick_log: list[tuple[float, _Cadence]] = []
        self.runs_executed = 0
        self.quota_trips = 0

    def _cadence_for(self, period: float, start_delay: float | None) -> _Cadence:
        """The live cadence whose pending tick matches ``now +
        start_delay``, creating one when no compatible batch exists."""
        first_delay = float(period) if start_delay is None else float(start_delay)
        first_time = self._sim.clock.now + first_delay
        for cadence in self._cadences:
            if cadence.batch.matches(period, first_time):
                return cadence
        cadence = _Cadence(
            PeriodicBatch(
                self._sim,
                period,
                start_delay=first_delay,
                label=f"apps-script:batch:{period:g}s",
            )
        )
        # partial (not a closure) so a checkpointed world pickles: the
        # event queue holds these callbacks mid-run.
        cadence.batch.add(partial(self._tick, cadence))
        self._cadences = [c for c in self._cadences if not c.batch.stopped]
        self._cadences.append(cadence)
        return cadence

    def install(
        self,
        account_address: str,
        script: AppsScript,
        *,
        period: float,
        start_delay: float | None = None,
        hidden_in: str = "spreadsheet:Budget2015",
    ) -> int:
        """Install ``script`` on an account with a time trigger.

        Returns an installation id usable with :meth:`uninstall`.
        """
        if period <= 0:
            raise ConfigurationError("trigger period must be positive")
        installation_id = self._next_id
        self._next_id += 1
        cadence = self._cadence_for(period, start_delay)
        installation = _Installation(
            account_address=account_address,
            script=script,
            cadence=cadence,
            hidden_in=hidden_in,
            joined=len(self._tick_log),
        )
        self._installations[installation_id] = installation
        cadence.live += 1
        self._quotas.setdefault(
            account_address,
            ScriptQuota(daily_limit_seconds=self._daily_quota_seconds),
        )
        if isinstance(script, EventDrivenScript):
            # A quota window can hold at most floor(day / period) + 1
            # ticks; one more tick of slack absorbs float rounding.
            ticks_per_window = math.floor(days(1) / period) + 2
            bound = script.execution_cost * ticks_per_window
        else:
            bound = math.inf
        self._quota_bounds[account_address] = (
            self._quota_bounds.get(account_address, 0.0) + bound
        )
        if account_address in self._polling_accounts:
            self._start_polling_one(installation_id, installation)
        elif self._quota_bounds[account_address] >= self._daily_quota_seconds:
            self._start_polling(account_address)
        else:
            installation.on_change = partial(cadence.dirty.add, installation_id)
            script.watch(installation.on_change)
            cadence.dirty.add(installation_id)  # the first run always has work
        return installation_id

    # ------------------------------------------------------------------
    # quota polling
    # ------------------------------------------------------------------
    def _start_polling(self, account_address: str) -> None:
        """Make every script on the account poll from the next tick.

        The account's quota was never charged while it did not poll, so
        first replay, in firing order, the charges every tick it skipped
        would have made.  None can trip: the account's bound was below
        the limit until now.
        """
        self._polling_accounts.add(account_address)
        quota = self._quotas[account_address]
        mine = [
            (iid, inst)
            for iid, inst in self._installations.items()
            if inst.account_address == account_address
        ]
        start = min(inst.joined for _, inst in mine)
        for index, (now, cadence) in enumerate(
            self._tick_log[start:], start
        ):
            for _, inst in mine:
                if (
                    inst.cadence is cadence
                    and inst.joined <= index
                    and (inst.left is None or index < inst.left)
                ):
                    quota.charge(inst.script.execution_cost, now)
        for iid, inst in mine:
            if not inst.deleted:
                self._start_polling_one(iid, inst)

    def _start_polling_one(self, installation_id: int, inst: _Installation) -> None:
        self._stop_waking(installation_id, inst)
        inst.parked = False
        inst.polling = True
        insort(inst.cadence.pollers, installation_id)

    def _stop_waking(self, installation_id: int, inst: _Installation) -> None:
        """Drop the installation's change hook and heartbeat group."""
        cadence = inst.cadence
        if inst.on_change is not None:
            inst.script.unwatch(inst.on_change)
            inst.on_change = None
        cadence.dirty.discard(installation_id)
        self._leave_beat_group(installation_id, inst)

    def _leave_beat_group(self, installation_id: int, inst: _Installation) -> None:
        if inst.beat_key is None:
            return
        beats = inst.cadence.beats
        beats[inst.beat_key].discard(installation_id)
        if not beats[inst.beat_key]:
            del beats[inst.beat_key]
        inst.beat_key = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _tick(self, cadence: _Cadence) -> None:
        """One batch tick: run the due installations in install order."""
        now = self._sim.clock.now
        self._tick_log.append((now, cadence))
        installations = self._installations
        dirty = cadence.dirty
        due = list(cadence.pollers)
        due.extend(dirty)
        dirty.clear()
        for group in cadence.beats.values():
            # Equal keys agree on due-ness: ask any one member.
            if installations[next(iter(group))].script.heartbeat_due(now):
                due.extend(group)
        if not due:
            return
        heapq.heapify(due)
        handler = self._sim.error_handler
        last = 0
        while due:
            installation_id = heapq.heappop(due)
            if installation_id <= last:
                continue  # listed for two reasons
            last = installation_id
            if handler is None:
                self._execute(installation_id, now)
            else:
                # Per-installation isolation, as per-trigger events had.
                try:
                    self._execute(installation_id, now)
                except Exception as exc:  # noqa: BLE001 - routed
                    handler(cadence.batch.event, exc)
            if dirty:
                # A run changed a mailbox: scripts still ahead of it
                # this tick see the change now, the rest next tick.
                for later in [i for i in dirty if i > last]:
                    dirty.discard(later)
                    heapq.heappush(due, later)

    def _execute(self, installation_id: int, now: float) -> None:
        installation = self._installations[installation_id]
        if installation.deleted or installation.parked:
            return
        script = installation.script
        if installation.polling:
            quota = self._quotas[installation.account_address]
            try:
                quota.charge(script.execution_cost, now)
            except QuotaExceededError:
                self.quota_trips += 1
                if self._quota_notifier is not None:
                    self._quota_notifier(installation.account_address, now)
                return  # run skipped this tick; quota resets next day
        script.run(now)
        self.runs_executed += 1
        if installation.polling or installation.deleted:
            return
        if script.halted:
            self._stop_waking(installation_id, installation)
            installation.parked = True
            return
        key = script.heartbeat_key
        if key != installation.beat_key:
            self._leave_beat_group(installation_id, installation)
            installation.cadence.beats.setdefault(key, set()).add(installation_id)
            installation.beat_key = key

    # ------------------------------------------------------------------
    # removal and queries
    # ------------------------------------------------------------------
    def uninstall(self, installation_id: int) -> None:
        """Remove a script (an attacker deleting it, or teardown)."""
        installation = self._installations.get(installation_id)
        if installation is None or installation.deleted:
            return
        installation.deleted = True
        installation.left = len(self._tick_log)
        self._stop_waking(installation_id, installation)
        cadence = installation.cadence
        if installation.polling:
            cadence.pollers.remove(installation_id)
        cadence.live -= 1
        if cadence.live == 0:
            cadence.batch.stop()

    def uninstall_account(self, account_address: str) -> int:
        """Remove every script on an account; returns how many."""
        doomed = self.scripts_on(account_address)
        for installation_id in doomed:
            self.uninstall(installation_id)
        return len(doomed)

    def scripts_on(self, account_address: str) -> list[int]:
        """Ids of live installations on an account."""
        return [
            iid
            for iid, inst in self._installations.items()
            if inst.account_address == account_address and not inst.deleted
        ]

    def hidden_location(self, installation_id: int) -> str:
        """Where the script hides (the paper tucks it in a spreadsheet)."""
        return self._installations[installation_id].hidden_in
