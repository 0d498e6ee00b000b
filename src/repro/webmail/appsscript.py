"""Apps-Script-like scripting runtime with time triggers and quotas.

Google Apps Script lets account owners attach scripts with time-driven
triggers; the paper's monitor scans mailboxes every 10 minutes and sends a
daily heartbeat, hiding the script inside a spreadsheet.  Google also
enforces execution-time quotas — two honey accounts received "using too
much computer time" notifications, which attackers then read (a case study
in Section 4.7).

:class:`AppsScriptRuntime` reproduces those semantics: scripts are bound to
accounts when the honey accounts are set up, before the first trigger
fires, then run on periodic triggers, accrue simulated execution time
against a daily quota, and keep running even when the account password
changes (only account suspension by the provider stops them).

The scan clock is tickless.  Same-cadence, same-phase triggers share one
:class:`~repro.sim.process.PeriodicProcess`, and that process sleeps
until the next grid tick where an installation on it has work:

* the first tick at or after a mailbox change (the mailbox's change hook
  marks the installation dirty and wakes the process, so a change made
  at a tick's instant before that tick fires is picked up by it);
* the next tick where a heartbeat group is due, where a group is the
  scripts sharing a heartbeat key and its due tick is found once, by
  walking the grid;
* every tick while an account whose quota can trip has an unparked
  poller: those scripts charge the quota on every tick they run.

Every other tick stays idle: it executes nothing and schedules nothing,
but it keeps its place in the event order and counts in
``ticks_skipped`` (which the experiment adds to its executed events, so
the count still reads as if every trigger fired).

Quota windows are arithmetic.  ``used_seconds`` only grows within a
window, so after the first refused charge every later charge in that
window is refused too.  The first refusal calls ``quota_notifier`` once
for the window and parks the account's pollers: each cadence carrying
them sleeps until its first grid tick ``t`` with ``t - window_start >=
days(1)``, the test :meth:`ScriptQuota.charge` resets the window on, and
each parked tick adds to ``quota_trips`` without running.  A parked
poller on a tick that fires for other work counts its trip the same way.

The runtime relies on three invariants.  A block is permanent: once a
run finds its account blocked, the installation is parked and never
woken again.  A light account can never reach its quota: an account
polls once the summed worst-case daily cost of every script installed
on it (``execution_cost`` times the most ticks one quota window can
hold) reaches the limit, so an account that does not poll could not
have tripped.  Every install happens before the first tick, so an
account that turns heavy has skipped no charge.  Scripts that do not
implement :class:`EventDrivenScript` poll always.

Every installation runs at its first tick.  Installs on different
cadences whose first ticks share an instant run there together in
install order, as one trigger per installation would run them.
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
from repro.sim.process import PeriodicProcess

#: The quota window, as :meth:`ScriptQuota.charge` measures it.
_WINDOW = days(1)


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
    ``heartbeat_due`` at every instant.  Between runs, ``heartbeat_due``
    must turn true at some finite instant and stay true from then on.
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
    """The installations sharing one trigger, and which have work.

    ``dirty`` holds ids whose mailbox changed since their last run,
    ``beats`` groups the ids that have run by heartbeat key and
    ``beat_due`` caches each group's due tick, ``pollers`` lists, in
    install order, the ids that charge the quota on every tick (of the
    accounts ``poller_accounts``), and ``unpark`` caches, per parked
    account, ``(window start, first tick of the next window)``.
    """

    process: PeriodicProcess

    def __init__(self, first_tick: float) -> None:
        self.first_tick = first_tick
        self.dirty: set[int] = set()
        self.beats: dict[Hashable, set[int]] = {}
        self.beat_due: dict[Hashable, float] = {}
        self.pollers: list[int] = []
        self.poller_accounts: set[str] = set()
        self.unpark: dict[str, tuple[float, float]] = {}

    def mark(self, installation_id: int) -> None:
        """The installation's mailbox changed: run it at the next tick."""
        self.dirty.add(installation_id)
        self.process.wake_at = -math.inf


@dataclass
class _Installation:
    """One script installed on one account."""

    account_address: str
    script: AppsScript
    cadence: _Cadence
    polling: bool = False
    parked: bool = False
    on_change: Callable[[], None] | None = None
    beat_key: Hashable | None = None


class AppsScriptRuntime:
    """Executes installed scripts on their time triggers.

    Args:
        sim: the simulation engine providing triggers.
        quota_notifier: callback invoked as ``(account_address, now)``
            on the first refused run of each quota window; the honey
            framework wires this to the provider's notification email
            ("using too much computer time").

    ``runs_executed`` counts script runs that executed (not ticks times
    installations), ``quota_trips`` counts runs the quota refused,
    parked ticks included, and ``ticks_skipped`` counts the grid ticks
    that passed idle.
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
        #: ``(period, first fire time)`` -> the cadence triggering there.
        self._cadences: dict[tuple[float, float], _Cadence] = {}
        #: first fire time -> ids whose first run is due then, in
        #: install order, until the first cadence ticking there runs them.
        self._first_runs: dict[float, list[int]] = {}
        #: account -> summed worst-case cost per quota window.
        self._quota_bounds: dict[str, float] = {}
        self._polling_accounts: set[str] = set()
        #: account -> start of the quota window that refused its charge.
        self._tripped: dict[str, float] = {}
        self._trips_at_fired_ticks = 0
        self.runs_executed = 0

    @property
    def quota_trips(self) -> int:
        """Runs the quota refused: at ticks that fired, plus one per
        parked poller on every idle tick (a cadence carrying pollers
        idles only while all of them are parked)."""
        return self._trips_at_fired_ticks + sum(
            cadence.process.skipped * len(cadence.pollers)
            for cadence in self._cadences.values()
        )

    @property
    def ticks_skipped(self) -> int:
        """Grid ticks that passed idle, over every cadence."""
        return sum(
            cadence.process.skipped for cadence in self._cadences.values()
        )

    def _cadence_for(self, period: float, start_delay: float | None) -> _Cadence:
        """The cadence first firing at ``now + start_delay`` with this
        period, creating one when none exists yet."""
        first_delay = float(period) if start_delay is None else float(start_delay)
        key = (float(period), self._sim.clock.now + first_delay)
        cadence = self._cadences.get(key)
        if cadence is None:
            cadence = self._cadences[key] = _Cadence(key[1])
            # partial (not a closure) so a checkpointed world pickles: the
            # event queue holds these callbacks mid-run.
            cadence.process = PeriodicProcess(
                self._sim,
                period,
                partial(self._tick, cadence),
                start_delay=first_delay,
                label=f"apps-script:{period:g}s",
            )
        return cadence

    def install(
        self,
        account_address: str,
        script: AppsScript,
        *,
        period: float,
        start_delay: float | None = None,
    ) -> int:
        """Install ``script`` on an account with a time trigger.

        Returns the installation id.

        Raises:
            ConfigurationError: for a non-positive period, or once any
                trigger has fired: scripts are installed while the honey
                accounts are set up, before the measurement starts.
        """
        if period <= 0:
            raise ConfigurationError("trigger period must be positive")
        if any(cadence.process.ticks for cadence in self._cadences.values()):
            raise ConfigurationError(
                "scripts must be installed before the first trigger fires"
            )
        installation_id = self._next_id
        self._next_id += 1
        cadence = self._cadence_for(period, start_delay)
        installation = _Installation(
            account_address=account_address, script=script, cadence=cadence
        )
        self._installations[installation_id] = installation
        self._first_runs.setdefault(cadence.first_tick, []).append(
            installation_id
        )
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
            installation.on_change = partial(cadence.mark, installation_id)
            script.watch(installation.on_change)
        return installation_id

    # ------------------------------------------------------------------
    # quota polling
    # ------------------------------------------------------------------
    def _start_polling(self, account_address: str) -> None:
        """Make every script on the account poll from its first tick."""
        self._polling_accounts.add(account_address)
        for iid, inst in self._installations.items():
            if inst.account_address == account_address:
                self._start_polling_one(iid, inst)

    def _start_polling_one(self, installation_id: int, inst: _Installation) -> None:
        self._stop_waking(installation_id, inst)
        inst.polling = True
        insort(inst.cadence.pollers, installation_id)
        inst.cadence.poller_accounts.add(inst.account_address)

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
        cadence = inst.cadence
        group = cadence.beats[inst.beat_key]
        group.discard(installation_id)
        if not group:
            del cadence.beats[inst.beat_key]
            cadence.beat_due.pop(inst.beat_key, None)
        inst.beat_key = None

    def _charge(self, account_address: str, cost: float, now: float) -> bool:
        """Charge one poller run; False when the quota refuses it."""
        tripped = self._tripped.get(account_address)
        if tripped is not None:
            if now - tripped < _WINDOW:
                # Parked: the window that refused a charge still runs.
                self._trips_at_fired_ticks += 1
                return False
            del self._tripped[account_address]
        quota = self._quotas[account_address]
        try:
            quota.charge(cost, now)
        except QuotaExceededError:
            self._trips_at_fired_ticks += 1
            self._tripped[account_address] = quota.window_start
            if self._quota_notifier is not None:
                self._quota_notifier(account_address, now)
            return False
        return True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _tick(self, cadence: _Cadence) -> None:
        """One cadence tick: run the due installations in install order,
        then sleep until the next tick with work."""
        now = self._sim.clock.now
        installations = self._installations
        dirty = cadence.dirty
        if cadence.process.ticks == 1:
            # The first cadence ticking at this instant runs every first
            # run due here; the others find the list gone.
            due = self._first_runs.pop(cadence.first_tick, [])
        else:
            due = list(cadence.pollers)
            due.extend(dirty)
            for group in cadence.beats.values():
                # Equal keys agree on due-ness: ask any one member.
                if installations[next(iter(group))].script.heartbeat_due(now):
                    due.extend(group)
        heapq.heapify(due)
        last = 0
        while due:
            installation_id = heapq.heappop(due)
            if installation_id <= last:
                continue  # listed for two reasons
            last = installation_id
            self._execute(installation_id, now)
            if dirty:
                # A run changed a mailbox: scripts still ahead of it
                # this tick see the change now, the rest next tick.
                for later in [i for i in dirty if i > last]:
                    dirty.discard(later)
                    heapq.heappush(due, later)
        cadence.process.wake_at = self._next_wake(cadence, now)

    def _next_wake(self, cadence: _Cadence, now: float) -> float:
        """The first grid tick after ``now`` where the cadence has work.

        The walks step the grid as the process does (``t += period``),
        so every time returned is a tick time bit for bit.
        """
        if cadence.dirty:
            return -math.inf
        period = cadence.process.period
        tick = now + period
        wake = math.inf
        for address in cadence.poller_accounts:
            tripped = self._tripped.get(address)
            if tripped is None or tick - tripped >= _WINDOW:
                return -math.inf
            unpark = cadence.unpark.get(address)
            if unpark is None or unpark[0] != tripped:
                reset = tick
                while reset - tripped < _WINDOW:
                    reset += period
                unpark = cadence.unpark[address] = (tripped, reset)
            wake = min(wake, unpark[1])
        for key, group in cadence.beats.items():
            due = cadence.beat_due.get(key)
            if due is None:
                script = self._installations[next(iter(group))].script
                due = tick
                while not script.heartbeat_due(due):
                    due += period
                cadence.beat_due[key] = due
            wake = min(wake, due)
        return wake

    def _execute(self, installation_id: int, now: float) -> None:
        installation = self._installations[installation_id]
        if installation.parked:
            return
        installation.cadence.dirty.discard(installation_id)
        script = installation.script
        if installation.polling and not self._charge(
            installation.account_address, script.execution_cost, now
        ):
            return  # run skipped this tick; quota resets next window
        script.run(now)
        self.runs_executed += 1
        if installation.polling:
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
