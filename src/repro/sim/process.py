"""Recurring processes on the simulation timeline.

The monitoring infrastructure in the paper is built from periodic jobs: the
Apps Script scan fires every 10 minutes, the heartbeat once a day, and the
activity-page scraper on its own cadence.  :class:`PeriodicProcess` captures
that pattern once: a callback re-scheduled at a fixed period.

The Apps Script runtime owns one process per cadence, its own tick, and
decides inside it which installations have work
(:mod:`repro.webmail.appsscript`), so the heap carries one event per
cadence per tick however many scripts run on it.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """A callback that fires every ``period`` seconds until stopped.

    The first firing is at ``now + start_delay``, each later one a
    period after the previous firing.  An exception raised by the
    callback propagates and ends the run.

    Args:
        sim: the simulator to schedule on.
        period: interval between firings, in sim-seconds.
        callback: zero-argument callable invoked at each tick.
        start_delay: delay before the first firing (default one period).
        label: label attached to scheduled events.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        start_delay: float | None = None,
        label: str = "periodic",
    ) -> None:
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._label = label
        self._stopped = False
        self.ticks = 0
        first_delay = self._period if start_delay is None else float(start_delay)
        self._event: Event | None = sim.schedule(
            first_delay, self._fire, label=label
        )

    @property
    def period(self) -> float:
        return self._period

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._callback()
        if not self._stopped:
            self._event = self._sim.schedule(
                self._period, self._fire, label=self._label
            )

    def stop(self) -> None:
        """Stop the process; pending ticks are cancelled (idempotent)."""
        self._stopped = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None
