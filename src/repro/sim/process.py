"""Recurring processes on the simulation timeline.

The monitoring infrastructure in the paper is built from periodic jobs: the
Apps Script scan fires every 10 minutes, the heartbeat once a day, and the
activity-page scraper on its own cadence.  :class:`PeriodicProcess` captures
that pattern once: a callback on a fixed grid of tick times, each one a
period after the previous (``t += period``, by float addition).

A process can sleep.  Its owner sets ``wake_at`` to the first grid time
that has work; the ticks before it stay on the grid as idle ticks of the
simulator (:mod:`repro.sim.engine`) rather than events.  An idle tick
runs no callback and schedules no event, but it draws the sequence
number the next tick would have drawn, so when the process wakes its
tick sorts among same-instant events exactly where it would have if
every tick had fired.  ``skipped`` counts the idle ticks.  Lowering
``wake_at`` at any moment (say, from a mailbox change hook) wakes the
process at its next grid tick that has not passed yet, an idle tick at
the current instant included.

The Apps Script runtime owns one process per cadence and keeps it asleep
until a script on it has work (:mod:`repro.webmail.appsscript`); the
scraper never sleeps.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """A callback that fires on a fixed grid until stopped.

    The first tick is at ``now + start_delay``, each later one a period
    after the previous.  A tick before ``wake_at`` is idle: it passes
    without calling back and counts in ``skipped``.  An exception
    raised by the callback propagates and ends the run.

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
        self._event: Event | None = None
        #: The first tick time that fires; earlier ticks are idle.
        self.wake_at = -math.inf
        self.ticks = 0
        self.skipped = 0
        first_delay = self._period if start_delay is None else float(start_delay)
        self.arm(sim.now + first_delay)

    @property
    def period(self) -> float:
        return self._period

    @property
    def stopped(self) -> bool:
        return self._stopped

    def arm(self, time: float) -> None:
        """Hold the tick at ``time``: an event when it is due, else an
        idle tick of the simulator."""
        if self.wake_at <= time:
            self._event = self._sim.schedule_at(
                time, self._fire, label=self._label
            )
        else:
            self._event = None
            self._sim.sleep_tick(self, time)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._callback()
        if not self._stopped:
            self.arm(self._sim.now + self._period)

    def stop(self) -> None:
        """Stop the process; pending ticks are cancelled (idempotent)."""
        self._stopped = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None
