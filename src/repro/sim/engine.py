"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the event queue, and exposes the small
scheduling API the rest of the library is written against: ``schedule`` /
``schedule_at`` / ``run_until``.  An exception raised by a callback
propagates out of the loop, so a simulation bug fails loudly and ends the
run.

It also keeps the idle ticks of sleeping periodic processes
(:class:`~repro.sim.process.PeriodicProcess` with a future ``wake_at``):
a small heap of ``(time, 0, sequence, process)`` entries, merged into
the firing order by key.  An idle tick is no event: passing it draws
the sequence number the process's next tick would have drawn had this
one fired, and counts the tick skipped, so every event keeps the
position it would have had if every tick fired.  An idle tick at or
after its process's ``wake_at`` becomes a real event under the number
drawn for it.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING

from repro.errors import SchedulingError, SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventCallback, EventQueue

if TYPE_CHECKING:
    from repro.sim.process import PeriodicProcess


class Simulator:
    """Deterministic discrete-event simulator.

    Attributes:
        clock: the shared :class:`SimClock`; components read ``clock.now``.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.clock = SimClock(start_time)
        self._queue = EventQueue()
        self._running = False
        self._events_fired = 0
        self._idle: list[tuple[float, int, int, PeriodicProcess]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds since the experiment epoch)."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for diagnostics and tests)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {label!r} with negative delay {delay}"
            )
        return self._queue.push(
            self.clock.now + delay, callback, priority=priority, label=label
        )

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute sim-time ``time``."""
        if time < self.clock.now:
            raise SchedulingError(
                f"cannot schedule {label!r} in the past: {time} < {self.clock.now}"
            )
        return self._queue.push(time, callback, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (idempotent)."""
        self._queue.cancel(event)

    def sleep_tick(self, process: PeriodicProcess, time: float) -> None:
        """Hold ``process``'s tick at ``time`` as an idle tick.

        It draws its sequence number now, as scheduling the tick would.
        """
        heappush(self._idle, (time, 0, next(self._queue._counter), process))

    def _pass_idle_tick(self) -> None:
        """Pass the earliest idle tick: wake it into an event under its
        own sequence number, or count it skipped and hold the process's
        next grid tick idle in its place."""
        idle = self._idle
        time, _, sequence, process = idle[0]
        if process._stopped:
            heappop(idle)
        elif process.wake_at <= time:
            heappop(idle)
            self._queue.reserve(sequence)
            process.arm(time)
        else:
            process.skipped += 1
            heapreplace(
                idle,
                (time + process._period, 0, next(self._queue._counter), process),
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Event:
        """Execute the next event and return it.

        Idle ticks ordered before that event pass first; one that wakes
        becomes the event executed.

        Raises:
            SchedulingError: when the queue is empty.
        """
        queue = self._queue
        idle = self._idle
        if queue:
            queue.peek_time()  # drops cancelled entries off the top
            while idle and idle[0] < queue._heap[0]:
                self._pass_idle_tick()
        event = queue.pop()
        self.clock.advance_to(event.time)
        self._events_fired += 1
        event.callback()
        return event

    def run_until(self, end_time: float, *, max_events: int | None = None) -> int:
        """Run events until ``end_time`` (inclusive) and advance the clock there.

        This is the simulation's innermost loop, dispatching straight off
        the queue's ``(time, priority, sequence, event)`` heap tuples:
        no ``step()`` call, no ``peek_time`` round trip, no clock
        monotonicity re-check per event (heap pop order is nondecreasing
        and scheduling already rejects past times).  Firing order is
        bit-identical to popping events one at a time.  Idle ticks up to
        ``end_time`` (inclusive) pass in key order between events.

        Args:
            end_time: absolute sim-time to run to.
            max_events: optional safety cap on executed events.

        Returns:
            The number of events executed by this call (idle ticks are
            not events; their processes count them in ``skipped``).
        """
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        clock = self.clock
        if end_time < clock._now:
            raise SimulationError(
                f"end_time {end_time} is before current time {clock.now}"
            )
        self._running = True
        executed = 0
        queue = self._queue
        heap = queue._heap
        idle = self._idle
        try:
            while True:
                if idle and (not heap or idle[0] < heap[0]):
                    if idle[0][0] > end_time:
                        break
                    self._pass_idle_tick()
                    continue
                if not heap:
                    break
                entry = heap[0]
                event_time = entry[0]
                if event_time > end_time:
                    break
                heappop(heap)
                event = entry[3]
                if event.cancelled:
                    continue
                queue._live -= 1
                # Mark fired (mirrors EventQueue.pop): the event left the
                # queue, so a cancel() from inside its own callback — a
                # periodic process stopping itself mid-tick — is a no-op
                # instead of double-decrementing the live count.
                event.cancelled = True
                clock._now = event_time
                self._events_fired += 1
                executed += 1
                event.callback()
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"run_until exceeded max_events={max_events}"
                    )
            clock.advance_to(end_time)
        finally:
            self._running = False
        return executed

    def run_all(self, *, max_events: int = 10_000_000) -> int:
        """Run until the queue empties; returns the number of events fired."""
        executed = 0
        while self._queue:
            self.step()
            executed += 1
            if executed >= max_events:
                raise SimulationError(f"run_all exceeded max_events={max_events}")
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self.clock.now}, pending={len(self._queue)}, "
            f"fired={self._events_fired})"
        )

