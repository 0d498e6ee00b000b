"""Event queue for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering total and deterministic: two events scheduled for the same
instant with the same priority fire in scheduling order, which is essential
for reproducible runs.

The queue is the innermost ring of the simulation hot path, so its layout
is chosen for the interpreter, not for elegance: the binary heap holds
``(time, priority, sequence, event)`` tuples, which heapq compares at C
speed without ever calling back into Python (sequence numbers are unique,
so the comparison never reaches the event object), and :class:`Event` is a
plain ``__slots__`` class — no dataclass dispatch, no per-event ``__dict__``,
no generated ``__lt__``.  A full ``scaled(200)`` run used to spend ~25% of
its loop time in the dataclass-generated ``Event.__lt__``; the tuple keys
remove that entirely.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator

from repro.errors import SchedulingError

#: Callbacks receive no arguments; closures capture whatever context they need.
EventCallback = Callable[[], Any]


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute sim-time at which the event fires.
        priority: tie-breaker; lower fires first at equal times.
        sequence: insertion counter providing total, deterministic order.
        callback: zero-argument callable executed by the engine.
        label: human-readable tag used in traces and error messages.
        cancelled: true once the event is no longer pending — either
            :meth:`cancel` was called or the engine already fired it
            (the queue marks popped events so a late ``cancel`` cannot
            corrupt its live count).
    """

    __slots__ = ("time", "priority", "sequence", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: EventCallback,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True

    def sort_key(self) -> tuple[float, int, int]:
        """The total order the queue fires events in."""
        return (self.time, self.priority, self.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )


class EventQueue:
    """Deterministic binary-heap event queue.

    The heap (``_heap``) stores ``(time, priority, sequence, event)``
    tuples; :meth:`repro.sim.engine.Simulator.run_until` reads it directly
    for its inlined dispatch loop.  The sequence counter (``_counter``)
    is shared with the engine's idle ticks, which draw from it without
    queueing an event (:meth:`reserve` hands such a number back).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._reserved: int | None = None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time`` and return the event."""
        if not callable(callback):
            raise SchedulingError(f"callback for {label!r} is not callable")
        time = float(time)
        sequence = self._reserved
        if sequence is None:
            sequence = next(self._counter)
        else:
            self._reserved = None
        event = Event(time, priority, sequence, callback, label)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def reserve(self, sequence: int) -> None:
        """Give the next :meth:`push` the already-drawn ``sequence``
        instead of a fresh one, so the event sorts where it was drawn."""
        self._reserved = sequence

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        The returned event is marked ``cancelled``: it has left the
        queue, so a later :meth:`cancel` (e.g. a periodic process
        stopping itself from inside its own tick) must be a no-op
        rather than corrupting the live-event count.

        Raises:
            SchedulingError: if the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            self._live -= 1
            event.cancelled = True
            return event
        raise SchedulingError("pop from an empty event queue")

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def peek_time(self) -> float | None:
        """Return the fire time of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def drain(self) -> Iterator[Event]:
        """Yield and remove all live events in firing order (for inspection)."""
        while self:
            yield self.pop()
