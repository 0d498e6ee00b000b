"""Fast-path equivalence tests for the slotted event loop and triggers.

The tuple-keyed heap, the inlined ``run_until`` dispatch and the shared
per-cadence scan triggers are pure performance work: they must fire
exactly what the seed's dataclass-heap loop fired, in exactly the same
order.  These tests pin that three ways:

* a reference implementation of the seed's queue (``@dataclass(order=
  True)`` events on a heap) is driven side by side with the new queue
  through randomized workloads — same pushes, same cancellations, same
  peeks — across three seeds;
* queue edge cases the rewrite must preserve: total ``(time, priority,
  sequence)`` order at one instant, cancellation interleaved with
  ``peek_time``, cancel-at-head behaviour;
* the scan runtime's shared triggers: one event per cadence, installs
  only before the first tick, exceptions propagating out of the loop.

End-to-end equivalence of the scan runtime lives in
``test_scan_runtime.py`` (the committed row-level golden).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field

import pytest

from repro.api.envelope import run_scenario
from repro.api.registry import scenarios
from repro.errors import ConfigurationError, SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.process import PeriodicProcess
from repro.webmail.appsscript import AppsScriptRuntime


# ----------------------------------------------------------------------
# the seed's queue, verbatim, as the ordering oracle
# ----------------------------------------------------------------------
@dataclass(order=True)
class _LegacyEvent:
    time: float
    priority: int
    sequence: int
    callback: object = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class _LegacyEventQueue:
    """The pre-rewrite queue: events compared via dataclass ``__lt__``."""

    def __init__(self) -> None:
        self._heap: list[_LegacyEvent] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time, callback, *, priority=0, label=""):
        event = _LegacyEvent(
            time=float(time),
            priority=priority,
            sequence=next(self._counter),
            callback=callback,
            label=label,
        )
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            # The one deliberate divergence from the seed, mirrored from
            # the new queue: popped events are marked so cancelling an
            # already-fired event cannot double-decrement the live count
            # (the seed had that corruption bug).  Firing order is
            # unaffected.
            event.cancelled = True
            return event
        raise SchedulingError("pop from an empty event queue")

    def cancel(self, event) -> None:
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time


def _random_ops(seed: int, count: int = 400) -> list[tuple]:
    """A deterministic op script mixing pushes, cancels, pops and peeks.

    Times draw from a small grid so same-instant collisions are common,
    which is exactly where ``(time, priority, sequence)`` ordering and
    cancellation interleavings bite.
    """
    rng = random.Random(seed)
    ops: list[tuple] = []
    pushed = 0
    live = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.55 or live == 0:
            time = rng.choice([0.0, 1.0, 1.0, 2.0, 2.5, 3.0]) + (
                rng.random() if rng.random() < 0.3 else 0.0
            )
            ops.append(("push", time, rng.choice([-1, 0, 0, 0, 1, 5])))
            pushed += 1
            live += 1
        elif roll < 0.70:
            ops.append(("cancel", rng.randrange(pushed)))
            live = max(live - 1, 0)  # approximation; double-cancel is a no-op
        elif roll < 0.85:
            ops.append(("peek",))
        else:
            ops.append(("pop",))
            live = max(live - 1, 0)
    return ops


def _apply(queue_cls, ops) -> list:
    queue = queue_cls()
    events: list = []
    trace: list = []
    for op in ops:
        if op[0] == "push":
            _, time, priority = op
            label = f"ev{len(events)}"
            events.append(
                queue.push(time, lambda: None, priority=priority, label=label)
            )
        elif op[0] == "cancel":
            queue.cancel(events[op[1]])
        elif op[0] == "peek":
            trace.append(("peek", queue.peek_time()))
        elif op[0] == "pop":
            if len(queue):
                trace.append(("pop", queue.pop().label))
    while len(queue):
        trace.append(("pop", queue.pop().label))
    return trace


class TestLoopOrderMatchesLegacy:
    @pytest.mark.parametrize("seed", [2016, 7, 424242])
    def test_randomized_workloads_fire_in_identical_order(self, seed):
        ops = _random_ops(seed)
        assert _apply(EventQueue, ops) == _apply(_LegacyEventQueue, ops)

    @pytest.mark.parametrize("seed", [2016, 7, 424242])
    def test_run_until_matches_step_by_step_execution(self, seed):
        """The inlined dispatch loop fires exactly what step() would."""

        def build(record):
            sim = Simulator()
            rng = random.Random(seed)
            for index in range(200):
                time = rng.choice([1.0, 2.0, 2.0, 3.0]) + rng.random() * 0.01
                sim.schedule(
                    time,
                    (lambda i=index: record.append(i)),
                    priority=rng.choice([0, 0, 1]),
                )
            return sim

        inlined: list[int] = []
        sim = build(inlined)
        sim.run_until(10.0)

        stepped: list[int] = []
        sim = build(stepped)
        while sim.pending_events:
            sim.step()
        assert inlined == stepped


class TestQueueEdgeCases:
    def test_same_instant_total_order(self):
        queue = EventQueue()
        low_late = queue.push(1.0, lambda: None, priority=1, label="c")
        first = queue.push(1.0, lambda: None, priority=0, label="a")
        second = queue.push(1.0, lambda: None, priority=0, label="b")
        assert [queue.pop() for _ in range(3)] == [first, second, low_late]

    def test_cancel_after_peek_skips_event(self):
        queue = EventQueue()
        head = queue.push(1.0, lambda: None, label="head")
        tail = queue.push(2.0, lambda: None, label="tail")
        assert queue.peek_time() == 1.0
        queue.cancel(head)  # cancelled *after* peek pruned nothing
        assert queue.peek_time() == 2.0
        assert queue.pop() is tail

    def test_peek_between_cancellations(self):
        queue = EventQueue()
        events = [
            queue.push(1.0, lambda: None, label=f"e{i}") for i in range(4)
        ]
        queue.cancel(events[0])
        assert queue.peek_time() == 1.0
        queue.cancel(events[1])
        queue.cancel(events[2])
        assert queue.pop() is events[3]
        assert queue.peek_time() is None

    def test_cancel_all_then_len_and_peek(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(3)]
        for event in events:
            queue.cancel(event)
        assert len(queue) == 0
        assert not queue
        assert queue.peek_time() is None
        with pytest.raises(SchedulingError):
            queue.pop()

    def test_schedule_at_current_instant_fires_in_same_run(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            sim.schedule_at(sim.now, lambda: fired.append("again"))

        sim.schedule(1.0, chain)
        sim.run_until(1.0)
        assert fired == [1.0, "again"]

    def test_max_events_guard_still_raises(self):
        from repro.errors import SimulationError

        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        with pytest.raises(SimulationError):
            sim.run_until(100.0, max_events=10)

    def test_cancelling_a_fired_event_keeps_live_count_intact(self):
        """Cancelling the currently-executing event must be a no-op.

        The seed double-decremented the live count here, making the
        queue report empty while unrelated live events were still
        queued.
        """
        sim = Simulator()
        fired = []
        events = []
        events.append(
            sim.schedule(1.0, lambda: sim.cancel(events[0]), label="self")
        )
        sim.schedule(2.0, lambda: fired.append("later"), label="later")
        sim.run_until(1.5)
        assert sim.pending_events == 1
        sim.run_until(3.0)
        assert fired == ["later"]


class TestSelfStoppingProcesses:
    def test_periodic_process_stopping_itself_mid_tick(self, sim):
        ticks = []
        processes = []

        def tick():
            ticks.append(sim.now)
            if sim.now >= 20.0:
                processes[0].stop()  # cancel from inside our own event

        processes.append(PeriodicProcess(sim, 10.0, tick))
        survivor = []
        sim.schedule(100.0, lambda: survivor.append(sim.now))
        sim.run_until(200.0)
        assert ticks == [10.0, 20.0]
        assert survivor == [100.0]


class TestRuntimeTriggerBatching:
    class _Script:
        def __init__(self):
            self.execution_cost = 0.001
            self.runs = []

        def run(self, now):
            self.runs.append(now)

    def test_same_cadence_installs_share_one_event(self, sim):
        runtime = AppsScriptRuntime(sim)
        for index in range(5):
            runtime.install(f"a{index}@x.example", self._Script(), period=600.0)
        assert sim.pending_events == 1

    def test_different_cadences_use_separate_batches(self, sim):
        runtime = AppsScriptRuntime(sim)
        runtime.install("a@x.example", self._Script(), period=600.0)
        runtime.install("b@x.example", self._Script(), period=1200.0)
        assert sim.pending_events == 2

    def test_install_after_the_first_tick_is_refused(self, sim):
        runtime = AppsScriptRuntime(sim)
        early = self._Script()
        runtime.install("a@x.example", early, period=600.0)
        sim.run_until(900.0)
        with pytest.raises(ConfigurationError):
            runtime.install("b@x.example", self._Script(), period=600.0)
        with pytest.raises(ConfigurationError):
            runtime.install("c@x.example", self._Script(), period=1200.0)
        sim.run_until(2000.0)
        assert early.runs == [600.0, 1200.0, 1800.0]

    def test_install_before_any_tick_after_the_clock_moved(self, sim):
        runtime = AppsScriptRuntime(sim)
        sim.run_until(900.0)  # no cadence yet, so nothing has ticked
        late = self._Script()
        runtime.install("b@x.example", late, period=600.0)
        sim.run_until(2000.0)
        assert late.runs == [1500.0]

    def test_script_exception_propagates_from_the_tick(self, sim):
        class _Failing(self._Script):
            def run(self, now):
                super().run(now)
                raise RuntimeError("script failed")

        runtime = AppsScriptRuntime(sim)
        failing, after = _Failing(), self._Script()
        runtime.install("a@x.example", failing, period=600.0)
        runtime.install("b@x.example", after, period=600.0)
        with pytest.raises(RuntimeError, match="script failed"):
            sim.run_until(2000.0)
        assert failing.runs == [600.0]
        assert after.runs == []
        assert sim.pending_events == 0  # the failed tick re-armed nothing


class TestBatchingEndToEndEquivalence:
    def test_perf_summary_reports_loop_throughput(self):
        scenario = (
            scenarios.get("fast").to_builder().with_duration_days(5.0).build()
        )
        run = run_scenario(scenario, seed=1)
        perf = run.summary()["perf"]
        assert perf["events_executed"] == run.events_executed
        assert perf["simulate_seconds"] == run.perf["simulate"] > 0
        assert run.perf["build"] > 0  # real build cost, not the no-op call
        assert set(perf["phases"]) == {
            "build", "provision", "leak", "case_studies", "simulate",
            "assemble",
        }
