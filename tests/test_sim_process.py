"""Tests for repro.sim.process."""

import math
import random

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess


class TestPeriodicProcess:
    def test_fires_every_period(self, sim):
        ticks = []
        PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_start_delay(self, sim):
        ticks = []
        PeriodicProcess(
            sim, 10.0, lambda: ticks.append(sim.now), start_delay=1.0
        )
        sim.run_until(25.0)
        assert ticks == [1.0, 11.0, 21.0]

    def test_stop_cancels_future_ticks(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run_until(15.0)
        process.stop()
        sim.run_until(100.0)
        assert ticks == [10.0]
        assert process.stopped

    def test_stop_is_idempotent(self, sim):
        process = PeriodicProcess(sim, 10.0, lambda: None)
        process.stop()
        process.stop()

    def test_tick_counter(self, sim):
        process = PeriodicProcess(sim, 5.0, lambda: None)
        sim.run_until(26.0)
        assert process.ticks == 5


class TestValidation:
    def test_zero_period_rejected(self, sim):
        with pytest.raises(SchedulingError):
            PeriodicProcess(sim, 0.0, lambda: None)


class TestSleeping:
    def test_idle_ticks_pass_uncalled_until_wake_at(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            process.wake_at = 40.0 if sim.now < 40.0 else math.inf

        process = PeriodicProcess(sim, 10.0, tick)
        sim.run_until(100.0)
        assert fired == [10.0, 40.0]
        assert (process.ticks, process.skipped) == (2, 8)
        assert sim.events_fired == 2

    def test_lowering_wake_at_wakes_the_pending_idle_tick(self, sim):
        fired = []

        def tick():
            fired.append(("tick", sim.now))
            process.wake_at = math.inf

        def wake():
            fired.append(("wake", sim.now))
            process.wake_at = -math.inf

        process = PeriodicProcess(sim, 10.0, tick)
        # Scheduled before the tick at 30 was drawn (at 20), so it
        # fires first at that instant and the tick still picks it up.
        sim.schedule_at(30.0, wake)
        sim.run_until(60.0)
        assert fired == [("tick", 10.0), ("wake", 30.0), ("tick", 30.0)]
        assert process.skipped == 4

    def test_step_passes_idle_ticks_before_the_next_event(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            process.wake_at = 30.0

        process = PeriodicProcess(sim, 10.0, tick)
        sim.schedule_at(35.0, lambda: fired.append("event"))
        sim.step()
        sim.step()
        sim.step()
        assert fired == [10.0, 30.0, "event"]
        assert process.skipped == 1

    def test_stopped_sleeping_process_never_wakes(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            process.wake_at = 50.0

        process = PeriodicProcess(sim, 10.0, tick)
        sim.run_until(25.0)
        process.stop()
        sim.run_until(100.0)
        assert fired == [10.0]

    @pytest.mark.parametrize("seed", [1, 7, 2016])
    def test_same_instant_order_matches_a_process_that_always_fires(
        self, seed
    ):
        """A process that sleeps until marked fires in exactly the place
        among same-instant events that an always-firing one takes."""
        rng = random.Random(seed)
        grid = [5.0 + 10.0 * k for k in range(40)]

        def start() -> float:
            # Events at the first tick's instant fire after that tick
            # (it was drawn first), so their grid-landing descendants
            # are drawn after the ticks they share an instant with.
            roll = rng.random()
            if roll < 0.3:
                return 5.0
            return rng.choice(grid) if roll < 0.8 else rng.uniform(0, 400)

        plan = [
            (
                start(),
                rng.random() < 0.4,
                [rng.choice([10.0, 20.0, 7.5]) for _ in range(rng.randrange(4))],
            )
            for _ in range(60)
        ]

        def world(sleeps: bool) -> list:
            sim = Simulator()
            log: list = []
            work = [False]

            def tick():
                if work[0]:
                    work[0] = False
                    log.append(("tick", sim.now))
                if sleeps:
                    process.wake_at = math.inf

            def event(name, mark, chain):
                log.append((name, sim.now))
                if mark:
                    work[0] = True
                    process.wake_at = -math.inf
                if chain:
                    sim.schedule(
                        chain[0],
                        lambda: event(name + "'", not mark, chain[1:]),
                    )

            process = PeriodicProcess(sim, 10.0, tick, start_delay=5.0)
            for index, (at, mark, chain) in enumerate(plan):
                sim.schedule_at(
                    at, lambda a=(f"e{index}", mark, chain): event(*a)
                )
            sim.run_until(500.0)
            return log

        slept = world(sleeps=True)
        assert slept == world(sleeps=False)
        assert sum(entry[0] == "tick" for entry in slept) > 10
