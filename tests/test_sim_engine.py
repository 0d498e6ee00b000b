"""Tests for repro.sim.engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_schedule_advances_clock_on_step(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.step()
        assert sim.now == 5.0

    def test_schedule_at_absolute(self, sim):
        sim.schedule_at(7.0, lambda: None)
        sim.step()
        assert sim.now == 7.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.step()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancel(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run_until(10.0)
        assert fired == []


class TestRunUntil:
    def test_runs_events_up_to_end(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0, 11.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        executed = sim.run_until(10.0)
        assert executed == 3
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_inclusive_end(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == [1]

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 5.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_end_before_now_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run_until(6.0)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_max_events_guard(self, sim):
        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        with pytest.raises(SimulationError):
            sim.run_until(1000.0, max_events=50)

    def test_run_all(self, sim):
        fired = []
        for t in (3.0, 1.0, 2.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        assert sim.run_all() == 3
        assert fired == [1.0, 2.0, 3.0]


class TestErrorHandling:
    def test_exception_propagates_by_default(self, sim):
        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run_until(2.0)


class TestDeterminism:
    def test_identical_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            for t in (1.0, 1.0, 2.0):
                sim.schedule(t, lambda t=t: order.append((t, sim.now)))
            sim.run_until(5.0)
            return order

        assert run_once() == run_once()
