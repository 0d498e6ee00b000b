"""Tests for repro.sim.process."""

import pytest

from repro.errors import SchedulingError
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
