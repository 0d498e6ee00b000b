"""Tests for repro.sim.clock."""

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import (
    EXPERIMENT_EPOCH,
    SimClock,
    days,
    from_datetime,
    hours,
    minutes,
    to_datetime,
)


class TestUnitHelpers:
    def test_minutes(self):
        assert minutes(10) == 600.0

    def test_hours(self):
        assert hours(2) == 7200.0

    def test_days(self):
        assert days(1) == 86400.0

    def test_units_compose(self):
        assert days(1) == hours(24) == minutes(1440)


class TestConversions:
    def test_epoch_is_paper_start(self):
        assert EXPERIMENT_EPOCH == datetime(
            2015, 6, 25, tzinfo=timezone.utc
        )

    def test_zero_maps_to_epoch(self):
        assert to_datetime(0.0) == EXPERIMENT_EPOCH

    def test_roundtrip_fixed(self):
        assert from_datetime(to_datetime(days(100.5))) == days(100.5)

    def test_naive_datetime_assumed_utc(self):
        naive = datetime(2015, 6, 26)
        assert from_datetime(naive) == days(1)

    def test_experiment_end_is_seven_months(self):
        end = datetime(2016, 2, 16, tzinfo=timezone.utc)
        assert from_datetime(end) == days(236)

    @settings(max_examples=100)
    @given(st.floats(min_value=0, max_value=days(400)))
    def test_roundtrip_property(self, sim_time):
        recovered = from_datetime(to_datetime(sim_time))
        assert recovered == pytest.approx(sim_time, abs=1e-5)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_same_time_is_fine(self):
        clock = SimClock(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_cannot_move_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_now_datetime(self):
        clock = SimClock(days(1))
        assert clock.now_datetime == datetime(
            2015, 6, 26, tzinfo=timezone.utc
        )
