"""Tests for repro.webmail.appsscript."""

import pytest

from repro.errors import ConfigurationError, QuotaExceededError
from repro.sim.clock import days, hours, minutes
from repro.webmail.appsscript import AppsScriptRuntime, ScriptQuota


class RecordingScript:
    """Minimal AppsScript implementation for tests."""

    def __init__(self, execution_cost=1.0):
        self.execution_cost = execution_cost
        self.runs = []

    def run(self, now):
        self.runs.append(now)


class TestScriptQuota:
    def test_within_budget(self):
        quota = ScriptQuota(daily_limit_seconds=10.0)
        quota.charge(5.0, now=0.0)
        quota.charge(4.0, now=100.0)

    def test_exceeding_raises(self):
        quota = ScriptQuota(daily_limit_seconds=10.0)
        quota.charge(9.0, now=0.0)
        with pytest.raises(QuotaExceededError):
            quota.charge(2.0, now=100.0)

    def test_resets_daily(self):
        quota = ScriptQuota(daily_limit_seconds=10.0)
        quota.charge(9.0, now=0.0)
        quota.charge(9.0, now=days(1) + 1.0)  # fresh day, fresh budget


class TestRuntime:
    def test_trigger_cadence(self, sim):
        runtime = AppsScriptRuntime(sim)
        script = RecordingScript(execution_cost=0.001)
        runtime.install("a@x.example", script, period=minutes(10))
        sim.run_until(minutes(35))
        assert script.runs == [minutes(10), minutes(20), minutes(30)]

    def test_quota_trip_notifies_and_skips(self, sim):
        trips = []
        runtime = AppsScriptRuntime(
            sim,
            quota_notifier=lambda address, now: trips.append((address, now)),
            daily_quota_seconds=90.0,
        )
        # Cost 40: two runs fit the daily budget, the third trips it.
        script = RecordingScript(execution_cost=40.0)
        runtime.install("heavy@x.example", script, period=hours(2))
        sim.run_until(hours(12))
        assert len(script.runs) == 2
        assert trips, "quota notifier should have fired"
        assert trips[0][0] == "heavy@x.example"
        assert runtime.quota_trips >= 1

    def test_quota_resets_next_day(self, sim):
        runtime = AppsScriptRuntime(sim, daily_quota_seconds=90.0)
        script = RecordingScript(execution_cost=40.0)
        runtime.install("heavy@x.example", script, period=hours(2))
        sim.run_until(days(2))
        # Two successful runs on each of two days.
        assert len(script.runs) >= 4

    def test_invalid_period(self, sim):
        runtime = AppsScriptRuntime(sim)
        with pytest.raises(ConfigurationError):
            runtime.install("a@x.example", RecordingScript(), period=0.0)

    def test_runs_counter(self, sim):
        runtime = AppsScriptRuntime(sim)
        runtime.install(
            "a@x.example", RecordingScript(0.001), period=minutes(10)
        )
        sim.run_until(minutes(30))
        assert runtime.runs_executed == 3
