"""Unit tests for the fault-injection layer: plans, retry, supervision.

The end-to-end chaos suite (faults injected into real shard / sweep /
service workloads) lives in ``test_chaos.py``; this file pins the
building blocks — rule matching, budgets, determinism, the env
activation channel, backoff schedules, and the supervision loop — with
toy workers.
"""

import json
import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, FaultInjectedError
from repro.faults import (
    FAULTS_ENV,
    DEFAULT_IO_RETRY,
    FaultPlan,
    FaultRule,
    RetryBudget,
    RetryPolicy,
    active_plan,
    fault_site,
    reset_faults,
    supervise_iter,
)
from repro.faults.plan import _unit_draw


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """Every test starts and ends with no plan installed anywhere."""
    saved = os.environ.pop(FAULTS_ENV, None)
    reset_faults()
    yield
    os.environ.pop(FAULTS_ENV, None)
    if saved is not None:
        os.environ[FAULTS_ENV] = saved
    reset_faults()


# ----------------------------------------------------------------------
# rules and plans
# ----------------------------------------------------------------------


class TestFaultRule:
    def test_validation_is_loud(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FaultRule(site="x", kind="explode")
        with pytest.raises(ConfigurationError, match="at_hit"):
            FaultRule(site="x", kind="crash", at_hit=0)
        with pytest.raises(ConfigurationError, match="times"):
            FaultRule(site="x", kind="crash", times=0)
        with pytest.raises(ConfigurationError, match="cut"):
            FaultRule(site="x", kind="torn_write", cut=1.0)
        with pytest.raises(ConfigurationError, match="probability"):
            FaultRule(site="x", kind="crash", probability=1.5)

    def test_match_normalizes_to_canonical_tuple(self):
        a = FaultRule(site="x", kind="crash", match={"b": 2, "a": 1})
        b = FaultRule(site="x", kind="crash", match={"a": 1, "b": 2})
        assert a == b
        assert a.matches({"a": 1, "b": 2, "extra": "ignored"})
        assert not a.matches({"a": 1})
        assert not a.matches({"a": 1, "b": 3})

    def test_empty_match_matches_everything(self):
        rule = FaultRule(site="x", kind="io_error")
        assert rule.matches({})
        assert rule.matches({"anything": object()})


class TestFaultPlanSerialization:
    def test_json_round_trip_is_lossless(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="shard.worker",
                    kind="crash",
                    match={"shard": 1},
                    exit_code=3,
                ),
                FaultRule(
                    site="wal.append",
                    kind="torn_write",
                    at_hit=2,
                    times=4,
                    cut=0.3,
                    probability=0.5,
                ),
            ),
            seed=99,
            state_dir="/tmp/budget",
        )
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt == plan
        # And the JSON itself is stable (sorted keys).
        assert plan.to_json() == rebuilt.to_json()

    def test_exit_code_none_stays_implicit(self):
        plan = FaultPlan(rules=(FaultRule(site="x", kind="crash"),))
        assert "exit_code" not in plan.to_dict()["rules"][0]
        assert FaultPlan.from_json(plan.to_json()) == plan


# ----------------------------------------------------------------------
# activation and injection
# ----------------------------------------------------------------------


class TestInjection:
    def test_no_plan_means_no_op(self):
        fault_site("anything.here", key="value")
        assert active_plan() is None

    def test_scoped_restores_environment(self):
        plan = FaultPlan(
            rules=(FaultRule(site="never.hit", kind="io_error"),)
        )
        with plan.scoped() as active:
            assert active is plan
            assert FAULTS_ENV in os.environ
            assert active_plan() == plan
        assert FAULTS_ENV not in os.environ
        assert active_plan() is None

    def test_io_error_fires_at_hit_and_respects_times(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="store.put", kind="io_error", at_hit=2, times=1
                ),
            )
        )
        with plan.scoped():
            fault_site("store.put", address="a")  # hit 1: armed, quiet
            with pytest.raises(OSError):
                fault_site("store.put", address="b")  # hit 2: fires
            fault_site("store.put", address="c")  # budget spent

    def test_match_targets_one_context(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sweep.cell",
                    kind="http_error",
                    match={"index": 1},
                ),
            )
        )
        with plan.scoped():
            fault_site("sweep.cell", index=0, seed=7)
            with pytest.raises(ConnectionError):
                fault_site("sweep.cell", index=1, seed=7)

    def test_env_channel_reaches_a_fresh_process_state(self, tmp_path):
        # Simulate what a forked child sees: env set, module state
        # reset, first fault_site call loads the plan lazily.
        plan = FaultPlan(
            rules=(FaultRule(site="spill.flush", kind="io_error"),)
        )
        os.environ[FAULTS_ENV] = plan.to_json()
        reset_faults()
        with pytest.raises(OSError):
            fault_site("spill.flush", path="x", rows=1)

    def test_env_channel_file_indirection(self, tmp_path):
        plan = FaultPlan(
            rules=(FaultRule(site="feed.post", kind="http_error"),)
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        os.environ[FAULTS_ENV] = f"@{plan_file}"
        reset_faults()
        assert active_plan() == plan
        with pytest.raises(ConnectionError):
            fault_site("feed.post", events=3)

    def test_probability_draws_are_deterministic(self):
        draws = [_unit_draw(42, 0, hit) for hit in range(1, 200)]
        assert draws == [_unit_draw(42, 0, hit) for hit in range(1, 200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # The stream is actually spread out, not degenerate.
        assert 0.1 < sum(d < 0.5 for d in draws) / len(draws) < 0.9

    def test_probabilistic_rule_fires_identically_on_replay(self):
        def fired_hits(plan: FaultPlan) -> list[int]:
            hits = []
            with plan.scoped():
                for hit in range(1, 60):
                    try:
                        fault_site("store.put", address="x")
                    except OSError:
                        hits.append(hit)
            return hits

        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="store.put",
                    kind="io_error",
                    probability=0.3,
                    times=1000,
                ),
            ),
            seed=7,
        )
        first = fired_hits(plan)
        assert first  # ~30% of 59 hits
        assert first == fired_hits(plan)
        # A different seed reshuffles which hits fire.
        other = fired_hits(
            FaultPlan(rules=plan.rules, seed=8)
        )
        assert other != first

    def test_state_dir_budget_survives_a_restart(self, tmp_path):
        # times=1 with a state_dir: the marker claimed by the first
        # firing persists, so a "restarted process" (fresh injector
        # over the same state_dir) does not fire again — the retry
        # succeeds, which is the whole point of fail-once plans.
        plan = FaultPlan(
            rules=(FaultRule(site="wal.append", kind="io_error"),),
            state_dir=str(tmp_path / "budget"),
        )
        with plan.scoped():
            with pytest.raises(OSError):
                fault_site("wal.append", path="x", record={})
        with plan.scoped():  # fresh injector, same state_dir
            fault_site("wal.append", path="x", record={})
        assert list((tmp_path / "budget").iterdir())

    def test_torn_write_needs_path_and_payload(self):
        plan = FaultPlan(
            rules=(FaultRule(site="wal.append", kind="torn_write"),)
        )
        with plan.scoped():
            with pytest.raises(FaultInjectedError, match="torn_write"):
                fault_site("wal.append", nothing="useful")


# ----------------------------------------------------------------------
# retry policy and budget
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)

    def test_delay_schedule_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(0) == 0.0

    def test_jitter_is_deterministic_and_decorrelates_keys(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.delay(1, key="a") == policy.delay(1, key="a")
        assert policy.delay(1, key="a") != policy.delay(1, key="b")
        raw = RetryPolicy(jitter=0.0).delay(1)
        assert raw * 0.5 <= policy.delay(1, key="a") <= raw

    def test_dict_round_trip(self):
        policy = RetryPolicy(attempts=5, base_delay=0.01, seed=3)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_call_retries_then_succeeds(self):
        calls = []
        retried = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        result = RetryPolicy(attempts=3).call(
            flaky,
            on_retry=lambda a, d, e: retried.append((a, round(d, 4))),
            sleep=lambda _: None,
        )
        assert result == "done"
        assert len(calls) == 3
        assert [attempt for attempt, _ in retried] == [1, 2]

    def test_call_exhausts_attempts_and_raises_the_last_error(self):
        def always():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            RetryPolicy(attempts=2).call(always, sleep=lambda _: None)

    def test_call_does_not_retry_unlisted_exceptions(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=5).call(
                wrong_kind, retry_on=(OSError,), sleep=lambda _: None
            )
        assert len(calls) == 1

    def test_budget_caps_total_retries_across_call_sites(self):
        budget = RetryBudget(1)

        def always():
            raise OSError("x")

        policy = RetryPolicy(attempts=3)
        with pytest.raises(OSError):
            policy.call(always, budget=budget, sleep=lambda _: None)
        assert budget.remaining == 0
        # The next call site gets no retries at all.
        calls = []

        def count_and_fail():
            calls.append(1)
            raise OSError("y")

        with pytest.raises(OSError):
            policy.call(
                count_and_fail, budget=budget, sleep=lambda _: None
            )
        assert len(calls) == 1

    def test_budget_validation_and_accounting(self):
        with pytest.raises(ConfigurationError):
            RetryBudget(-1)
        budget = RetryBudget(2)
        assert budget.take() and budget.take() and not budget.take()
        assert budget.remaining == 0

    def test_default_io_policy_shape(self):
        assert DEFAULT_IO_RETRY.attempts == 3
        assert DEFAULT_IO_RETRY.base_delay < 0.5


# ----------------------------------------------------------------------
# supervised execution
# ----------------------------------------------------------------------


def _double(task):
    return task * 2


def _crash_if_marked(task):
    value, marker = task
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _exit_three(task):
    os._exit(3)


def _raise_value_error(task):
    raise ValueError(f"bad task {task}")


def _sleep_forever(task):
    time.sleep(600)


class TestSuperviseIter:
    def test_all_tasks_resolve_with_results(self):
        outcomes = sorted(
            supervise_iter(_double, [1, 2, 3], jobs=2),
            key=lambda o: o.index,
        )
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_worker_exception_is_contained_not_raised(self):
        (outcome,) = supervise_iter(_raise_value_error, ["x"], jobs=1)
        assert not outcome.ok
        assert "ValueError" in outcome.error
        assert "bad task x" in outcome.error

    def test_sigkilled_worker_is_requeued_and_recovers(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        (outcome,) = supervise_iter(
            _crash_if_marked, [(4, marker)], jobs=1, retries=1
        )
        assert outcome.ok
        assert outcome.result == 40
        assert outcome.attempts == 2

    def test_exhausted_retries_report_the_death(self):
        (outcome,) = supervise_iter(
            _exit_three, ["whatever"], jobs=1, retries=1
        )
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "exit code 3" in outcome.error

    def test_timeout_kills_and_reports(self):
        started = time.monotonic()
        (outcome,) = supervise_iter(
            _sleep_forever, ["x"], jobs=1, timeout=0.5
        )
        assert not outcome.ok
        assert "timed out" in outcome.error
        assert time.monotonic() - started < 30

    def test_stale_heartbeat_kills_and_requeues(self, tmp_path):
        # A worker that hangs (no heartbeat) on the first attempt and
        # succeeds on the second — the watchdog path end to end.
        marker = str(tmp_path / "hung-once")
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="test.hang", kind="hang", seconds=600.0
                ),
            ),
            state_dir=str(tmp_path / "budget"),
        )

        with plan.scoped():
            (outcome,) = supervise_iter(
                _hang_at_site,
                [marker],
                jobs=1,
                retries=1,
                heartbeat_interval=0.05,
                stale_after=0.5,
            )
        assert outcome.ok, outcome.error
        assert outcome.attempts == 2

    def test_zero_jobs_is_rejected_not_hung(self):
        # Regression: jobs=0 never launched a child and polled an empty
        # running list forever.
        with pytest.raises(ConfigurationError, match="jobs >= 1"):
            list(supervise_iter(abs, [-1, -2], jobs=0))

    def test_early_close_leaves_no_orphans(self):
        iterator = supervise_iter(
            _first_sleeps_forever, [("sleep",), ("quick",)], jobs=2
        )
        first = next(iterator)  # the quick task resolves...
        assert first.result == "quick done"
        started = time.monotonic()
        iterator.close()  # ...and closing kills the sleeper.
        assert time.monotonic() - started < 30


def _hang_at_site(task):
    fault_site("test.hang")
    return "recovered"


def _first_sleeps_forever(task):
    if task[0] == "sleep":
        time.sleep(600)
    return f"{task[0]} done"
