"""Tests for repro.sweeps.manager."""

import os
from types import SimpleNamespace

import pytest

from repro.analysis.fingerprint import fingerprint_digest
from repro.api import BatchRunner, scenarios
from repro.errors import ConfigurationError, SweepError
from repro.faults import FaultPlan, FaultRule
from repro.sweeps import (
    CellStatus,
    CellTask,
    ResultsStore,
    SweepManager,
    read_journal,
)
from repro.sweeps.manager import _execute_cell

TINY = (
    scenarios.get("fast")
    .to_builder()
    .named("tiny")
    .with_duration_days(6.0)
    .with_emails_per_account(8, 12)
    .build()
)
TINY_B = TINY.with_name("tiny-b")

VERSION = "manager-test-v1"


def make_manager(store, scenario_list=None, seeds=(2016, 2017), **kwargs):
    kwargs.setdefault("code_version", VERSION)
    return SweepManager(
        scenario_list if scenario_list is not None else [TINY],
        list(seeds),
        store,
        **kwargs,
    )


@pytest.fixture()
def store(tmp_path) -> ResultsStore:
    return ResultsStore(tmp_path / "store")


def failing_cells(times: int, indices=(0, 1)):
    """A scoped plan failing each listed cell's first ``times``
    attempts with an injected IO error at the ``sweep.cell`` site."""
    return FaultPlan(
        rules=tuple(
            FaultRule(
                site="sweep.cell",
                kind="io_error",
                match={"index": index},
                times=times,
            )
            for index in indices
        )
    ).scoped()


class TestPlanning:
    def test_plan_orders_scenario_major(self, store):
        manager = make_manager(store, [TINY, TINY_B], seeds=(1, 2))
        cells = manager.plan()
        assert [(c.scenario.name, c.seed) for c in cells] == [
            ("tiny", 1), ("tiny", 2), ("tiny-b", 1), ("tiny-b", 2),
        ]
        assert all(c.status is CellStatus.PENDING for c in cells)
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_validation(self, store):
        with pytest.raises(ConfigurationError, match="one scenario"):
            SweepManager([], [1], store)
        with pytest.raises(ConfigurationError, match="one seed"):
            SweepManager([TINY], [], store)
        with pytest.raises(ConfigurationError, match="unique"):
            SweepManager([TINY, TINY], [1], store)
        with pytest.raises(ConfigurationError, match="retries"):
            SweepManager([TINY], [1], store, retries=-1)

    def test_single_scenario_needs_no_list(self, store):
        manager = SweepManager(TINY, [1], store, code_version=VERSION)
        assert len(manager.plan()) == 1


class TestMemoizedExecution:
    def test_cold_then_warm(self, store):
        manager = make_manager(store)
        cold = manager.run()
        assert cold.executed == 2 and cold.cached == 0
        assert cold.complete

        warm = make_manager(store).run(resume=True)
        assert warm.executed == 0 and warm.cached == 2
        assert warm.complete
        # Same aggregates whether computed or loaded.
        assert (
            warm.batch().aggregate().to_dict()
            == cold.batch().aggregate().to_dict()
        )

    def test_killed_and_resumed_equals_uninterrupted(
        self, store, tmp_path
    ):
        """The acceptance-criteria scenario: kill after one cell, resume,
        compare against an uninterrupted sweep in a fresh store."""
        first = make_manager(store, [TINY, TINY_B]).run(max_cells=1)
        assert first.executed == 1
        assert first.deferred == 3
        assert not first.complete

        resumed = make_manager(store, [TINY, TINY_B]).run(resume=True)
        assert resumed.cached == 1 and resumed.executed == 3
        assert resumed.complete
        journal = read_journal(store.journal_path)
        cached = [
            r
            for r in journal
            if r.get("event") == "cell" and r["status"] == "cached"
        ]
        assert len(cached) == 1

        uninterrupted = make_manager(
            ResultsStore(tmp_path / "fresh"), [TINY, TINY_B]
        ).run()
        resumed_batch = resumed.batch()
        straight_batch = uninterrupted.batch()
        assert [
            fingerprint_digest(r.analysis) for r in resumed_batch.runs
        ] == [
            fingerprint_digest(r.analysis) for r in straight_batch.runs
        ]
        assert {
            name: agg.to_dict()
            for name, agg in resumed_batch.aggregates.items()
        } == {
            name: agg.to_dict()
            for name, agg in straight_batch.aggregates.items()
        }

    def test_sweep_matches_batchrunner_bit_for_bit(self, store):
        sweep_batch = make_manager(store).run().batch()
        direct = BatchRunner().run(TINY, [2016, 2017])
        assert (
            sweep_batch.aggregate().to_dict()
            == direct.aggregate().to_dict()
        )

    def test_code_version_miss_recomputes(self, store):
        make_manager(store).run()
        other = make_manager(store, code_version="manager-test-v2")
        result = other.run(resume=True)
        assert result.cached == 0 and result.executed == 2
        # Both versions now coexist until gc.
        assert len(store) == 4


class TestResumeGuard:
    def test_second_run_requires_resume(self, store):
        make_manager(store).run()
        with pytest.raises(ConfigurationError, match="resume"):
            make_manager(store).run()

    def test_custom_journal_path(self, store, tmp_path):
        path = tmp_path / "elsewhere.jsonl"
        manager = make_manager(store, journal_path=path)
        manager.run()
        assert path.exists()
        assert not store.journal_path.exists()


class TestJournalAndProgress:
    def test_journal_records_lifecycle(self, store):
        make_manager(store).run()
        journal = read_journal(store.journal_path)
        events = [r["event"] for r in journal]
        assert events[0] == "launch" and events[-1] == "finish"
        statuses = [
            r["status"] for r in journal if r["event"] == "cell"
        ]
        # The whole batch is marked running at dispatch, then each cell
        # reports done as it completes.
        assert statuses == ["running", "running", "done", "done"]
        done = [
            r
            for r in journal
            if r["event"] == "cell" and r["status"] == "done"
        ]
        assert all(
            r["address"] and r["scenario"] == "tiny" for r in done
        )
        finish = journal[-1]
        assert finish["done"] == 2 and finish["failed"] == 0

    def test_progress_callback_sees_every_record(self, store):
        seen = []
        make_manager(store, progress=seen.append).run()
        assert [r["event"] for r in seen] == [
            r["event"] for r in read_journal(store.journal_path)
        ]


class TestFailureHandling:
    def test_failures_become_failed_runs(self, store):
        with failing_cells(times=1):
            result = make_manager(store, retries=0).run()
        assert result.failed == 2 and result.executed == 0
        batch = result.batch()
        assert batch.runs == []
        assert [f.seed for f in batch.failures] == [2016, 2017]
        assert "injected IO fault at sweep.cell" in batch.failures[0].error
        assert not batch.ok

    def test_retry_budget_recovers_flaky_cells(self, store):
        with failing_cells(times=1):
            result = make_manager(store, retries=1).run()
        assert result.failed == 0 and result.executed == 2
        journal = read_journal(store.journal_path)
        requeued = [
            r
            for r in journal
            if r.get("event") == "cell" and r["status"] == "requeued"
        ]
        assert len(requeued) == 2

    def test_retry_budget_is_bounded(self, store):
        with failing_cells(times=5):
            result = make_manager(store, retries=2).run()
        assert result.failed == 2
        # 1 initial + 2 retries per cell
        assert [cell.attempts for cell in result.cells] == [3, 3]

    def test_strict_raises_sweep_error(self, store):
        with failing_cells(times=1), pytest.raises(
            SweepError, match="injected"
        ):
            make_manager(store, retries=0).run(strict=True)
        # The journal still recorded the failures before the raise.
        journal = read_journal(store.journal_path)
        assert any(
            r.get("status") == "failed" for r in journal
        )

    def test_cell_failure_is_contained_not_raised(self, store):
        # A malformed scenario JSON must fail its cell, not the sweep.
        outcome = _execute_cell(
            CellTask(index=0, scenario_json="{broken", seed=1)
        )
        assert not outcome.ok
        assert "ConfigurationError" in outcome.error


class TestMaxCells:
    def test_deferred_cells_stay_unexecuted(self, store):
        result = make_manager(store).run(max_cells=1)
        statuses = [c.status for c in result.cells]
        assert statuses == [CellStatus.DONE, CellStatus.DEFERRED]
        journal = read_journal(store.journal_path)
        assert any(r.get("status") == "deferred" for r in journal)

    def test_max_cells_zero_executes_nothing(self, store):
        result = make_manager(store).run(max_cells=0)
        assert result.executed == 0 and result.deferred == 2
        with pytest.raises(ConfigurationError, match="max_cells"):
            make_manager(store).run(resume=True, max_cells=-1)


def _pid_run(scenario, seed=None, **kwargs):
    """Stands in for ``run_scenario``: the "run" is the worker's pid."""
    return SimpleNamespace(pid=os.getpid())


class TestDispatch:
    @pytest.mark.parametrize(
        "kwargs, forked",
        [
            ({}, False),
            ({"jobs": 2}, True),
            # A cell timeout needs a worker to kill, even with one job.
            ({"cell_timeout": 60.0}, True),
        ],
        ids=["in_process", "jobs_2", "cell_timeout"],
    )
    def test_where_cells_run(self, monkeypatch, kwargs, forked):
        monkeypatch.setattr("repro.api.envelope.run_scenario", _pid_run)
        result = make_manager(None, retries=0).run(**kwargs)
        assert result.executed == 2
        pids = {cell.run.pid for cell in result.cells}
        assert (os.getpid() not in pids) is forked

    def test_pooled_matches_in_process(self, store, tmp_path):
        pool_store = ResultsStore(tmp_path / "pool-store")
        serial = make_manager(store).run()
        pooled = make_manager(pool_store).run(jobs=2)
        assert pooled.executed == 2

        def strip(run):
            summary = run.summary()
            summary.pop("elapsed_seconds")
            summary.pop("perf")
            return summary

        assert [strip(r) for r in serial.batch().runs] == [
            strip(r) for r in pooled.batch().runs
        ]

    def test_launch_record_carries_jobs_and_cell_timeout(self, store):
        make_manager(store, seeds=(2016,)).run(jobs=2, cell_timeout=60.0)
        launch = read_journal(store.journal_path)[0]
        assert launch["event"] == "launch"
        assert (launch["jobs"], launch["cell_timeout"]) == (2, 60.0)
        assert "backend" not in launch

    def test_zero_jobs_is_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            make_manager(None).run(jobs=0)


class TestStoreless:
    def test_runs_retries_and_reports_without_writing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        seen = []
        manager = make_manager(None, seeds=(2016,), progress=seen.append)
        with failing_cells(times=1, indices=(0,)):
            result = manager.run()
        assert result.complete and result.executed == 1
        assert [r.seed for r in result.batch().runs] == [2016]
        assert manager.journal_path is None
        assert list(tmp_path.iterdir()) == []
        assert [r["event"] for r in seen] == [
            "launch", "cell", "cell", "cell", "cell", "finish",
        ]
        assert [r["status"] for r in seen if r["event"] == "cell"] == [
            "running", "requeued", "running", "done",
        ]

    def test_resume_max_cells_and_journal_need_a_store(self, tmp_path):
        manager = make_manager(None)
        with pytest.raises(ConfigurationError, match="--store"):
            manager.run(resume=True)
        with pytest.raises(ConfigurationError, match="--store"):
            manager.run(max_cells=1)
        with pytest.raises(ConfigurationError, match="journal"):
            make_manager(None, journal_path=tmp_path / "journal.jsonl")
