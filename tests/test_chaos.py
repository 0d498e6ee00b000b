"""Chaos suite: injected faults across shard, sweeps, and service.

Every test follows the same contract: inject a fault from a
:class:`~repro.faults.plan.FaultPlan`, let supervision / retry recover,
and assert the recovered output is **identical** to a fault-free run —
the analysis fingerprint for simulation workloads, the classifier
fingerprint for service replay, raw bytes for storage layers.  Runs
are deterministic in (scenario, seed), so recovery has no excuse to
differ.

Tests with ``quick`` in their name form the CI chaos-smoke tier
(``pytest tests/test_chaos.py -k quick``): at least one crash, one
hang, and one IO fault per layer, on shortened workloads.
"""

import json
import multiprocessing
import os
from array import array

import pytest

from _golden import analysis_fingerprint
from repro.api.envelope import run_scenario
from repro.api.registry import scenarios
from repro.errors import DegradedError, SupervisionError
from repro.faults import FAULTS_ENV, FaultPlan, FaultRule, reset_faults
from repro.service import (
    LiveFeed,
    OnlineClassifier,
    ReproService,
    ServiceState,
    WriteAheadLog,
    events_from_dataset,
    replay_wal,
    restore_service_state,
    write_service_checkpoint,
)
from repro.shard import dataset_mismatches, run_sharded
from repro.sweeps import ResultsStore, SweepManager, read_journal
from repro.telemetry.spill import ChunkFile
from test_service_classifier import access_event
from test_service_server import LiveServer

SEED = 2016


@pytest.fixture(autouse=True)
def _clean_fault_state():
    saved = os.environ.pop(FAULTS_ENV, None)
    reset_faults()
    yield
    os.environ.pop(FAULTS_ENV, None)
    if saved is not None:
        os.environ[FAULTS_ENV] = saved
    reset_faults()


def _short(days: float = 10.0):
    return (
        scenarios.get("fast")
        .to_builder()
        .with_duration_days(days)
        .build()
        .with_seed(SEED)
    )


def _crash_once(site: str, state_dir, *, match=None, exit_code=None):
    return FaultPlan(
        rules=(
            FaultRule(
                site=site,
                kind="crash",
                match=match or {},
                exit_code=exit_code,
            ),
        ),
        state_dir=str(state_dir),
    )


# ----------------------------------------------------------------------
# shard layer
# ----------------------------------------------------------------------


class TestShardChaos:
    def test_quick_shard_crash_recovers_identically(self, tmp_path):
        scenario = _short()
        baseline = run_sharded(scenario, shards=2, jobs=1)
        plan = _crash_once(
            "shard.worker", tmp_path / "budget", match={"shard": 1}
        )
        with plan.scoped():
            recovered = run_sharded(
                scenario, shards=2, jobs=2, shard_retries=1
            )
        assert not dataset_mismatches(
            baseline.dataset, recovered.dataset
        )
        assert analysis_fingerprint(
            recovered.analysis
        ) == analysis_fingerprint(baseline.analysis)

    def test_quick_shard_hang_is_killed_and_requeued(self, tmp_path):
        # The state-dir budget hangs only shard 0's first attempt; the
        # shard timeout kills that worker and the requeued attempt runs
        # clean, well inside the same timeout.
        scenario = _short()
        baseline = run_sharded(scenario, shards=2, jobs=1)
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="shard.worker",
                    kind="hang",
                    match={"shard": 0},
                    seconds=600.0,
                ),
            ),
            state_dir=str(tmp_path / "budget"),
        )
        with plan.scoped():
            recovered = run_sharded(
                scenario,
                shards=2,
                jobs=2,
                shard_timeout=4.0,
                shard_retries=1,
            )
        assert not dataset_mismatches(
            baseline.dataset, recovered.dataset
        )

    def test_shard_crash_exhausting_retries_is_loud(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="shard.worker",
                    kind="crash",
                    match={"shard": 0},
                    times=5,
                ),
            ),
            state_dir=str(tmp_path / "budget"),
        )
        with plan.scoped():
            with pytest.raises(SupervisionError, match="shard 0"):
                run_sharded(
                    _short(), shards=2, jobs=2, shard_retries=1
                )


# ----------------------------------------------------------------------
# sweep layer
# ----------------------------------------------------------------------


class TestSweepChaos:
    def _expected_fingerprints(self, scenario, seeds):
        return [
            analysis_fingerprint(
                run_scenario(scenario, seed=seed).analysis
            )
            for seed in seeds
        ]

    def test_quick_pool_cell_crash_is_requeued(self, tmp_path):
        scenario = _short()
        seeds = [2016, 2017]
        expected = self._expected_fingerprints(scenario, seeds)
        plan = _crash_once(
            "sweep.cell", tmp_path / "budget", match={"index": 0}
        )
        store = ResultsStore(tmp_path / "store")
        manager = SweepManager(scenario, seeds, store, retries=1)
        with plan.scoped():
            result = manager.run(jobs=2)
        assert result.complete
        assert result.cells[0].attempts == 2
        assert [
            analysis_fingerprint(cell.run.analysis)
            for cell in result.cells
        ] == expected
        assert store.verify() == []
        statuses = [
            (r["status"], r.get("seed"))
            for r in read_journal(store.journal_path)
            if r.get("event") == "cell"
        ]
        assert ("requeued", 2016) in statuses

    def test_quick_pool_cell_hang_is_killed_and_requeued(self, tmp_path):
        # The state-dir budget hangs only the first attempt; the cell
        # timeout kills that worker and the requeued attempt runs
        # clean, well inside the same timeout.
        scenario = _short()
        expected = self._expected_fingerprints(scenario, [SEED])
        plan = FaultPlan(
            rules=(FaultRule(site="sweep.cell", kind="hang"),),
            state_dir=str(tmp_path / "budget"),
        )
        store = ResultsStore(tmp_path / "store")
        manager = SweepManager(scenario, [SEED], store, retries=1)
        with plan.scoped():
            result = manager.run(cell_timeout=4.0)
        assert result.complete
        assert result.cells[0].attempts == 2
        assert [
            analysis_fingerprint(cell.run.analysis)
            for cell in result.cells
        ] == expected
        requeues = [
            r
            for r in read_journal(store.journal_path)
            if r.get("status") == "requeued"
        ]
        assert len(requeues) == 1
        assert "timed out" in requeues[0]["error"]

    def test_quick_store_put_io_error_is_retried_and_journaled(
        self, tmp_path
    ):
        scenario = _short()
        plan = FaultPlan(
            rules=(FaultRule(site="store.put", kind="io_error"),)
        )
        store = ResultsStore(tmp_path / "store")
        manager = SweepManager(scenario, [SEED], store, retries=0)
        with plan.scoped():
            result = manager.run()
        assert result.complete
        assert store.verify() == []
        assert store.get(result.cells[0].spec) is not None
        store_retries = [
            r
            for r in read_journal(store.journal_path)
            if r.get("status") == "store_retry"
        ]
        assert len(store_retries) == 1

    def test_store_verify_quarantine_turns_corruption_into_absence(
        self, tmp_path
    ):
        scenario = _short()
        store = ResultsStore(tmp_path / "store")
        manager = SweepManager(scenario, [SEED], store, retries=0)
        result = manager.run()
        spec = result.cells[0].spec
        payload_path = store._payload_path(spec.address)
        payload_path.write_bytes(b"garbage" * 100)

        problems = store.verify()
        assert any("sha256 mismatch" in p for p in problems)
        assert spec in store  # corruption alone does not hide it

        problems = store.verify(quarantine=True)
        assert any("sha256 mismatch" in p for p in problems)
        assert spec not in store
        moved = list(store.quarantine_dir.rglob("*"))
        assert any(p.suffix == ".pkl" for p in moved)
        assert any(p.suffix == ".json" for p in moved)
        assert store.verify() == []
        # The next resume recomputes the quarantined cell.
        rerun = SweepManager(scenario, [SEED], store, retries=0).run(
            resume=True
        )
        assert rerun.executed == 1 and rerun.complete


# ----------------------------------------------------------------------
# service layer
# ----------------------------------------------------------------------


def _events(n: int = 5) -> list[dict]:
    return [
        access_event(cookie=f"c{i}", timestamp=1000.0 + i)
        for i in range(n)
    ]


def _wal_writer_child(path: str) -> None:
    """Forked child: appends events until the injected fault kills it."""
    wal = WriteAheadLog(path)
    for record in _events(3):
        wal.append([record])
    wal.close()


def _group_writer_child(path: str, batches: list[list[dict]]) -> None:
    """Forked child: journals one request per batch until the injected
    fault kills it."""
    state = ServiceState(OnlineClassifier(), wal=WriteAheadLog(path))
    for batch in batches:
        state.apply(batch, json.dumps(batch).encode())
    state.close()


class TestServiceChaos:
    def test_quick_wal_transient_io_error_is_invisible(self, tmp_path):
        wal_path = tmp_path / "events.wal"
        plan = FaultPlan(
            rules=(FaultRule(site="wal.append", kind="io_error"),)
        )
        with plan.scoped():
            state = ServiceState(
                OnlineClassifier(), wal=WriteAheadLog(wal_path)
            )
            for record in _events():
                state.apply([record])
            state.close()
        assert not state.degraded
        assert list(replay_wal(wal_path)) == _events()

    def test_quick_wal_persistent_failure_degrades_then_recovers(
        self, tmp_path
    ):
        wal_path = tmp_path / "events.wal"
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="wal.append", kind="io_error", times=3
                ),
            )
        )
        state = ServiceState(
            OnlineClassifier(), wal=WriteAheadLog(wal_path)
        )
        events = _events()
        with plan.scoped():
            with pytest.raises(DegradedError, match="WAL unwritable"):
                state.apply([events[0]])
        assert state.degraded
        stats = state.stats()
        assert stats["degraded"] is True
        assert stats["wal_failures"] == 1
        # The failed event was NOT applied — the WAL stays the source
        # of truth — and the next successful append clears the flag.
        state.apply([events[0]])
        assert not state.degraded
        assert state.stats()["degraded"] is False
        state.close()
        assert list(replay_wal(wal_path)) == [events[0]]

    def test_quick_degraded_service_answers_503(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="wal.append",
                    kind="io_error",
                    at_hit=2,
                    times=3,
                ),
            )
        )
        wal_path = tmp_path / "events.wal"
        state = ServiceState(OnlineClassifier(), wal=WriteAheadLog(wal_path))
        service = ReproService(state)
        with plan.scoped():
            status, _ = service._ingest_body(json.dumps(_events(2)).encode())
            assert status == 200
            status, payload = service._ingest_body(
                json.dumps(_events(3)).encode()
            )
        assert status == 503
        assert payload["degraded"] is True
        # The failed request's line was never written, so none of its
        # events was applied; the WAL holds only the earlier request.
        assert payload["accepted"] == 0
        assert state.classifier.events_ingested == 2
        assert list(replay_wal(wal_path)) == _events(2)
        status, payload = service._dispatch("GET", "/healthz", b"")
        assert (status, payload["status"]) == (503, "degraded")
        # --degraded-ok keeps liveness green so orchestrators don't
        # kill-loop a service whose disk is the problem.
        tolerant = ReproService(state, degraded_ok=True)
        status, payload = tolerant._dispatch("GET", "/healthz", b"")
        assert (status, payload["degraded"]) == (200, True)
        state.close()

    def test_quick_torn_wal_write_recovers_on_resume(self, tmp_path):
        wal_path = tmp_path / "events.wal"
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="wal.append",
                    kind="torn_write",
                    at_hit=2,
                    cut=0.4,
                ),
            )
        )
        ctx = multiprocessing.get_context("fork")
        with plan.scoped():
            child = ctx.Process(
                target=_wal_writer_child, args=(str(wal_path),)
            )
            child.start()
            child.join(timeout=30)
        assert child.exitcode == -9  # SIGKILL mid-write, as planned
        # The torn tail is invisible to replay and truncated on resume.
        assert list(replay_wal(wal_path)) == _events(1)
        resumed = WriteAheadLog(wal_path, resume=True)
        assert resumed.position == 1
        resumed.append([_events(2)[1]])
        resumed.close()
        assert list(replay_wal(wal_path)) == _events(2)

    def test_quick_torn_group_write_is_dropped_whole(self, tmp_path):
        wal_path = tmp_path / "events.wal"
        events = _events(7)
        batches = [events[:3], events[3:]]
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="wal.append",
                    kind="torn_write",
                    at_hit=2,
                    cut=0.6,
                ),
            )
        )
        ctx = multiprocessing.get_context("fork")
        with plan.scoped():
            child = ctx.Process(
                target=_group_writer_child, args=(str(wal_path), batches)
            )
            child.start()
            child.join(timeout=30)
        assert child.exitcode == -9  # SIGKILL mid-write, as planned
        # The second request's line is torn: none of its events
        # replays, not even the ones wholly inside the cut.
        assert list(replay_wal(wal_path)) == batches[0]
        # The feed never saw a 200, so it resends the whole batch;
        # every event is then counted exactly once.
        state = restore_service_state(wal_path, None)
        service = ReproService(state)
        status, payload = service._ingest_body(
            json.dumps(batches[1]).encode()
        )
        assert (status, payload["accepted"]) == (200, len(batches[1]))
        status, stats = service._dispatch("GET", "/stats", b"")
        assert status == 200
        assert stats["events"]["total"] == len(events)
        assert stats["wal_position"] == 2
        state.close()
        assert list(replay_wal(wal_path)) == events

    def test_quick_checkpoint_write_io_error_is_retried(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(site="checkpoint.write", kind="io_error"),
            )
        )
        with plan.scoped():
            with LiveServer(tmp_path) as server:
                status, _ = server.request(
                    "POST", "/events", _events()
                )
                assert status == 200
        checkpoint = json.loads(server.checkpoint_path.read_text())
        assert checkpoint["wal_position"] == 1  # one line per request

    def test_quick_feed_http_transient_error_is_retried(self, tmp_path):
        plan = FaultPlan(
            rules=(FaultRule(site="feed.post", kind="http_error"),)
        )
        events = _events(7)
        with LiveServer(tmp_path) as server:
            with plan.scoped():
                feed = LiveFeed.over_http(
                    server.url, batch_size=3
                )
                for record in events:
                    feed.send(record)
                feed.close()
            status, stats = server.request("GET", "/stats")
        assert status == 200
        # Exactly once: the retried batch was not double-ingested.
        assert stats["events"]["total"] == len(events)
        assert feed.events_sent == len(events)

    def test_quick_feed_resends_a_degraded_batch_whole(self, tmp_path):
        # Every WAL try of the second request fails, so the service
        # answers 503 having applied none of it; the feed resends it.
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="wal.append", kind="io_error", at_hit=2, times=3
                ),
            )
        )
        events = _events(6)
        with LiveServer(tmp_path) as server:
            with plan.scoped():
                feed = LiveFeed.over_http(server.url, batch_size=3)
                for record in events:
                    feed.send(record)
                feed.close()
            status, stats = server.request("GET", "/stats")
        assert status == 200
        assert stats["events"]["total"] == len(events)
        assert stats["wal_failures"] == 1
        assert stats["wal_position"] == 2
        assert list(replay_wal(tmp_path / "events.wal")) == events

    def test_replay_fingerprint_identical_under_io_faults(
        self, tmp_path, experiment_result
    ):
        """The acceptance bar: a serve-replay workload, with IO faults
        on both WAL appends and the checkpoint write, restores to the
        exact classifier state of a fault-free ingest."""
        events = list(
            events_from_dataset(
                experiment_result.dataset,
                scan_period=experiment_result.config.scan_period,
            )
        )
        clean = ServiceState(OnlineClassifier())
        for record in events:
            clean.apply([record])
        expected = clean.classifier.fingerprint()

        wal_path = tmp_path / "events.wal"
        ckpt_path = tmp_path / "service.ckpt"
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="wal.append",
                    kind="io_error",
                    at_hit=10,
                    times=2,
                ),
                FaultRule(site="checkpoint.write", kind="io_error"),
            )
        )
        from repro.faults.retry import DEFAULT_IO_RETRY

        with plan.scoped():
            state = ServiceState(
                OnlineClassifier(), wal=WriteAheadLog(wal_path)
            )
            for record in events:
                state.apply([record])
            DEFAULT_IO_RETRY.call(
                lambda: write_service_checkpoint(ckpt_path, state),
                retry_on=(OSError,),
            )
            state.close()
        assert state.classifier.fingerprint() == expected
        restored = restore_service_state(wal_path, ckpt_path)
        assert restored.classifier.fingerprint() == expected
        restored.close()


# ----------------------------------------------------------------------
# telemetry spill layer
# ----------------------------------------------------------------------


class TestSpillChaos:
    def test_quick_spill_flush_io_error_is_retried(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="spill.flush", kind="io_error", at_hit=2
                ),
            )
        )
        chunk_file = ChunkFile(tmp_path / "col.bin", "d")
        first = array("d", [1.5, 2.5, 3.5])
        second = array("d", [4.5, 5.5])
        with plan.scoped():
            chunk_file.append_chunk(first)   # hit 1: clean
            chunk_file.append_chunk(second)  # hit 2: fails, retried
        assert chunk_file.rows == 5
        # On-disk layout is identical to a fault-free run: no partial
        # chunk bytes survive the rolled-back first attempt.
        assert (tmp_path / "col.bin").stat().st_size == 5 * 8
        assert list(chunk_file.chunk(0)) == list(first)
        assert list(chunk_file.chunk(1)) == list(second)
