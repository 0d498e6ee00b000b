"""End-to-end out-of-core runs: spilled serial, spilled sharded, perf.

The out-of-core contract at run level: a spill directory changes where
bytes sit — never what is measured.  Every test here compares a
spilled run against the resident baseline through the analysis
fingerprint (field-for-field equality oracle) or
:func:`repro.shard.dataset_mismatches`.
"""

from __future__ import annotations

import pickle

import pytest

from _golden import analysis_fingerprint
from repro.api.envelope import run_scenario
from repro.api.registry import scenarios
from repro.core.experiment import Experiment
from repro.shard import dataset_mismatches
from repro.telemetry import DiskStringTable


def _short(days: float = 10.0, **kwargs):
    builder = scenarios.get("fast").to_builder().with_duration_days(days)
    for name, value in kwargs.items():
        builder = getattr(builder, f"with_{name}")(value)
    return builder.build()


@pytest.fixture(scope="module")
def resident_run():
    return run_scenario(_short(), seed=2016)


class TestBudgetedSerialRun:
    def test_spill_all_is_bit_identical(self, tmp_path, resident_run):
        spilled = run_scenario(
            _short(), seed=2016, spill_dir=tmp_path / "spill", chunk_rows=512
        )
        assert spilled.dataset.access_store.spilled
        assert spilled.dataset.notification_store.spilled
        assert dataset_mismatches(
            resident_run.dataset, spilled.dataset
        ) == []
        assert analysis_fingerprint(spilled.analysis) == analysis_fingerprint(
            resident_run.analysis
        )

    def test_unlimited_budget_stays_resident(self):
        # Without a spill directory every store stays resident.
        monitor = Experiment.from_scenario(_short(), seed=2016).build().monitor
        assert not any(
            store.spilled
            for store in (
                monitor.access_store,
                monitor.notification_store,
                monitor.scrape_log_store,
                monitor.failure_log,
            )
        )

    def test_budget_plan_applied_at_build(self, tmp_path):
        experiment = Experiment.from_scenario(
            _short(), seed=2016, spill_dir=tmp_path
        ).build()
        monitor = experiment.monitor
        assert monitor.access_store.spilled
        assert monitor.notification_store.spilled
        assert monitor.scrape_log_store.spilled
        # The lockout log stays resident even with a spill directory.
        assert not monitor.failure_log.spilled

    def test_spilled_result_pickles(self, tmp_path):
        run = run_scenario(
            _short(5.0), seed=7, spill_dir=tmp_path / "spill", chunk_rows=512
        )
        clone = pickle.loads(pickle.dumps(run))
        # Spilled stores materialise on pickling; rows survive intact.
        assert not clone.dataset.access_store.spilled
        assert dataset_mismatches(run.dataset, clone.dataset) == []


class TestBudgetedShardedRun:
    def test_sharded_spilled_matches_resident_serial(
        self, tmp_path, resident_run
    ):
        merged = run_scenario(
            _short(shards=2),
            seed=2016,
            jobs=1,
            spill_dir=tmp_path / "spill",
            chunk_rows=512,
        )
        assert merged.dataset.access_store.spilled
        assert dataset_mismatches(
            resident_run.dataset, merged.dataset
        ) == []
        assert analysis_fingerprint(merged.analysis) == analysis_fingerprint(
            resident_run.analysis
        )
        # Workers spilled under shard-<i>/, the coordinator merged
        # under merged/ — all within the one given directory.
        base = tmp_path / "spill"
        assert sorted(path.name for path in base.iterdir()) == [
            "merged", "shard-0", "shard-1",
        ]

    def test_worker_pool_path_matches_in_process(self, tmp_path):
        scenario = _short(5.0, shards=2)
        pooled = run_scenario(
            scenario,
            seed=11,
            jobs=2,
            spill_dir=tmp_path / "pooled",
            chunk_rows=512,
        )
        serial = run_scenario(_short(5.0), seed=11)
        assert dataset_mismatches(serial.dataset, pooled.dataset) == []


class TestSpilledCopyFidelity:
    def test_spilled_copy_analysis_fingerprint_equal(
        self, tmp_path, resident_run
    ):
        copy = resident_run.dataset.spilled_copy(tmp_path, chunk_rows=256)
        assert copy.access_store.spilled
        assert isinstance(copy.access_store.strings, DiskStringTable)
        from repro.analysis.dataset import analyze

        scan_period = resident_run.config.scan_period
        assert analysis_fingerprint(
            analyze(copy, scan_period=scan_period)
        ) == analysis_fingerprint(resident_run.analysis)


class TestRunPerfAccounting:
    def test_perf_summary_reports_memory(self, resident_run):
        perf = resident_run.summary()["perf"]
        assert perf["peak_rss_kb"] > 0
        assert perf["accounts_per_gb"] > 0
        assert set(perf["rss_kb"]) == {
            "build", "provision", "leak", "case_studies", "simulate",
            "assemble",
        }
        assert perf["peak_rss_kb"] == max(perf["rss_kb"].values())

    def test_analyze_perf_marks_recorded_once(self, resident_run):
        resident_run.analysis  # force computation
        marks = resident_run.analyze_perf()
        assert marks["analyze_seconds"] > 0
        assert marks["analyze_peak_rss_kb"] > 0
        again = resident_run.analyze_perf()
        assert again == marks  # computed once, cached after

    def test_summary_stable_across_pickle(self, resident_run):
        expected = resident_run.summary()
        clone = pickle.loads(pickle.dumps(resident_run))
        assert clone.summary() == expected
