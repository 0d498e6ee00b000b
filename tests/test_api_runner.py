"""Tests for repro.api.envelope and repro.api.runner."""

import pickle

import pytest

from repro.api import (
    BatchRunner,
    RunResult,
    aggregate_runs,
    run_scenario,
    scenarios,
)
from repro.api.runner import AGGREGATED_METRICS, AggregateStats
from repro.errors import ConfigurationError, SweepError
from repro.faults import FaultPlan, FaultRule
from repro.sim.clock import hours

#: A deliberately small scenario so runner tests stay fast.
TINY = (
    scenarios.get("fast")
    .to_builder()
    .named("tiny")
    .with_duration_days(8.0)
    .with_emails_per_account(8, 12)
    .build()
)


@pytest.fixture(scope="module")
def tiny_run() -> RunResult:
    return run_scenario(TINY, seed=2016)


class TestRunResult:
    def test_envelope_fields(self, tiny_run):
        assert tiny_run.seed == 2016
        assert tiny_run.scenario.name == "tiny"
        assert tiny_run.account_count == 100
        assert tiny_run.events_executed > 0
        assert tiny_run.elapsed_seconds > 0
        assert tiny_run.experiment_result is not None
        assert tiny_run.experiment_result.dataset is tiny_run.dataset

    def test_analysis_uses_configured_scan_period(self):
        # A distinctive cadence: if the analysis fell back to the
        # analyze() default this assertion would catch it.
        scenario = (
            TINY.to_builder()
            .named("odd-cadence")
            .with_scan_period(hours(5))
            .build()
        )
        run = run_scenario(scenario, seed=4)
        assert run.config.scan_period == hours(5)
        assert run.analysis.scan_period == hours(5)

    def test_analysis_cached(self, tiny_run):
        assert tiny_run.analysis is tiny_run.analysis

    def test_overview_and_summary(self, tiny_run):
        stats = tiny_run.overview()
        summary = tiny_run.summary()
        assert summary["overview"]["unique_accesses"] == stats.unique_accesses
        assert summary["scenario"] == "tiny"
        assert summary["seed"] == 2016
        assert set(summary["cvm_tests"]) <= {
            "paste_uk_p", "paste_us_p", "forum_uk_p", "forum_us_p",
        }

    def test_pickle_round_trip_drops_live_world(self, tiny_run):
        _ = tiny_run.analysis  # populate the cache, then drop it
        restored = pickle.loads(pickle.dumps(tiny_run))
        assert restored.experiment_result is None
        assert restored._analysis is None
        assert restored.summary() == tiny_run.summary()

    def test_outlet_restricted_significance_is_partial(self):
        scenario = (
            scenarios.get("malware_only")
            .to_builder()
            .with_duration_days(8.0)
            .with_emails_per_account(8, 12)
            .build()
        )
        run = run_scenario(scenario, seed=5)
        # no with/without-location panels exist on the malware outlet
        assert run.significance() == {}


def _strip_timings(run):
    summary = run.summary()
    summary.pop("elapsed_seconds")
    summary.pop("perf")
    return summary


class TestBatchRunner:
    def test_pooled_matches_serial_bit_for_bit(self):
        seeds = [2016, 2017, 2018]
        serial = BatchRunner(jobs=1).run(TINY, seeds)
        pooled = BatchRunner(jobs=2).run(TINY, seeds)
        assert [r.seed for r in serial.runs] == seeds
        assert [r.seed for r in pooled.runs] == seeds

        # wall-clock timings are not deterministic; all else must match
        assert [_strip_timings(r) for r in serial.runs] == [
            _strip_timings(r) for r in pooled.runs
        ]
        assert (
            serial.aggregate().to_dict() == pooled.aggregate().to_dict()
        )

    def test_serial_rebuilds_from_serialized_scenario(self):
        # The serial path must round-trip the scenario through JSON just
        # like the workers do, so direct runs and batch runs agree.
        direct = run_scenario(TINY, seed=2016).summary()
        batched = BatchRunner().run(TINY, seeds=[2016]).runs[0].summary()
        direct.pop("elapsed_seconds")
        batched.pop("elapsed_seconds")
        # Wall-clock phase timings differ run to run; the *shape* must
        # agree, everything else must be bit-identical.
        assert direct.pop("perf").keys() == batched.pop("perf").keys()
        assert direct == batched

    def test_matrix_covers_cross_product(self):
        other = TINY.with_name("tiny-b")
        batch = BatchRunner().run_matrix([TINY, other], seeds=[1, 2])
        assert [(r.scenario.name, r.seed) for r in batch.runs] == [
            ("tiny", 1), ("tiny", 2), ("tiny-b", 1), ("tiny-b", 2),
        ]
        assert set(batch.aggregates) == {"tiny", "tiny-b"}
        with pytest.raises(ConfigurationError, match="name one of"):
            batch.aggregate()
        assert batch.aggregate("tiny").seeds == (1, 2)

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            BatchRunner().run_matrix([TINY, TINY], seeds=[1])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner().run(TINY, seeds=[])
        with pytest.raises(ConfigurationError):
            BatchRunner().run_matrix([], seeds=[1])
        with pytest.raises(ConfigurationError):
            BatchRunner(jobs=0)


def _boom_on_seed_2(scenario, seed=None, **kwargs):
    """A drop-in for ``run_scenario`` that fails exactly one cell.

    Patched over ``repro.api.envelope.run_scenario``, which every cell
    looks up when it runs; forked workers inherit the patch.
    """
    if seed == 2:
        raise RuntimeError("injected failure for seed 2")
    return run_scenario(scenario, seed=seed, **kwargs)


class TestFailureIsolation:
    def assert_isolated(self, batch):
        assert [r.seed for r in batch.runs] == [1, 3]
        assert len(batch.failures) == 1
        failure = batch.failures[0]
        assert failure.scenario_name == "tiny"
        assert failure.seed == 2
        assert failure.error == "RuntimeError: injected failure for seed 2"
        assert "injected failure" in failure.traceback
        assert not batch.ok
        payload = batch.to_dict()
        assert payload["failures"] == [failure.to_dict()]
        # Aggregates still work over the surviving runs.
        assert batch.aggregate().seeds == (1, 3)

    def test_serial_failure_is_contained(self, monkeypatch):
        monkeypatch.setattr(
            "repro.api.envelope.run_scenario", _boom_on_seed_2
        )
        batch = BatchRunner(jobs=1).run(TINY, seeds=[1, 2, 3])
        self.assert_isolated(batch)

    def test_pooled_failure_is_contained(self, monkeypatch):
        monkeypatch.setattr(
            "repro.api.envelope.run_scenario", _boom_on_seed_2
        )
        batch = BatchRunner(jobs=2).run(TINY, seeds=[1, 2, 3])
        self.assert_isolated(batch)

    def test_strict_reraises(self, monkeypatch):
        monkeypatch.setattr(
            "repro.api.envelope.run_scenario", _boom_on_seed_2
        )
        with pytest.raises(
            SweepError, match="tiny seed=2: RuntimeError: injected failure"
        ):
            BatchRunner().run(TINY, seeds=[1, 2, 3], strict=True)

    def test_pooled_worker_crash_fails_only_its_cell(self, tmp_path):
        seeds = [2016, 2017, 2018]
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sweep.cell", kind="crash", match={"seed": 2017}
                ),
            ),
            state_dir=str(tmp_path / "budget"),
        )
        with plan.scoped():
            batch = BatchRunner(jobs=2).run(TINY, seeds)
        assert [(f.scenario_name, f.seed) for f in batch.failures] == [
            ("tiny", 2017)
        ]
        assert "died" in batch.failures[0].error
        serial = BatchRunner(jobs=1).run(TINY, [2016, 2018])
        assert [_strip_timings(r) for r in batch.runs] == [
            _strip_timings(r) for r in serial.runs
        ]


class TestAggregates:
    def test_aggregate_metrics_shape(self):
        batch = BatchRunner().run(TINY, seeds=[2016, 2017])
        aggregate = batch.aggregate()
        assert set(aggregate.metrics) == set(AGGREGATED_METRICS)
        unique = aggregate.metrics["unique_accesses"]
        assert unique.n == 2
        assert unique.min <= unique.mean <= unique.max
        assert aggregate.seeds == (2016, 2017)
        payload = aggregate.to_dict()
        assert payload["scenario"] == "tiny"
        assert "pooled_cvm" in payload
        assert "unique_accesses" in aggregate.format()

    def test_single_run_has_zero_stdev(self):
        aggregate = BatchRunner().run(TINY, seeds=[7]).aggregate()
        assert all(m.stdev == 0.0 for m in aggregate.metrics.values())

    def test_pooled_cvm_uses_all_seeds(self):
        runs = BatchRunner().run(TINY, seeds=[2016, 2017]).runs
        pooled = aggregate_runs(runs).pooled_cvm
        singles = [run.significance() for run in runs]
        assert set(pooled) == set(singles[0])
        # pooling changes the sample sizes, so p-values must differ
        # from any single run's
        assert pooled != singles[0]

    def test_format_with_no_metrics_prints_header_only(self):
        # Regression: max() over the empty metric-name sequence used to
        # raise ValueError before the format could print anything.
        empty = AggregateStats(
            scenario_name="bare",
            seeds=(1, 2),
            metrics={},
            pooled_cvm={},
        )
        text = empty.format()
        assert text.startswith("bare over seeds 1, 2:")
        assert "\n" not in text.strip()

    def test_mixed_scenarios_rejected(self):
        runs = [
            run_scenario(TINY, seed=1),
            run_scenario(TINY.with_name("tiny-b"), seed=1),
        ]
        with pytest.raises(ConfigurationError, match="across scenarios"):
            aggregate_runs(runs)
        with pytest.raises(ConfigurationError, match="zero runs"):
            aggregate_runs([])


class TestLegacyShim:
    def test_run_paper_experiment_unchanged(self):
        from repro import run_paper_experiment
        from repro.core.experiment import ExperimentResult

        result = run_paper_experiment(seed=2016)
        assert isinstance(result, ExperimentResult)
        assert result.account_count == 100
        assert result.config.master_seed == 2016
        # shim must keep producing the legacy fast() configuration
        from repro.core.experiment import ExperimentConfig

        assert result.config == ExperimentConfig.fast(master_seed=2016)
