"""The stable per-run results envelope.

:class:`RunResult` is what every scenario execution returns, whether it
ran inline, through :meth:`Scenario.run`, or on a
:class:`~repro.api.runner.BatchRunner` worker process.  It fixes a
long-standing footgun: ``analyze(dataset)`` defaults to a 2-hour scan
period regardless of what cadence actually produced the dataset, so
callers that forgot ``scan_period=result.config.scan_period`` silently
misclassified accesses.  ``RunResult.analysis`` always analyses with the
scan period the run was configured with, and caches the result.

The envelope is picklable: the live :class:`ExperimentResult` (which
holds the simulator, scheduled closures, and the full world graph) is
kept only as an in-process convenience handle and dropped on
serialization, while everything analysis needs — the observed dataset,
the config, the blacklist snapshot — survives the trip across process
boundaries intact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.dataset import AnalysisResults, analyze
from repro.analysis.defense import DefenseReport
from repro.analysis.defense import defense_report as _defense_report
from repro.analysis.report import (
    CVM_TESTS,
    OverviewStats,
    cvm_panel_p_values,
    overview,
)
from repro.api.scenario import Scenario
from repro.core.experiment import Experiment, ExperimentConfig, ExperimentResult
from repro.core.records import ObservedDataset
from repro.errors import ConfigurationError
from repro.faults.plan import fault_site
from repro.perf import peak_rss_kb

__all__ = [
    "CVM_TESTS",
    "RunResult",
    "cvm_panel_p_values",
    "run_scenario",
]


@dataclass
class RunResult:
    """One finished scenario run, ready for analysis and transport.

    Attributes:
        scenario: the scenario that produced the run (with the seed it
            actually ran under).
        seed: the master seed of the run.
        dataset: the observed dataset the monitoring collected.
        config: the experiment configuration of the run.
        events_executed: simulation events executed.
        blacklisted_ips: the external IP-reputation snapshot.
        account_count: honey accounts deployed.
        elapsed_seconds: wall-clock runtime of the measurement.
        perf: per-phase wall-clock seconds of the run (``build`` /
            ``provision`` / ``leak`` / ``case_studies`` / ``simulate`` /
            ``assemble``), as collected by the
            :class:`repro.perf.PhaseTimer` inside ``Experiment.run``.
            Survives pickling, so sweep workers report throughput too.
            For sharded runs each entry is the per-phase *maximum*
            across shards (the critical path an idealised worker pool
            pays), plus a ``merge`` phase.
        shard_perf: per-shard phase breakdowns when the run was sharded
            (:mod:`repro.shard`); ``None`` for serial runs.
        experiment_result: the live :class:`ExperimentResult` when the
            run happened in this process; ``None`` after crossing a
            process boundary (it is intentionally not serialized).
    """

    scenario: Scenario
    seed: int
    dataset: ObservedDataset
    config: ExperimentConfig
    events_executed: int
    blacklisted_ips: set[str]
    account_count: int
    elapsed_seconds: float
    perf: dict[str, float] = field(default_factory=dict)
    #: RSS high-water mark (kB) at the end of each run phase (and of
    #: ``analyze``, once :attr:`analysis` has been computed).  For
    #: sharded runs: the merging parent's own high-water marks.
    rss_kb: dict[str, int] = field(default_factory=dict)
    shard_perf: list[dict] | None = None
    experiment_result: ExperimentResult | None = field(
        default=None, repr=False, compare=False
    )
    _analysis: AnalysisResults | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Wall-clock of the ``analysis`` computation.  Kept out of
    #: ``perf`` (whose phase set is the run loop's contract) and
    #: surfaced as ``analyze_perf()["analyze_seconds"]``; pickled with
    #: the analysis it timed.
    _analyze_seconds: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_experiment(
        cls,
        scenario: Scenario,
        result: ExperimentResult,
        elapsed_seconds: float,
    ) -> "RunResult":
        return cls(
            scenario=scenario,
            seed=result.config.master_seed,
            dataset=result.dataset,
            config=result.config,
            events_executed=result.events_executed,
            blacklisted_ips=set(result.blacklisted_ips),
            account_count=result.account_count,
            elapsed_seconds=elapsed_seconds,
            perf=dict(result.perf),
            rss_kb=dict(result.rss_kb),
            experiment_result=result,
        )

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    @property
    def analysis(self) -> AnalysisResults:
        """The Section 4 analysis, computed lazily and cached.

        Always uses the scan period this run was configured with —
        never the module-level default.  The cache pickles with the
        run, so a run read back from a results store is not
        re-analysed.
        """
        if self._analysis is None:
            started = time.perf_counter()
            self._analysis = analyze(
                self.dataset, scan_period=self.config.scan_period
            )
            self._analyze_seconds = round(time.perf_counter() - started, 6)
            # Copy-on-write: results sharing a dict don't see each
            # other's marks.
            self.rss_kb = {**self.rss_kb, "analyze": peak_rss_kb()}
        return self._analysis

    def overview(self) -> OverviewStats:
        """Overview stats against this run's blacklist snapshot."""
        return overview(self.analysis, self.blacklisted_ips)

    def defense_report(
        self, *, baseline: "RunResult | None" = None
    ) -> DefenseReport:
        """Defender-side effectiveness summary for this run.

        Reuses the cached :attr:`analysis` (same scan period the run
        was configured with).  Pass an undefended ``baseline`` run of
        the same scenario to populate the taxonomy-delta columns.
        """
        return _defense_report(
            self.dataset,
            scan_period=self.config.scan_period,
            analysis=self.analysis,
            baseline=None if baseline is None else baseline.analysis,
        )

    def significance(self) -> dict[str, float]:
        """The Section 4.5 CvM p-values that are computable on this run.

        Outlet-restricted scenarios lack some with/without-location
        panels entirely; those tests are omitted rather than raising.
        """
        analysis = self.analysis
        return cvm_panel_p_values(
            analysis.distances_uk, analysis.distances_us
        )

    def perf_summary(self) -> dict:
        """Event count, per-phase wall-clock, and memory of this run.

        When per-phase RSS tracking is available (any run made since
        phase RSS accounting landed), the summary also reports the
        measurement's RSS high-water mark and the memory-efficiency
        headline ``accounts_per_gb`` — honey accounts measured per GB
        of peak RSS, the number spilled (out-of-core) telemetry exists
        to raise.  Only marks recorded by the run itself are included:
        the analyze-phase marks (:attr:`rss_kb` ``["analyze"]``,
        :meth:`analyze_perf`) appear only once the analysis has been
        computed, and summaries must not depend on whether it was.
        """
        summary = {
            "events_executed": self.events_executed,
            "simulate_seconds": self.perf.get("simulate"),
            "phases": dict(self.perf),
        }
        run_rss = {
            name: kb for name, kb in self.rss_kb.items() if name != "analyze"
        }
        if run_rss:
            # ru_maxrss is monotone, so the max across phases is the
            # process high-water mark as of the last recorded phase.
            peak = max(run_rss.values())
            summary["peak_rss_kb"] = peak
            summary["rss_kb"] = run_rss
            if peak > 0:
                summary["accounts_per_gb"] = round(
                    self.account_count / (peak / (1024 * 1024)), 2
                )
        if self.shard_perf is not None:
            summary["shards"] = len(self.shard_perf)
            summary["shard_phases"] = [dict(s) for s in self.shard_perf]
        return summary

    def analyze_perf(self) -> dict:
        """Wall-clock and RSS of the ``analysis`` computation.

        Empty until :attr:`analysis` has been accessed.  Kept out of
        :meth:`perf_summary`: the marks describe the process that
        computed the analysis, not the run.
        """
        marks: dict = {}
        if self._analyze_seconds is not None:
            marks["analyze_seconds"] = self._analyze_seconds
        if "analyze" in self.rss_kb:
            marks["analyze_peak_rss_kb"] = self.rss_kb["analyze"]
        return marks

    def summary(self) -> dict:
        """A compact JSON-serialisable record of the run."""
        stats = self.overview()
        return {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "events_executed": self.events_executed,
            "account_count": self.account_count,
            "perf": self.perf_summary(),
            "overview": {
                "unique_accesses": stats.unique_accesses,
                "emails_read": stats.emails_read,
                "emails_sent": stats.emails_sent,
                "unique_drafts": stats.unique_drafts,
                "blocked_accounts": stats.blocked_accounts,
                "located_accesses": stats.located_accesses,
                "unlocated_accesses": stats.unlocated_accesses,
                "country_count": stats.country_count,
                "blacklist_hits": stats.blacklist_hits,
                "accesses_per_outlet": dict(stats.accesses_per_outlet),
                "label_totals": dict(stats.label_totals),
            },
            "cvm_tests": self.significance(),
            "persona_ground_truth": {
                "matched_accesses": self.analysis.persona_report.matched_accesses,
                "other_accesses": self.analysis.persona_report.other_accesses,
                "persona_access_counts": dict(
                    self.analysis.persona_report.persona_access_counts
                ),
                "label_metrics": {
                    label: {
                        "precision": metric.precision,
                        "recall": metric.recall,
                        "tp": metric.true_positives,
                        "fp": metric.false_positives,
                        "fn": metric.false_negatives,
                    }
                    for label, metric in sorted(
                        self.analysis.persona_report.label_metrics.items()
                    )
                },
            },
        }

    # ------------------------------------------------------------------
    # telemetry export
    # ------------------------------------------------------------------
    def export_telemetry(self, directory: str | Path) -> list[Path]:
        """Write the run's raw telemetry into ``directory``.

        Produces ``accesses.jsonl`` and ``notifications.jsonl`` (one row
        per line, straight off the columnar stores) plus
        ``dataset.json`` — the full column-wise dataset dump that
        :meth:`~repro.core.records.ObservedDataset.from_json_dict`
        rebuilds losslessly.
        """
        from repro.telemetry import write_jsonl

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = [
            write_jsonl(
                self.dataset.access_store, directory / "accesses.jsonl"
            ),
            write_jsonl(
                self.dataset.notification_store,
                directory / "notifications.jsonl",
            ),
        ]
        dataset_path = directory / "dataset.json"
        dataset_path.write_text(
            json.dumps(self.dataset.to_json_dict(), sort_keys=True)
        )
        written.append(dataset_path)
        return written

    # ------------------------------------------------------------------
    # pickling: drop the live world, keep the analysis cache
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["experiment_result"] = None
        return state


def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    *,
    profile_path: str | None = None,
    jobs: int | None = None,
    spill_dir: str | Path | None = None,
    chunk_rows: int | None = None,
    shard_timeout: float | None = None,
    shard_retries: int | None = None,
) -> RunResult:
    """Execute one scenario run and wrap it in a :class:`RunResult`.

    ``profile_path`` dumps a :mod:`cProfile` capture of the simulation
    loop to the given path (``pstats`` format; the CLI exposes it as
    ``run --profile``).

    ``spill_dir`` makes the run out-of-core: the access, notification
    and scrape-log stores write chunked columns (``chunk_rows`` rows
    each) under that directory during the measurement and the analysis
    streams them back chunk by chunk.  The dataset and analysis are
    bit-identical to a resident run.

    Scenarios with ``shards > 1`` run on the sharded executor
    (:mod:`repro.shard`) with ``jobs`` worker processes; the result is
    bit-identical to the serial path.  ``profile_path`` applies to
    in-process worlds only and is rejected for sharded runs
    (``spill_dir`` applies to both paths).
    ``shard_timeout``/``shard_retries`` configure the sharded
    executor's supervision (see :func:`repro.shard.run_sharded`); the
    serial path forks nothing to supervise, so giving either there is
    a :class:`~repro.errors.ConfigurationError`.  ``jobs`` is accepted
    and unused on the serial path.
    """
    if seed is not None:
        scenario = scenario.with_seed(seed)
    if scenario.shards == 1 and (
        shard_timeout is not None or shard_retries is not None
    ):
        raise ConfigurationError(
            "--shard-timeout/--shard-retries (shard_timeout/shard_retries) "
            "supervise forked shards only; a serial run (shards=1) has "
            "none, so the flag would be ignored"
        )
    fault_site("run.scenario", seed=scenario.seed, shards=scenario.shards)
    if scenario.shards > 1:
        if profile_path is not None:
            raise ConfigurationError(
                "profile_path instruments one in-process world and "
                "cannot apply to a sharded run; use shards=1 or "
                "profile repro.shard directly"
            )
        from repro.shard import run_sharded

        return run_sharded(
            scenario,
            jobs=jobs,
            spill_dir=spill_dir,
            chunk_rows=chunk_rows,
            shard_timeout=shard_timeout,
            shard_retries=shard_retries,
        )
    started = time.perf_counter()
    experiment = Experiment.from_scenario(
        scenario, spill_dir=spill_dir, chunk_rows=chunk_rows
    ).build()
    result = experiment.run(profile_path=profile_path)
    elapsed = time.perf_counter() - started
    return RunResult.from_experiment(scenario, result, elapsed)
