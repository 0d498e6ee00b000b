"""repro — reproduction of "What Happens After You Are Pwnd" (IMC 2016).

A deterministic, seedable reimplementation of the paper's honey
webmail-account ecosystem: the instrumented accounts and monitoring
infrastructure (the paper's contribution, ``repro.core``), the webmail
provider, leak outlets, malware sandbox, and internet substrate it runs
on, a calibrated attacker population standing in for live criminal
traffic, and the full Section 4 analysis pipeline.

Quickstart — one run of a named scenario::

    from repro import scenarios

    run = scenarios.get("fast").run(seed=2016)   # a RunResult envelope
    stats = run.overview()                        # Section 4.1 numbers
    print(stats.unique_accesses, run.significance())
    run.analysis                                  # full Section 4 bundle,
                                                  # correct scan period,
                                                  # computed once, cached

Sweeps — many seeds and scenario variants, optionally on a process
pool, with cross-seed aggregates and pooled significance tests::

    from repro import BatchRunner, Scenario, scenarios

    batch = BatchRunner(jobs=4).run(
        scenarios.get("fast"), seeds=range(2016, 2024)
    )
    print(batch.aggregate().format())

    variant = (
        Scenario.builder()
        .named("half-size-no-incidents")
        .without_case_studies()
        .scale_accounts(0.5)
        .build()
    )
    batch = BatchRunner(jobs=4).run_matrix(
        [scenarios.get("fast"), variant], seeds=[1, 2, 3]
    )

The CLI mirrors the API: ``python -m repro run --scenario paste_only``,
``python -m repro sweep --seeds 2016..2023 --jobs 4``, ``python -m
repro scenarios``, ``python -m repro compare``.

See docs/API.md for the scenario/batch API, DESIGN.md for the system
inventory and EXPERIMENTS.md for paper-vs-measured numbers on every
table and figure.
"""

from repro.analysis.dataset import (
    AnalysisResults,
    analyze,
    analyze_experiment,
)
from repro.analysis.report import (
    OverviewStats,
    SignificanceTests,
    format_persona_report,
    format_table2,
    format_taxonomy_summary,
    overview,
    significance_tests,
)
from repro.api import (
    AggregateStats,
    BatchResult,
    BatchRunner,
    FailedRun,
    Persona,
    PersonaMix,
    RunResult,
    Scenario,
    ScenarioBuilder,
    personas,
    register_persona,
    run_scenario,
    scenarios,
)
from repro.core.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
)
from repro.core.groups import LeakPlan, OutletKind, paper_leak_plan
from repro.perf import PhaseTimer, capture_profile, peak_rss_kb
from repro.sweeps import JobSpec, ResultsStore, SweepManager
from repro.telemetry import EventLog, JsonlSink, StringTable

__version__ = "1.3.0"

__all__ = [
    "AggregateStats",
    "AnalysisResults",
    "BatchResult",
    "BatchRunner",
    "EventLog",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "FailedRun",
    "JobSpec",
    "JsonlSink",
    "LeakPlan",
    "OutletKind",
    "OverviewStats",
    "Persona",
    "PersonaMix",
    "PhaseTimer",
    "ResultsStore",
    "RunResult",
    "Scenario",
    "ScenarioBuilder",
    "SignificanceTests",
    "StringTable",
    "SweepManager",
    "__version__",
    "analyze",
    "analyze_experiment",
    "capture_profile",
    "format_persona_report",
    "format_table2",
    "format_taxonomy_summary",
    "overview",
    "paper_leak_plan",
    "peak_rss_kb",
    "personas",
    "register_persona",
    "run_scenario",
    "scenarios",
    "significance_tests",
]
