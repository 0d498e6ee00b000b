"""End-to-end: one full 7-month measurement run (setup + sim + collect).

This is the cost of regenerating the entire dataset from scratch; the
other benchmarks measure the per-figure analysis steps on a shared run.
"""

from conftest import BENCH_SEED, print_comparison

from repro.api import run_scenario
from repro.api.registry import scenarios


def bench_full_experiment(benchmark):
    def run():
        return run_scenario(scenarios.get("fast"), seed=BENCH_SEED)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_comparison(
        "Full experiment run",
        [
            ("honey accounts", "100", str(result.account_count)),
            ("events executed", "-", str(result.events_executed)),
            (
                "activity rows scraped",
                "-",
                str(len(result.dataset.access_store)),
            ),
            (
                "script notifications",
                "-",
                str(len(result.dataset.notification_store)),
            ),
        ],
    )
    assert result.account_count == 100


def bench_analysis_pipeline(benchmark, experiment_result):
    from repro.analysis.dataset import analyze

    results = benchmark(
        lambda: analyze(
            experiment_result.dataset,
            scan_period=experiment_result.config.scan_period,
        )
    )
    assert results.total_unique_accesses > 0
