#!/usr/bin/env python3
"""Multi-seed sweeps: how stable are the paper's findings across runs?

The paper reports one 7-month deployment.  A sweep re-runs the same
methodology under many master seeds (i.e. many counterfactual
deployments) and aggregates: mean/stdev/min/max of every overview
statistic, plus Cramér-von Mises tests on the *pooled* distance
vectors, which gain power over any single run.

This version sweeps through ``repro.sweeps`` — the memoized campaign
layer — instead of a bare ``BatchRunner``: every (scenario, seed,
code-version) cell is content-addressed and stored on disk, so
re-running the script (same store, ``resume=True``) loads everything
back instantly instead of recomputing, and a killed sweep resumes
where it stopped.  Delete the store directory to force a recompute.

Run:  python examples/scenario_sweep.py [jobs] [store_dir]
"""

from __future__ import annotations

import sys
import time

from repro import scenarios
from repro.sweeps import ResultsStore, SweepManager


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    store_dir = sys.argv[2] if len(sys.argv) > 2 else "sweep-store"

    # A shortened variant keeps the example snappy; drop the override
    # to sweep full 7-month deployments.
    scenario = (
        scenarios.get("fast")
        .to_builder()
        .named("fast-90d")
        .with_duration_days(90.0)
        .build()
    )

    seeds = list(range(2016, 2021))
    store = ResultsStore(store_dir)
    resume = store.journal_path.exists()  # second run: load, don't compute

    def progress(record: dict) -> None:
        if record.get("event") == "cell":
            print(f"  [{record['status']}] {record['scenario']} "
                  f"seed={record['seed']}")

    manager = SweepManager(scenario, seeds, store, progress=progress)
    print(f"sweeping {scenario.name} over seeds {seeds} "
          f"(jobs={jobs}, store={store.root}, resume={resume})...")
    started = time.time()
    result = manager.run(jobs, resume=resume)
    print(f"done in {time.time() - started:.1f}s: "
          f"{result.executed} executed, {result.cached} cached\n")

    batch = result.batch()
    for run in batch.runs:
        stats = run.overview()
        print(f"  seed={run.seed}: accesses={stats.unique_accesses:4d} "
              f"read={stats.emails_read:4d} sent={stats.emails_sent:4d} "
              f"blocked={stats.blocked_accounts:3d}")

    print()
    print(batch.aggregate().format())
    print("\npaper single-run values: accesses 327, read 147, sent 845, "
          "blocked 42; paste CvM rejects (p<0.01), forum CvM keeps")
    print(f"\nre-run this script to load all {len(seeds)} cells from "
          f"{store.root} instead of recomputing")


if __name__ == "__main__":
    main()
