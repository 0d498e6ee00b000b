"""Sharded-runner benchmark with an equivalence + speedup gate.

Measures what ``BENCH_run.json`` cannot: how run cost *partitions*.
The workload is the committed-baseline scenario — ``scaled(200)`` over
the full 236-day window — executed serially and then as K-way sharded
runs (:mod:`repro.shard`).  Every shard runs in a fresh forked child,
so per-shard wall-clock and peak RSS are isolated measurements; the
parent merges the shard datasets and times the merge.

Two numbers matter per shard count:

* ``critical_path_seconds`` — slowest shard plus the merge: what an
  idealised K-worker pool pays end to end.  The **gate** requires the
  K=4 critical path to beat the serial run by at least
  ``SHARD_SPEEDUP_LIMIT``x.  It compares two code paths measured in
  the same process tree, so it is machine-independent — in particular
  it does not require the CI box to actually have 4 free cores.
* ``pool_wall_seconds`` — the measured wall-clock of
  ``run_sharded(jobs=K)`` on *this* machine, recorded for context
  (``cpu_count`` says how much parallelism was physically available).

The gate also asserts the merged dataset is **field-for-field
identical** to the serial dataset and that the analysis fingerprints
match — sharding is an execution knob, never an experimental variable.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py [--quick] \
        [--out BENCH_shard.json]

``--quick`` drops the K=2 sweep point; the K=4 gate runs in every
mode.
"""

from __future__ import annotations

import os
import sys

import harness

from repro.analysis.fingerprint import fingerprint_digest
from repro.api.envelope import run_scenario
from repro.perf import peak_rss_kb
from repro.shard import (
    _execute_shard,
    dataset_mismatches,
    merge_shard_runs,
    run_sharded,
)

#: The K=4 critical path (slowest shard + merge) must beat the serial
#: wall-clock by at least this factor on scaled(200); below it, the
#: partition has stopped cutting the dominant per-shard work.
SHARD_SPEEDUP_LIMIT = 1.4

GATE_SHARDS = 4
GATE_ACCOUNTS = 200
SEED = 2016


def _run_serial_child(scenario_json):
    """One serial run in a fresh child: (run, wall_seconds, rss_kb)."""
    from repro.api.scenario import Scenario

    scenario = Scenario.from_json(scenario_json)
    run, elapsed, _ = harness.timed(lambda: run_scenario(scenario))
    return run, elapsed, peak_rss_kb()


def _run_shard_child(task):
    """One shard in a fresh child: (ShardRun, rss_kb)."""
    shard_run = _execute_shard(task)
    return shard_run, peak_rss_kb()


def bench_shard_count(scenario, shards: int, serial_run) -> dict:
    """Measure one K-way partition: per-shard walls, merge, pool wall."""
    serialized = scenario.with_shards(shards).to_json()
    shard_runs = []
    shard_seconds = []
    shard_rss = []
    for index in range(shards):
        shard_run, rss_kb = harness.in_child(
            _run_shard_child, (serialized, index, shards)
        )
        shard_runs.append(shard_run)
        shard_seconds.append(round(shard_run.elapsed_seconds, 6))
        shard_rss.append(rss_kb)
    (merged, diagnostics), merge_seconds, _ = harness.timed(
        lambda: merge_shard_runs(scenario.with_shards(shards), shard_runs)
    )
    critical_path = max(shard_seconds) + merge_seconds

    pooled, pool_wall, _ = harness.timed(
        lambda: run_sharded(scenario, shards=shards)
    )

    mismatches = dataset_mismatches(serial_run.dataset, merged)
    pooled_mismatches = dataset_mismatches(
        serial_run.dataset, pooled.dataset
    )
    events = sum(run.events_executed for run in shard_runs)
    return {
        "shards": shards,
        "shard_seconds": shard_seconds,
        "owned_accounts": [
            len(run.owned_addresses) for run in shard_runs
        ],
        "peak_rss_kb_per_shard": shard_rss,
        "merge_seconds": round(merge_seconds, 6),
        "merged_rows": diagnostics["access_rows"],
        "critical_path_seconds": round(critical_path, 6),
        "events_executed_total": events,
        "events_per_second_critical_path": round(
            events / critical_path, 2
        ),
        "pool_wall_seconds": round(pool_wall, 6),
        "pool_jobs": min(shards, os.cpu_count() or 1),
        "dataset_identical": not mismatches,
        "pooled_dataset_identical": not pooled_mismatches,
        "_mismatches": mismatches[:3] + pooled_mismatches[:3],
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.cli(__doc__, "BENCH_shard.json", argv)

    scenario = harness.scenario(
        "scaled", n_accounts=GATE_ACCOUNTS
    ).with_seed(SEED)
    serial_run, serial_seconds, serial_rss = harness.in_child(
        _run_serial_child, scenario.to_json()
    )
    serial_fingerprint = fingerprint_digest(serial_run.analysis)
    print(
        f"serial scaled({GATE_ACCOUNTS}): {serial_seconds:.2f}s, "
        f"{serial_run.events_executed} events, peak RSS "
        f"{serial_rss / 1024:.0f} MB"
    )

    shard_counts = [GATE_SHARDS] if args.quick else [2, GATE_SHARDS]
    results = {}
    gate = None
    for shards in shard_counts:
        record = bench_shard_count(scenario, shards, serial_run)
        speedup = serial_seconds / record["critical_path_seconds"]
        record["speedup_critical_path"] = round(speedup, 4)
        mismatches = record.pop("_mismatches")
        results[str(shards)] = record
        print(
            f"K={shards}: shards {record['shard_seconds']} s "
            f"(accounts {record['owned_accounts']}), merge "
            f"{record['merge_seconds']:.2f}s -> critical path "
            f"{record['critical_path_seconds']:.2f}s = "
            f"{speedup:.2f}x serial; pool wall "
            f"{record['pool_wall_seconds']:.2f}s at "
            f"jobs={record['pool_jobs']} "
            f"(cpu_count={os.cpu_count()}); identical="
            f"{record['dataset_identical']}"
        )
        if shards == GATE_SHARDS:
            gate = {
                "shards": shards,
                "limit": SHARD_SPEEDUP_LIMIT,
                "serial_seconds": round(serial_seconds, 6),
                "critical_path_seconds": record[
                    "critical_path_seconds"
                ],
                "speedup": round(speedup, 4),
                "dataset_identical": record["dataset_identical"]
                and record["pooled_dataset_identical"],
                "serial_fingerprint": serial_fingerprint,
                "mismatches": mismatches,
            }

    payload = {
        "quick": args.quick,
        "workload": {
            "scenario": scenario.name,
            "n_accounts": GATE_ACCOUNTS,
            "duration_days": scenario.config.duration_days,
            "seed": SEED,
        },
        "cpu_count": os.cpu_count(),
        "serial": {
            "run_seconds": round(serial_seconds, 6),
            "events_executed": serial_run.events_executed,
            "peak_rss_kb": serial_rss,
        },
        "shard_counts": results,
        "gate": gate,
    }
    failures = []
    # Any measured shard count diverging fails the run, not just the
    # gated K: a merge bug that only manifests at one partition size
    # must not hide in the JSON.
    for shards, record in sorted(results.items(), key=lambda kv: int(kv[0])):
        if not (
            record["dataset_identical"]
            and record["pooled_dataset_identical"]
        ):
            failures.append(
                f"K={shards} sharded dataset diverged from the serial run"
                + (f": {gate['mismatches']}" if int(shards) == GATE_SHARDS else "")
            )
    if gate["speedup"] < SHARD_SPEEDUP_LIMIT:
        failures.append(
            f"K={GATE_SHARDS} critical path is only "
            f"{gate['speedup']:.2f}x the serial run "
            f"(limit {SHARD_SPEEDUP_LIMIT}x)"
        )
    return harness.finish(args.out, payload, failures)

if __name__ == "__main__":
    sys.exit(main())
