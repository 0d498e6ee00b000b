"""Supervision-overhead benchmark with a fault-free-path gate.

The fault-injection layer (``repro.faults``) puts every pooled shard
worker under :func:`~repro.faults.supervise.supervise_iter`: one forked
child per shard, heartbeat files, a parent poll loop.  That machinery
must be (nearly) free when nothing fails — robustness is not allowed
to tax the happy path.

The workload is the ``fast`` scenario run as a 4-way sharded pool,
measured two ways in the same process tree:

* ``supervised`` — ``run_sharded``, whose pooled shards always run
  under supervision;
* ``baseline`` — a bare ``ProcessPoolExecutor`` mapping the same shard
  worker over the same tasks, then the same ``merge_shard_runs``.  This
  pool lives only here; the library forks solely through
  ``supervise_iter``.

Each is run ``REPEATS`` times and the **minimum** wall-clock compared
(minima are the low-noise estimator for cold-pool workloads).  The
**gate** requires supervised/baseline ≤ ``OVERHEAD_LIMIT`` (5 %) in
full mode; ``--quick`` shortens the horizon and loosens the limit to
``QUICK_OVERHEAD_LIMIT`` because a shorter run amplifies fixed fork
costs and scheduler noise.

The gate also asserts the supervised dataset is field-for-field
identical to the baseline's, and — as a recovery demonstration, not a
timed measurement — that a run with one injected SIGKILL recovers to
the identical analysis fingerprint with exactly one extra attempt.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py [--quick] \
        [--out BENCH_faults.json]
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import harness

from repro import shard
from repro.analysis.fingerprint import fingerprint_digest
from repro.faults import FaultPlan, FaultRule
from repro.shard import dataset_mismatches, merge_shard_runs, run_sharded

#: Supervised / unsupervised wall-clock ratio allowed on the
#: fault-free path (full workload).
OVERHEAD_LIMIT = 1.05

#: The looser quick-mode limit: a 20-day horizon leaves per-fork fixed
#: costs a visible fraction of the wall, so CI gates at 25 %.
QUICK_OVERHEAD_LIMIT = 1.25

SHARDS = 4
SEED = 2016
REPEATS = 3
FULL_DAYS = 120.0
QUICK_DAYS = 20.0


def _baseline(scenario):
    """Bare-pool dispatch of the shard worker plus the same merge."""
    scenario = scenario.with_shards(SHARDS)
    serialized = scenario.to_json()
    tasks = [(serialized, index, SHARDS) for index in range(SHARDS)]
    with ProcessPoolExecutor(SHARDS) as pool:
        shard_runs = list(pool.map(shard._execute_shard, tasks))
    dataset, _ = merge_shard_runs(scenario, shard_runs)
    return dataset


def bench_overhead(scenario) -> dict:
    """Alternate supervised/baseline repeats; compare the minima."""
    supervised_walls, baseline_walls = [], []
    for _ in range(REPEATS):
        baseline_dataset, wall, _ = harness.timed(
            lambda: _baseline(scenario)
        )
        baseline_walls.append(round(wall, 6))
        supervised_run, wall, _ = harness.timed(
            lambda: run_sharded(scenario, shards=SHARDS, jobs=SHARDS)
        )
        supervised_walls.append(round(wall, 6))
    mismatches = dataset_mismatches(
        baseline_dataset, supervised_run.dataset
    )
    overhead = min(supervised_walls) / min(baseline_walls)
    return {
        "baseline_walls": baseline_walls,
        "supervised_walls": supervised_walls,
        "baseline_best": min(baseline_walls),
        "supervised_best": min(supervised_walls),
        "overhead_ratio": round(overhead, 4),
        "dataset_identical": not mismatches,
        "fingerprint": fingerprint_digest(supervised_run.analysis),
        "_mismatches": mismatches[:3],
    }


def bench_recovery(scenario, fingerprint: str) -> dict:
    """One injected SIGKILL: recovery must be fingerprint-identical."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-faults-") as tmp:
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="shard.worker",
                    kind="crash",
                    match={"shard": 1},
                ),
            ),
            state_dir=str(tmp) + "/budget",
        )
        started = time.perf_counter()
        with plan.scoped():
            run = run_sharded(
                scenario, shards=SHARDS, jobs=SHARDS, shard_retries=1
            )
        wall = time.perf_counter() - started
    return {
        "fault": "SIGKILL shard 1, first attempt",
        "wall_seconds": round(wall, 6),
        "recovered_fingerprint": fingerprint_digest(run.analysis),
        "fingerprint_identical": fingerprint_digest(run.analysis)
        == fingerprint,
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.cli(__doc__, "BENCH_faults.json", argv)

    days = QUICK_DAYS if args.quick else FULL_DAYS
    limit = QUICK_OVERHEAD_LIMIT if args.quick else OVERHEAD_LIMIT
    scenario = harness.scenario("fast", days).with_seed(SEED)

    overhead = bench_overhead(scenario)
    mismatches = overhead.pop("_mismatches")
    print(
        f"fault-free x{REPEATS}: baseline best "
        f"{overhead['baseline_best']:.2f}s "
        f"{overhead['baseline_walls']}, supervised best "
        f"{overhead['supervised_best']:.2f}s "
        f"{overhead['supervised_walls']} -> overhead "
        f"{overhead['overhead_ratio']:.3f}x (limit {limit}x); "
        f"identical={overhead['dataset_identical']}"
    )

    recovery = bench_recovery(scenario, overhead["fingerprint"])
    print(
        f"recovery: {recovery['fault']} -> "
        f"{recovery['wall_seconds']:.2f}s, fingerprint_identical="
        f"{recovery['fingerprint_identical']}"
    )

    payload = {
        "quick": args.quick,
        "workload": {
            "scenario": "fast",
            "duration_days": days,
            "shards": SHARDS,
            "jobs": SHARDS,
            "seed": SEED,
            "repeats": REPEATS,
        },
        "cpu_count": os.cpu_count(),
        "overhead": overhead,
        "recovery": recovery,
        "gate": {
            "limit": limit,
            "overhead_ratio": overhead["overhead_ratio"],
            "dataset_identical": overhead["dataset_identical"],
            "recovery_identical": recovery["fingerprint_identical"],
        },
    }
    failures = []
    if overhead["overhead_ratio"] > limit:
        failures.append(
            f"supervision costs {overhead['overhead_ratio']:.3f}x "
            f"on the fault-free path (limit {limit}x)"
        )
    if not overhead["dataset_identical"]:
        failures.append(
            f"supervised dataset diverged from the baseline: {mismatches}"
        )
    if not recovery["fingerprint_identical"]:
        failures.append(
            "recovery after an injected crash changed the analysis "
            "fingerprint"
        )
    return harness.finish(args.out, payload, failures)

if __name__ == "__main__":
    sys.exit(main())
