"""Memoized-sweep benchmark with warm-cache and store-overhead gates.

Measures what the sweep subsystem (:mod:`repro.sweeps`) adds on top of
a bare :class:`~repro.api.runner.BatchRunner`, and what the memo buys
back.  The workload is the ``fast`` scenario over two seeds, run three
ways per round:

* **bare** — ``BatchRunner(jobs=1)`` plus the cross-seed aggregate:
  a storeless ``SweepManager`` (no lookups, no puts, no journal file)
  and the overhead baseline;
* **cold** — the same cells through ``SweepManager`` into a fresh
  :class:`ResultsStore` (one job, in this process), plus the aggregate;
* **warm** — a second ``SweepManager.run(resume=True)`` against the
  now-populated store, plus the aggregate: every cell loads from disk.

Both bare and cold pay one full analysis per run (``put`` snapshots
the overview into the sidecar), so the comparison isolates store
mechanics rather than analysis cost.  Two machine-independent gates:

* ``WARM_SPEEDUP_LIMIT`` — the warm sweep must beat the cold sweep by
  at least 5x on best-of-N CPU time: if loading a memoized cell is not
  dramatically cheaper than recomputing it, the store has no reason
  to exist;
* ``STORE_OVERHEAD_LIMIT`` — the store's own mechanics must cost at
  most 5% of the bare batch.  The mechanics — job addressing +
  store lookup (``plan``) and pickle + sha256 + sidecar
  (:meth:`ResultsStore.encode`) — are **timed directly** on the bare
  round's runs (analyses already cached, exactly as inside a sweep)
  rather than recovered as cold-minus-bare: subtracting two
  multi-second measurements to resolve a ~0.1s delta is hopeless on a
  shared CI box, while timing the 0.1s itself is robust.  The raw
  byte-push (full ``put``) is timed as context but never gated:
  buffered-write cost varies ~50x with the host's writeback state and
  measures the disk, not the store.

Gates compare CPU time (``time.process_time``), not wall-clock:
every path runs in this one process, and CPU time is immune to the
scheduler preemption of a busy box.  Wall times are recorded in the
JSON for context.  The run also asserts the bare, cold, and warm
aggregates are bit-identical — a memo that changes results is worse
than no memo.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--quick] \
        [--out BENCH_sweep.json]

``--quick`` shortens the measurement window; both gates still run.
"""

from __future__ import annotations

import gc
import shutil
import sys
import tempfile
from pathlib import Path

import harness

from repro.api.runner import BatchRunner
from repro.sweeps import ResultsStore, SweepManager

#: Warm (all-cached) sweep must be at least this many times faster
#: than the cold sweep that populated the store, on CPU time.
WARM_SPEEDUP_LIMIT = 5.0

#: Store mechanics (plan + put) may cost at most this fraction of the
#: bare BatchRunner's CPU time (0.05 = a 5% memoization tax budget).
STORE_OVERHEAD_LIMIT = 0.05

SEEDS = [2016, 2017]
CODE_VERSION = "bench-sweep-v1"


def _aggregate_dict(batch) -> dict:
    return batch.aggregate().to_dict()


def bench_round(scenario, workdir: Path, index: int) -> dict:
    """One paired measurement: bare, store mechanics, cold, warm.

    Every store this round writes is deleted before the next phase:
    dirty page-cache pressure from earlier multi-megabyte payloads
    makes later buffered writes bill 10-30x more CPU inside a memory
    cgroup, so accumulated stores would poison every later sample.
    """
    gc.collect()

    def bare_path():
        batch = BatchRunner(jobs=1).run(scenario, SEEDS)
        return batch, _aggregate_dict(batch)

    (bare_batch, bare_aggregate), bare_wall, bare_cpu = harness.timed(bare_path)

    # Store mechanics in isolation, on the bare runs (their analyses
    # were just cached by the aggregate, exactly as a sweep's put
    # leaves them): planning (canonical addressing + membership
    # checks) and encoding (pickle + sha256 + sidecar) — the store's
    # own deterministic CPU, and nothing the bare path pays too.  The
    # byte-push itself (``put`` minus ``encode``) is timed separately
    # as context, never gated: buffered-write cost on a shared box is
    # a property of the disk and its writeback state, not the store.
    mech_root = workdir / f"mech-{index}"
    mech_store = ResultsStore(mech_root)
    mech_manager = SweepManager(
        scenario, SEEDS, mech_store, code_version=CODE_VERSION, retries=0
    )

    def mechanics():
        total = 0
        for cell, run in zip(mech_manager.plan(), bare_batch.runs):
            payload, _ = mech_store.encode(cell.spec, run)
            total += len(payload)
        return total

    store_bytes, mech_wall, mech_cpu = harness.timed(mechanics)

    def writes():
        for cell, run in zip(mech_manager.plan(), bare_batch.runs):
            mech_store.put(cell.spec, run)

    _, write_wall, write_cpu = harness.timed(writes)
    shutil.rmtree(mech_root)
    del bare_batch
    gc.collect()

    store_root = workdir / f"store-{index}"
    store = ResultsStore(store_root)
    manager = SweepManager(
        scenario, SEEDS, store, code_version=CODE_VERSION, retries=0
    )

    def cold_path():
        result = manager.run()
        assert result.executed == len(SEEDS), (
            "cold round found a warm store"
        )
        return _aggregate_dict(result.batch())

    cold_aggregate, cold_wall, cold_cpu = harness.timed(cold_path)
    gc.collect()

    def warm_path():
        result = manager.run(resume=True)
        assert result.cached == len(SEEDS), "warm round missed the store"
        return _aggregate_dict(result.batch())

    warm_aggregate, warm_wall, warm_cpu = harness.timed(warm_path)
    shutil.rmtree(store_root)
    gc.collect()

    return {
        "bare_seconds": round(bare_wall, 6),
        "cold_seconds": round(cold_wall, 6),
        "warm_seconds": round(warm_wall, 6),
        "mechanics_seconds": round(mech_wall, 6),
        "put_seconds": round(write_wall, 6),
        "bare_cpu_seconds": round(bare_cpu, 6),
        "cold_cpu_seconds": round(cold_cpu, 6),
        "warm_cpu_seconds": round(warm_cpu, 6),
        "mechanics_cpu_seconds": round(mech_cpu, 6),
        "put_cpu_seconds": round(write_cpu, 6),
        "store_bytes": store_bytes,
        "aggregates_identical": (
            bare_aggregate == cold_aggregate == warm_aggregate
        ),
    }


def main(argv: list[str] | None = None) -> int:
    args = harness.cli(__doc__, "BENCH_sweep.json", argv)

    scenario = harness.scenario("fast", 30.0 if args.quick else None)
    rounds = 3
    workdir = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        records = []
        for index in range(rounds):
            record = bench_round(scenario, workdir, index)
            records.append(record)
            print(
                f"round {index}: bare {record['bare_cpu_seconds']:.2f}s "
                f"cpu, cold {record['cold_cpu_seconds']:.2f}s cpu, "
                f"warm {record['warm_cpu_seconds']:.3f}s cpu, "
                f"mechanics {record['mechanics_cpu_seconds']:.3f}s cpu "
                f"(+{record['put_seconds']:.2f}s put wall), store "
                f"{record['store_bytes'] / 1024:.0f} KiB, "
                f"identical={record['aggregates_identical']}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Best-of-N per code path: the minimum CPU time is the least-noisy
    # estimate of each path's true cost — transient load can inflate a
    # sample but never deflate it below the real work.
    bare = min(r["bare_cpu_seconds"] for r in records)
    cold = min(r["cold_cpu_seconds"] for r in records)
    warm = min(r["warm_cpu_seconds"] for r in records)
    mechanics = min(r["mechanics_cpu_seconds"] for r in records)
    overhead_ratio = mechanics / bare
    warm_speedup = cold / warm
    identical = all(r["aggregates_identical"] for r in records)

    gate = {
        "warm_speedup": round(warm_speedup, 4),
        "warm_speedup_limit": WARM_SPEEDUP_LIMIT,
        "store_overhead_ratio": round(overhead_ratio, 4),
        "store_overhead_limit": STORE_OVERHEAD_LIMIT,
        "aggregates_identical": identical,
        "bare_cpu_seconds": round(bare, 6),
        "cold_cpu_seconds": round(cold, 6),
        "warm_cpu_seconds": round(warm, 6),
        "mechanics_cpu_seconds": round(mechanics, 6),
    }
    payload = {
        "quick": args.quick,
        "workload": {
            "scenario": scenario.name,
            "duration_days": scenario.config.duration_days,
            "seeds": SEEDS,
            "code_version": CODE_VERSION,
        },
        "rounds": records,
        "gate": gate,
    }
    print(
        f"best-of-{rounds} (cpu): bare {bare:.2f}s, cold {cold:.2f}s, "
        f"warm {warm:.3f}s ({warm_speedup:.0f}x), store mechanics "
        f"{mechanics:.3f}s ({overhead_ratio * 100:.1f}% of bare)"
    )

    failures = []
    if not identical:
        failures.append(
            "memoized aggregates diverged from the bare BatchRunner's"
        )
    if warm_speedup < WARM_SPEEDUP_LIMIT:
        failures.append(
            f"warm sweep is only {warm_speedup:.2f}x the cold "
            f"sweep (limit {WARM_SPEEDUP_LIMIT}x)"
        )
    if overhead_ratio > STORE_OVERHEAD_LIMIT:
        failures.append(
            f"store mechanics cost {overhead_ratio * 100:.1f}% "
            f"of the bare batch "
            f"(limit {STORE_OVERHEAD_LIMIT * 100:.0f}%)"
        )
    return harness.finish(args.out, payload, failures)

if __name__ == "__main__":
    sys.exit(main())
